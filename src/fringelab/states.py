"""Benchmark input states for two-path interferometry.

dual_fock   |N/2, N/2>, the twin Fock input (even N only)
hb_state    Holland-Burnett state: dual_fock through the splitter (column N/2)
noon_state  (|N,0> + |0,N>)/sqrt(2)
snl_state   N photons split 50:50, the shot-noise baseline (column N)
"""

from __future__ import annotations

import numpy as np

from .fock import (
    PhysicsError,
    TwoModeState,
    basis_state,
    beam_splitter_matrix,
    _check_sector,
)


def _half(total_photons: int) -> int:
    """N/2 photons per port of the dual Fock input; raises for odd N."""
    _check_sector(total_photons)
    if total_photons % 2 != 0 or total_photons < 2:
        raise PhysicsError(
            f"Holland-Burnett interferometry requires an even photon number "
            f"N >= 2 so the dual Fock input can place N/2 photons in each "
            f"port; got N={total_photons}"
        )
    return total_photons // 2


def dual_fock(total_photons: int) -> TwoModeState:
    """|N/2, N/2>; raises for odd N (each port needs N/2 photons)."""
    return basis_state(total_photons, _half(total_photons))


def hb_state(total_photons: int) -> TwoModeState:
    """Holland-Burnett state: dual Fock input after the first splitter,
    column N/2 of the splitter."""
    half = _half(total_photons)
    return TwoModeState(total_photons, beam_splitter_matrix(total_photons)[:, half])


def noon_state(total_photons: int) -> TwoModeState:
    """(|N,0> + |0,N>)/sqrt(2)."""
    _check_sector(total_photons)
    if total_photons < 1:
        raise PhysicsError(f"a NOON state needs N >= 1, got N={total_photons}")
    amps = np.zeros(total_photons + 1, dtype=np.complex128)
    amps[0] = amps[total_photons] = 1.0 / np.sqrt(2.0)
    return TwoModeState(total_photons, amps)


def snl_state(total_photons: int) -> TwoModeState:
    """All N photons into one port of the splitter (column N of the
    splitter): the binomial path distribution that defines the shot-noise
    limit."""
    _check_sector(total_photons)
    if total_photons < 1:
        raise PhysicsError(
            f"the shot-noise baseline needs N >= 1, got N={total_photons}"
        )
    return TwoModeState(total_photons, beam_splitter_matrix(total_photons)[:, -1])


_BUILDERS = {
    "dual": dual_fock,
    "hb": hb_state,
    "noon": noon_state,
    "snl": snl_state,
}


def build_state(kind: str, total_photons: int) -> TwoModeState:
    """Look up one of the named families: dual, hb, noon, snl."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise PhysicsError(
            f"unknown state kind {kind!r}; expected one of {sorted(_BUILDERS)}"
        ) from None
    return builder(total_photons)
