"""Span tracing of fringelab's public functions, for the traced benchmark run.

``Tracer.install`` rebinds every public function of each fringelab module
to a timing wrapper, everywhere the package binds it: module globals
(which is how the modules call each other) and the values of
module-level dicts (``states._BUILDERS``). A span records the function,
its start and end on ``time.perf_counter``, its parent span and one
number of extra detail. Spans are kept in flat arrays in memory and
written out by ``Tracer.dump`` when the run ends.

Only the traced run installs the wrappers; end-to-end figures always
come from a run without them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

#: The package's layers, in dependency order.
MODULES = ("states", "fock", "fringes", "fisher", "detection", "estimation", "cli")

_PACKAGE = "fringelab"


def _public_functions(module):
    """Callables defined in ``module`` (not imported into it), not classes,
    whose names do not start with an underscore."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _phi_position(fn) -> int | None:
    """Positional index of a ``phi`` parameter, or None if there is none."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("phi") if "phi" in params else None


class Tracer:
    """Collects spans of wrapped fringelab functions.

    ``recording`` gates collection, so warm-up and output checks run
    through the same wrappers without leaving spans.
    """

    def __init__(self) -> None:
        self.recording = False
        self.names: list[str] = []  # "module.function", indexed by name id
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.extra = array("d")  # phases (fringes), cache miss (cached), else 0
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name_id)

    def install(self) -> None:
        """Wrap the public functions of every module in MODULES and rebind
        each wrapper wherever the package held the original."""
        replace: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"{_PACKAGE}.{short}")
            for name, fn in _public_functions(module):
                replace[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != _PACKAGE and not modname.startswith(_PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replace:
                            value[key] = replace[id(item)]

    def _wrap(self, label: str, fn):
        name = len(self.names)
        self.names.append(label)
        phi_at = _phi_position(fn) if label.startswith("fringes.") else None
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter
        stack = self._stack
        name_id, start, end, parent, extra = (
            self.name_id, self.start, self.end, self.parent, self.extra
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if phi_at is not None:
                phi = kwargs["phi"] if "phi" in kwargs else args[phi_at]
                detail = float(np.size(phi))
            elif cache_info is not None:
                detail = -float(cache_info().misses)
            else:
                detail = 0.0
            idx = len(name_id)
            name_id.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            extra.append(detail)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if cache_info is not None:
                    extra[idx] = 1.0 if cache_info().misses + detail > 0 else 0.0

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def dump(self, path) -> None:
        """Write every span as a gzipped CSV line: name,start,end,parent,extra."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name,start_s,end_s,parent,extra\n")
            for i in range(len(self)):
                out.write(
                    f"{self.names[self.name_id[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]},{self.extra[i]:g}\n"
                )


def layer_totals(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over all recorded spans (not yet per job).

    A layer's self time is the sum over its spans of duration minus the
    durations of their child spans (children nest inside their parent
    and never overlap, since the package is single-threaded). ``calls``
    counts entries into a layer: spans whose parent belongs to another
    layer or to no span. ``fringes.phase_evals`` sums the phase count
    of the fringes entries that take a ``phi`` argument.
    """
    ids = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    extra = np.frombuffer(tracer.extra, dtype=np.float64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    child_time = np.zeros(ids.size)
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time

    layer_of_name = np.array([MODULES.index(label.split(".")[0]) for label in tracer.names])
    layer = layer_of_name[ids]
    parent_safe = np.where(has_parent, parent, 0)
    entry = ~has_parent | (layer != layer[parent_safe])
    name_ids = {label: i for i, label in enumerate(tracer.names)}

    def named(label: str) -> np.ndarray:
        return ids == name_ids.get(label, -1)

    def span_ms(label: str) -> float:
        return 1e3 * float(dur[named(label)].sum())

    out: dict[str, float] = {}
    for index, short in enumerate(MODULES):
        mine = layer == index
        out[f"{short}.self_ms"] = 1e3 * float(self_time[mine].sum())
        out[f"{short}.calls"] = float(np.count_nonzero(mine & entry))
    phased = (layer == MODULES.index("fringes")) & entry
    out["fringes.phase_evals"] = float(extra[phased].sum())
    out["fringes.fit_ms"] = span_ms("fringes.fit_fringe")
    out["fisher.peak_ms"] = span_ms("fisher.find_peak")
    under_peak = has_parent & named("fisher.find_peak")[parent_safe]
    out["fisher.peak_evals"] = float(np.count_nonzero(under_peak))
    builds = named("fock.beam_splitter_matrix")
    out["fock.splitter_build_ms"] = 1e3 * float(dur[builds & (extra > 0)].sum())
    out["estimation.simulate_ms"] = span_ms("estimation.simulate_counts")
    out["estimation.direct_ms"] = span_ms("estimation.direct_fisher_from_data")
    out["estimation.mle_ms"] = span_ms("estimation.mle_phase")
    return out
