"""Spans around the calls into each layer, recorded from outside the program.

`Tracer.install` replaces each listed function by a wrapper at the name
its caller looks it up by (for example `totalcorr.measures.pure_marginal`
and `numpy.linalg.eigvalsh`), and `uninstall` puts the originals back.
A name the program no longer has is skipped. Each call records a span:
its layer, start, end, parent span and the operation it belongs to.
Spans stay in memory until `save`.
"""

from __future__ import annotations

import functools
import importlib
import math
from array import array
from time import perf_counter

import numpy as np

# (layer, module, attribute names): each attribute is wrapped where its caller finds it
TARGETS = (
    ("cli.main", "totalcorr.cli", ("main",)),
    ("states.build", "totalcorr.states", (
        "ghz", "w", "wbar", "cluster", "epr", "family1", "family2", "product",
        "random_density", "random_pure",
    )),
    ("states.build", "totalcorr.cli", ("epr_power",)),
    ("measures.measure", "totalcorr.measures", (
        "measure_O", "measure_M", "measure_S", "measure_MW", "measure_report",
    )),
    ("measures.measure", "totalcorr.roof", ("direct_measure",)),
    ("core.pure_marginal", "totalcorr.measures", ("pure_marginal",)),
    ("core.partial_trace_matrix", "totalcorr.measures", ("partial_trace_matrix",)),
    ("core.partial_trace_matrix", "totalcorr.roof", ("partial_trace_matrix",)),
    ("linalg.eigvalsh", "numpy.linalg", ("eigvalsh",)),
    ("roof.roof_minimize", "totalcorr.roof", ("roof_minimize",)),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))
SETUP = -1  # operation index of spans recorded while the inputs are built


class Tracer:
    def __init__(self):
        self.layer = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.matrices = array("l")  # matrices handed to eigvalsh; 0 elsewhere
        self.start = array("d")
        self.end = array("d")
        self.current_op = SETUP
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, module, names in TARGETS:
            mod = importlib.import_module(module)
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None:
                    setattr(mod, name, self._wrap(LAYERS.index(layer), fn))
                    self._saved.append((mod, name, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    def _wrap(self, layer_id: int, fn):
        count_matrices = LAYERS[layer_id] == "linalg.eigvalsh"
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.matrices.append(math.prod(np.shape(args[0])[:-2]) if count_matrices else 0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return span

    def arrays(self) -> dict[str, np.ndarray]:
        names = ("layer", "parent", "op", "matrices", "start", "end")
        return {name: np.asarray(getattr(self, name)) for name in names}

    def totals(self, ops: int) -> dict[str, float]:
        """Per-layer calls, eigvalsh matrices and self time, per operation.

        Self time is a span's duration minus the durations of its child
        spans. Spans recorded while the inputs were built are reported
        apart, under `setup.`, as totals for one build.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
        own = dur - covered
        in_ops = a["op"] >= 0
        out = {}
        for layer_id, layer in enumerate(LAYERS):
            sel = (a["layer"] == layer_id) & in_ops
            out[f"{layer}.calls"] = int(sel.sum()) / ops
            out[f"{layer}.self_s"] = float(own[sel].sum()) / ops
            if layer == "linalg.eigvalsh":
                out[f"{layer}.matrices"] = int(a["matrices"][sel].sum()) / ops
            if layer == "states.build":
                built = (a["layer"] == layer_id) & (a["op"] == SETUP)
                out["setup.states.build.calls"] = int(built.sum())
                out["setup.states.build.self_s"] = float(own[built].sum())
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, layers=np.array(LAYERS), **self.arrays())
