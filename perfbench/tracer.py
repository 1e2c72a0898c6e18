"""Span tracing of lpsvm from outside the package.

`Tracer.install` replaces public lpsvm functions with timing wrappers in
every loaded lpsvm module that binds them, including names bound with
`from .x import y` (for example `lpsvm.metrics.train` or `lpsvm.cli.load_csv`).
Calls inside the package resolve module globals at call time, so they reach
the wrappers too.  Spans (name, start, end, parent) live in flat in-memory
arrays and are written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
import types
from array import array

import numpy as np

# Layer -> public functions whose calls become spans.  The CLI's subcommand
# handlers are traced so each README command gets its own span.
TRACED = {
    "core": ["augment", "slack", "decision_values"],
    "solver": ["train", "objective", "gradient"],
    "oracle": ["fd_gradient", "dual_cd_train", "kkt_check", "hinge_objective"],
    "data": ["gen_toy", "save_csv", "load_csv", "standardize", "kfold"],
    "metrics": ["run_comparison", "accuracy"],
    "cli": ["main", "cmd_gen_toy", "cmd_train", "cmd_eval", "cmd_cv", "cmd_compare",
            "cmd_figure", "save_model", "load_model"],
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # Facts recorded at two boundaries: (n, k, iterations, stop_reason)
        # per train call, and the byte size of every file load_csv parsed.
        self.fits: list[tuple[int, int, int, str]] = []
        self.loaded_bytes = 0
        self._stack = [-1]
        self._wrappers: dict[object, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _record_fit(self, args, result) -> None:
        dataset, trace = args[0], result[1]
        self.fits.append((dataset.n, dataset.k, trace.iterations, trace.stop_reason))

    def _record_load(self, args, result) -> None:
        self.loaded_bytes += os.path.getsize(args[0])

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        hook = {"solver.train": self._record_fit, "data.load_csv": self._record_load}.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever an lpsvm module binds it."""
        if not self._wrappers:
            for layer, funcs in TRACED.items():
                module = sys.modules[f"lpsvm.{layer}"]
                for func in funcs:
                    original = getattr(module, func)
                    self._wrappers[original] = self._wrap(original, f"{layer}.{func}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lpsvm" and not mod_name.startswith("lpsvm."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, self._wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Leave the calls made inside the block untraced."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so nested calls are counted once, in the innermost span.
        """
        if not self.start:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        nn = len(self.names)
        return {
            name: {"calls": int(c), "total_s": float(t), "self_s": float(s)}
            for name, c, t, s in zip(
                self.names,
                np.bincount(name_id, minlength=nn),
                np.bincount(name_id, weights=dur, minlength=nn),
                np.bincount(name_id, weights=self_time, minlength=nn),
            )
        }

    def write(self, path) -> None:
        """Save all spans as arrays: name index, parent index, start, end."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
