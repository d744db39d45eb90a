"""Span tracing by wrapping the package's public functions from outside.

`Tracer.install(pkg)` replaces each function in `TRACED` with a wrapper that
records a span (name, start, end, parent) and the counts the per-layer metrics
need; `uninstall()` puts the originals back.  Nothing inside the package
changes: the wrappers work because the package calls these functions through
module attributes (`eng.run_blockwise`, `mdl.accuracy`, a bare `train` inside
`engine`), which resolve to the patched module globals.

Spans are kept in memory; `write()` stores them once, at the end of a run.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import time
from collections import defaultdict

# (module, function) pairs wrapped by the tracer, in layer order.
TRACED = (
    ("harness", "run_experiment"),
    ("datasets", "load_idx"),
    ("datasets", "make_split"),
    ("accounting", "make_plan"),
    ("subspace", "build_basis"),
    ("subspace", "project_block"),
    ("subspace", "lift_block"),
    ("engine", "train"),
    ("engine", "coupled_retrain"),
    ("engine", "run_blockwise"),
    ("engine", "nft_step"),
    ("model", "loss_and_grad"),
    ("model", "accuracy"),
    ("model", "save_params"),
    ("audit", "compute_metrics"),
    ("audit", "mia_efficacy"),
)

_RUN_BLOCKWISE = "engine.run_blockwise"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._models: set[bytes] = set()

    # -- installation -----------------------------------------------------

    def install(self, pkg) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, func_name in TRACED:
            module = getattr(pkg, module_name)
            original = getattr(module, func_name)
            self._originals.append((module, func_name, original))
            setattr(module, func_name, self._wrap(f"{module_name}.{func_name}", original))

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._originals):
            setattr(module, func_name, original)
        self._originals.clear()

    def _wrap(self, name, func):
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(self, args, kwargs)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # -- counts -------------------------------------------------------------

    def _inside_run_blockwise(self) -> bool:
        return any(self.spans[i][0] == _RUN_BLOCKWISE for i in self._stack)

    def _count_accuracy(self, args, kwargs) -> None:
        labels = args[2] if len(args) > 2 else kwargs["labels"]
        self.counts["model.accuracy.rows"] += len(labels)
        if self._inside_run_blockwise():
            self.counts["engine.eval_rows"] += len(labels)

    def _count_loss_and_grad(self, args, kwargs) -> None:
        batch = args[1] if len(args) > 1 else kwargs["batch"]
        self.counts["model.loss_and_grad.rows"] += len(batch)
        if self._inside_run_blockwise():
            self.counts["engine.grad_rows"] += len(batch)

    def _count_save_params(self, args, kwargs) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["model.save_params.bytes"] += os.path.getsize(path)

    def _count_compute_metrics(self, args, kwargs) -> None:
        params = args[0] if args else kwargs["params"]
        self._models.add(hashlib.blake2b(params.values.tobytes(), digest_size=16).digest())
        self.counts["audit.models"] = len(self._models)

    # -- summaries ----------------------------------------------------------

    def reset(self) -> None:
        """Forget spans and counts (between rounds); keeps the installation."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()
        self.counts.clear()
        self._models.clear()

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total time, self time and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - children
            entry["calls"] += 1
        return out

    def write(self, path, spans) -> None:
        """Store spans as gzipped JSON: [[name, start, end, parent], ...]."""
        with gzip.open(path, "wt") as fh:
            json.dump([list(s) for s in spans], fh)


_COUNTERS = {
    "model.accuracy": Tracer._count_accuracy,
    "model.loss_and_grad": Tracer._count_loss_and_grad,
    "model.save_params": Tracer._count_save_params,
    "audit.compute_metrics": Tracer._count_compute_metrics,
}
