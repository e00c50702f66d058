"""Layer trace: wrap the program's public functions from outside and record spans.

Each wrapped call records a span (operation id, span id, parent span id,
name, start, end). Spans stay in memory until the benchmark ends. A span's
self time is its duration minus the durations of its direct children.

``from .x import y`` copies a function into the importing module, so the
wrapper replaces every binding of the original object in every loaded
module of the package. ``InteractionSequence.total_unitary`` is a method
and is patched on the class. Calls through module attributes made at call
time (``cross_check`` importing ``heisenberg_evolve``) see the wrapper too.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _matmul_flops(d: int) -> int:
    """Real floating-point operations of one complex d x d matrix product."""
    return 8 * d**3


def _total_unitary_flops(seq, *args, **kwargs) -> int:
    if not seq.steps:
        return 0
    return (len(seq.steps) - 1) * _matmul_flops(seq.layout.total_dim)


def _conjugate_by_flops(op, *args, **kwargs) -> int:
    return 2 * _matmul_flops(op.layout.total_dim)


#: (module, attribute, computed-flops function or None); span names are
#: ``module.function``
TRACED: tuple[tuple[str, str, Callable | None], ...] = (
    ("tensor", "embed", None),
    ("tensor", "conjugate_by", _conjugate_by_flops),
    ("tensor", "partial_trace", None),
    ("tensor", "expectation", None),
    ("measure", "InteractionSequence.total_unitary", _total_unitary_flops),
    ("measure", "measurement_unitary", None),
    ("measure", "heisenberg_evolve", None),
    ("ghzm", "measurement_sequence", None),
    ("ghzm", "run_ghzm", None),
    ("eprb", "measurement_sequence", None),
    ("eprb", "run_eprb", None),
    ("labels", "support", None),
    ("labels", "acts_trivially_on", None),
    ("schrodinger", "schrodinger_evolve", None),
    ("schrodinger", "cross_check", None),
    ("lhv", "eprb_q_max", None),
    ("lhv", "ghz_constrained_sets", None),
    ("cli", "main", None),
    ("config", "finalize_manifest", None),
)

SPAN_NAMES = tuple(f"{m}.{a.rsplit('.', 1)[-1]}" for m, a, _ in TRACED)


@dataclass(frozen=True)
class Span:
    op: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    self_s: float
    flops: int


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        # open spans: [span id, time covered by finished children]
        self._stack: list[list] = []
        self._next_id = 0

    def _wrap(self, name: str, fn: Callable, flops: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            count = flops(*args, **kwargs) if flops is not None else 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.spans.append(Span(self.op, frame[0], parent[0] if parent else None,
                                       name, start, end, duration - frame[1], count))

        return traced

    @contextmanager
    def installed(self, package: str = "heisensim"):
        """Replace every traced function of ``package`` by its wrapper, and
        restore the originals on exit."""
        importlib.import_module(f"{package}.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        restore: list[tuple[object, str, object]] = []
        try:
            for (module_name, attr, flops), name in zip(TRACED, SPAN_NAMES):
                module = importlib.import_module(f"{package}.{module_name}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    restore.append((owner, method, original))
                    setattr(owner, method, self._wrap(name, original, flops))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, flops)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            restore.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and computed flops."""
        out = {name: {"calls": 0, "self_s": 0.0, "flops": 0} for name in SPAN_NAMES}
        for s in self.spans:
            t = out[s.name]
            t["calls"] += 1
            t["self_s"] += s.self_s
            t["flops"] += s.flops
        return out
