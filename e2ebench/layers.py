"""Per-layer instrumentation for the traced runs.

Nothing here is added to the program: the benchmark times calls into
public functions, wraps the maximality test that a constraint's public
``make_maxtest`` hands to the search, and reads the spans the program
already records under :func:`repro.obs.runtime.observing`.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List


class MaxtestTimer:
    """Calls, acceptances and seconds of the wrapped maximality tests."""

    def __init__(self):
        self.calls = 0
        self.accepted = 0
        self.seconds = 0.0

    def snapshot(self):
        return self.calls, self.seconds


@contextmanager
def timed_maxtests(timer: MaxtestTimer):
    """Make every (alpha, k) constraint built in the block hand out a
    timed maxtest. Searches constructed inside keep the wrapper after
    the block ends; code that builds its own maxtest later (the warm
    start's certify step) gets the plain one."""
    from repro.models.alpha_k import AlphaKConstraint

    original = AlphaKConstraint.make_maxtest

    def make_maxtest(self, kind):
        inner = original(self, kind)

        def maxtest(graph, members, params):
            started = time.perf_counter()
            accepted = inner(graph, members, params)
            timer.seconds += time.perf_counter() - started
            timer.calls += 1
            timer.accepted += bool(accepted)
            return accepted

        return maxtest

    AlphaKConstraint.make_maxtest = make_maxtest
    try:
        yield timer
    finally:
        AlphaKConstraint.make_maxtest = original


def take_spans(observer) -> List:
    """The observer's finished root spans; clears the tracer."""
    roots = list(observer.tracer.roots)
    observer.tracer.clear()
    return roots


def _walk(spans: Iterable, visit) -> None:
    for span in spans:
        if visit(span):
            _walk(span.children, visit)


def _sum_named(spans: Iterable, names) -> float:
    """Seconds in outermost spans named in *names*."""
    total = 0.0

    def visit(span) -> bool:
        nonlocal total
        if span.name in names:
            total += span.seconds
            return False
        return True

    _walk(spans, visit)
    return total


class SpanTotals:
    """Seconds per layer, accumulated over root spans."""

    def __init__(self):
        self.seconds: Dict[str, float] = {
            "reduce": 0.0,
            "enumerate": 0.0,
            "merge": 0.0,
            "compile": 0.0,
            "portfolio": 0.0,
        }

    def add(self, roots: Iterable) -> Dict[str, float]:
        """Accumulate one operation's spans; returns its serving spans'
        seconds (``request`` and ``update``)."""
        roots = list(roots)
        self.seconds["reduce"] += _sum_named(roots, {"reduce"})
        self.seconds["merge"] += _sum_named(roots, {"merge"})
        self.seconds["compile"] += _sum_named(roots, {"compile"})
        self.seconds["portfolio"] += _sum_named(roots, {"heuristic_portfolio"})

        def visit(span) -> bool:
            if span.name == "enumerate":
                # On the dict-of-sets path the lazy reduction runs inside
                # the search span; count it as reduction only.
                self.seconds["enumerate"] += span.seconds - _sum_named(
                    span.children, {"reduce"}
                )
                return False
            return True

        _walk(roots, visit)
        return {
            "request": _sum_named(roots, {"serve_request", "serve_grid"}),
            "update": _sum_named(roots, {"serve_update"}),
        }


def p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: List[float]) -> float:
    if len(values) < 10:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=10)[-1]
