"""Per-layer spans, installed from outside the program around its functions.

The program imports layer functions by name (``from .beliefs import
update_with_measurements``), so each module holds its own binding.  A
``Tracer`` replaces every binding a planning session or the rollout loop looks
up, so each call opens a span; the span's self time is its duration minus the
durations of the spans nested in it.  Which binding a call went through tells
planning from posterior inference: ``simulation``'s own
``update_with_measurements`` is inference, the ``planner`` and ``incremental``
bindings are planning.

Calls inside a planning session carry the session's prefix: ``fresh.`` for
the driver (the fresh planner) and ``incr.`` for the incremental shadow.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager

# Layers whose metrics are split by session prefix.
SESSION_LAYERS = (
    "beliefs.solve", "beliefs.update", "beliefs.propagate",
    "sampling.draw", "sampling.density",
    "planner.reward", "planner.objective",
)


class Span:
    __slots__ = ("name", "start", "child", "parent", "hinted")

    def __init__(self, name: str, start: float, parent: "Span | None",
                 hinted: bool) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.parent = parent
        self.hinted = hinted


class Tracer:
    """Span stack plus running sums, keyed by metric name.

    ``sums`` holds ``<key>.calls``, ``<key>.s`` (self seconds) and the
    counters below; ``per_layer`` in ``summary.py`` turns them into metrics.
    """

    def __init__(self, clock=time.perf_counter, gn_iter_cap: int = 60) -> None:
        self.clock = clock
        self.gn_iter_cap = gn_iter_cap
        self.stack: list[Span] = []
        self.prefix: str | None = None
        self.sums: Counter[str] = Counter()

    # -- spans ----------------------------------------------------------

    def open(self, name: str, hinted: bool = False) -> Span:
        span = Span(name, self.clock(), self.stack[-1] if self.stack else None,
                    hinted)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> float:
        """Pop ``span`` and return its self time."""
        if not self.stack or self.stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.stack.pop()
        duration = self.clock() - span.start
        if span.parent is not None:
            span.parent.child += duration
        return duration - span.child

    @contextmanager
    def session(self, prefix: str):
        """Attribute everything until exit to a ``fresh``/``incr`` session."""
        if self.prefix is not None:
            raise RuntimeError("planning sessions do not nest")
        self.prefix = prefix
        try:
            yield
        finally:
            self.prefix = None

    # -- recording --------------------------------------------------------

    def key(self, name: str) -> str | None:
        """Metric key of a span, or None when it is not counted."""
        if name in SESSION_LAYERS:
            return None if self.prefix is None else f"{self.prefix}.{name}"
        return name

    def record(self, span: Span, self_s: float, args: tuple, kwargs: dict,
               result) -> None:
        key = self.key(span.name)
        if key is not None:
            self.sums[key + ".calls"] += 1
            self.sums[key + ".s"] += self_s
        if span.name == "beliefs.solve":
            self._record_solve(span, self_s, key, len(args[0]), result[2],
                               kwargs.get("max_iter", self.gn_iter_cap))
        elif span.name == "incremental.rep_test":
            self.sums["incremental.rep_test.accepted"] += bool(result)

    def _record_solve(self, span: Span, self_s: float, key: str | None,
                      n_factors: int, iters: int, cap: int) -> None:
        parent = span.parent
        if parent is not None and parent.name == "simulation.infer":
            # inference time includes its own solve
            self.sums["simulation.infer.iters"] += iters
            self.sums["simulation.infer.s"] += self_s
        if key is None:
            return
        cap_hit = int(iters >= cap)
        self.sums[key + ".iters"] += iters
        self.sums[key + ".cap_hits"] += cap_hit
        # one whitening per factor per iteration, plus the covariance pass
        self.sums[key + ".linearizations"] += (iters + 1) * n_factors
        if parent is not None and parent.hinted:
            self.sums["incremental.resolve.calls"] += 1
            self.sums["incremental.resolve.iters"] += iters
            self.sums["incremental.resolve.cap_hits"] += cap_hit
            self.sums["incremental.resolve.s"] += self_s

    def wrap(self, fn, name: str, *, hinted: bool = False):
        """``fn`` inside a span; ``hinted`` marks calls passing ``init_hint``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, hinted and kwargs.get("init_hint") is not None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self_s = self.close(span)
            self.record(span, self_s, args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the layer functions in every module that looks them up."""
        from ixbsp import beliefs, incremental, planner, sampling, simulation

        self.gn_iter_cap = inspect.signature(
            beliefs.solve_factors).parameters["max_iter"].default
        targets = [
            (beliefs, "solve_factors", "beliefs.solve", False),
            (planner, "update_with_measurements", "beliefs.update", False),
            (incremental, "update_with_measurements", "beliefs.update", True),
            (simulation, "update_with_measurements", "simulation.infer", False),
            (simulation, "simulate_step", "simulation.step", False),
            (planner, "propagate", "beliefs.propagate", False),
            (incremental, "propagate", "beliefs.propagate", False),
            (planner, "sample_future_measurements", "sampling.draw", False),
            (planner, "most_likely_measurement", "sampling.draw", False),
            (incremental, "sample_future_measurements", "sampling.draw", False),
            (incremental, "sample_state_futures", "sampling.draw", False),
            (incremental, "most_likely_measurement", "sampling.draw", False),
            (sampling, "measurement_likelihood_density", "sampling.density", False),
            (incremental, "measurement_likelihood_density", "sampling.density", False),
            (planner, "reward_info_distance", "planner.reward", False),
            (planner, "objective", "planner.objective", False),
            (incremental, "mis_objective", "planner.objective", False),
            (incremental._CandidateScan, "closest", "incremental.scan", False),
            (incremental, "select_closest_branch", "incremental.select_branch", False),
            (incremental, "is_rep_sample", "incremental.rep_test", False),
            (incremental, "d_sqrt_j", "distances.sqrt_j", False),
        ]
        saved = []
        try:
            for owner, attr, name, hinted in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, hinted=hinted))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
