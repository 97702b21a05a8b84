"""Span tracer that wraps library functions from outside the package.

A function is wrapped at every name its callers look it up by: ``md.step``
calls ``eval_field`` through the ``md`` module's globals, so the tracer
replaces ``md.eval_field`` and not only ``fields.eval_field``.  Spans are
aggregated in memory per name: call count, total time, and self time (the
total minus the time covered by nested spans).  Optional counters record
exact work counts from each call's arguments at the same boundary.

A lookup site that no longer exists is recorded as absent instead of
raising, so the harness keeps working when a refactor deletes or renames a
private helper.
"""

from __future__ import annotations

import importlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: Counter = field(default_factory=Counter)
    r_hist: Counter = field(default_factory=Counter)
    notes: list = field(default_factory=list)


@dataclass(frozen=True)
class Probe:
    """One traced function: its span name, lookup sites and work counter.

    ``sites`` are ``"module.attr"`` strings relative to the ``treverse``
    package.  ``counter(stats, args, kwargs, result)`` adds exact work
    counts and facts; ``result`` is None when the call raised.
    """

    name: str
    sites: tuple
    counter: object = None


class Tracer:
    """Installs span wrappers for a set of probes and aggregates their stats."""

    def __init__(self, probes, package: str = "treverse"):
        self.probes = list(probes)
        self.package = package
        self.stats = {p.name: SpanStats() for p in self.probes}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for probe in self.probes:
            for site in probe.sites:
                mod_name, _, attr = site.rpartition(".")
                try:
                    module = importlib.import_module(f"{self.package}.{mod_name}")
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(site)
                    continue
                setattr(module, attr, self._wrap(probe, original))
                self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, probe: Probe, fn):
        stats = self.stats[probe.name]
        stack = self._stack
        counter = probe.counter

        def traced(*args, **kwargs):
            result = None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if counter is not None:
                    counter(stats, args, kwargs, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", probe.name)
        return traced

    def snapshot(self) -> dict:
        """Plain-data copy of the aggregated stats."""
        return {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                   "counts": dict(s.counts),
                   "r_hist": {str(r): n for r, n in sorted(s.r_hist.items())},
                   "notes": list(s.notes)}
            for name, s in self.stats.items()
        }

    def reset(self) -> None:
        if self._installed:
            raise RuntimeError("reset while installed")
        for name in self.stats:
            self.stats[name] = SpanStats()
