"""Span tracing installed from outside the package.

Wrappers replace the module attributes that rotorkick's own callers
resolve at call time (``optimize`` reaches ``quantum.observable_scan``
through the module, ``run_sequence`` reaches it through the quantum
module's globals), so every internal call passes through a span. The
re-exports in ``rotorkick/__init__`` are bound at import time and are
not what internal callers use, so they are left alone.

Each span is ``(name, start, end, parent)`` with ``parent`` the index of
the enclosing span or -1. Spans stay in memory until :meth:`Tracer.dump`.
The process is single-threaded, so the children of one span never
overlap and their durations sum to the part of the parent they cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) -> span name. A span's layer is the part before ".".
TRACED = (
    ("rotorkick.optimize", "optimize", "optimize.optimize"),
    ("rotorkick.optimize", "evaluate_objective", "optimize.evaluate_objective"),
    ("rotorkick.classical", "two_kick_observable", "classical.two_kick_observable"),
    ("rotorkick.classical", "classical_observable", "classical.classical_observable"),
    ("rotorkick.classical", "propagate_classical", "classical.propagate_classical"),
    ("rotorkick.classical", "_refine", "classical.refine"),
    ("rotorkick.classical", "make_ensemble", "classical.make_ensemble"),
    ("rotorkick.classical", "roots_legendre", "classical.roots_legendre"),
    ("rotorkick.quantum", "run_sequence", "quantum.run_sequence"),
    ("rotorkick.quantum", "observable_scan", "quantum.observable_scan"),
    ("rotorkick.quantum", "apply_kick", "quantum.apply_kick"),
    ("rotorkick.quantum", "kick_operator", "quantum.kick_operator"),
    ("rotorkick.quantum", "eigh_tridiagonal", "quantum.eigh_tridiagonal"),
    ("rotorkick.cli", "main", "cli.main"),
)


class Tracer:
    """In-memory span recorder plus the counts taken at the same wrappers."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        hooks = {
            "classical.refine": self._count_passes,
            "classical.make_ensemble": self._note_nodes,
            "quantum.observable_scan": self._note_scan,
            "quantum.kick_operator": self._note_basis,
        }
        for module_name, attr, name in TRACED:
            module = sys.modules[module_name]
            setattr(module, attr,
                    self._wrap(getattr(module, attr), name, hooks.get(name)))

    def _wrap(self, fn, name: str, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if hook is not None:
                args = hook(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()

        return span

    # hooks run before the span opens; each returns the positional
    # arguments to call with, so a hook can interpose on a callback

    def _count_passes(self, args, kwargs):
        values_fn = args[0]
        counts = self.counts

        def counted(ens):
            theta = values_fn(ens)
            counts["quad_passes"] += 1
            counts["quad_bytes"] += 8 * theta.size
            return theta

        return (counted,) + tuple(args[1:])

    def _note_nodes(self, args, kwargs):
        n = args[0] if args else kwargs["n_nodes"]
        self.maxima["nodes"] = max(self.maxima["nodes"], int(n))
        return args

    def _note_scan(self, args, kwargs):
        psi, dts = args[0], args[2] if len(args) > 2 else kwargs["dts"]
        points = int(np.size(dts))
        self.counts["scan_points"] += points
        self.counts["scan_ops"] += points * psi.l_max
        self.maxima["l_max"] = max(self.maxima["l_max"], psi.l_max)
        return args

    def _note_basis(self, args, kwargs):
        l_max = args[1] if len(args) > 1 else kwargs["l_max"]
        self.maxima["l_max"] = max(self.maxima["l_max"], int(l_max))
        return args

    def span_cost(self) -> float:
        """Seconds one span adds to a call, timed on a no-op function.

        The fastest of five rounds, each 20 000 plain calls against 20 000
        wrapped ones, in a separate tracer so this run's spans are left
        alone. Hooks add to this; it is the floor.
        """
        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap(noop, "noop", None)
        best = float("inf")
        for _ in range(5):
            probe.spans.clear()
            t0 = time.perf_counter()
            for _ in range(20000):
                noop()
            t1 = time.perf_counter()
            for _ in range(20000):
                wrapped()
            t2 = time.perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / 20000)
        return max(best, 0.0)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)

    def layer_metrics(self, stagnated: int, bytes_out: int) -> dict[str, float]:
        """Per-layer metrics from the spans and counts (values only)."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        child_calls: defaultdict = defaultdict(Counter)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start
            if parent >= 0:
                pname = self.spans[parent][0]
                self_time[pname] -= end - start
                child_calls[pname][(parent, name)] += 1
        growths = sum(n - 1 for (_, child), n
                      in child_calls["quantum.apply_kick"].items()
                      if child == "quantum.kick_operator")

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def layer_self(layer: str) -> float:
            return sum(v for k, v in self_time.items()
                       if k.startswith(layer + "."))

        evals = calls["optimize.evaluate_objective"]
        ens_calls = calls["classical.make_ensemble"]
        builds = calls["classical.roots_legendre"]
        passes = self.counts["quad_passes"]
        return {
            "quantum.scan_calls": calls["quantum.observable_scan"],
            "quantum.scan_points": self.counts["scan_points"],
            "quantum.scan_s": total["quantum.observable_scan"],
            "quantum.scan_calls_per_eval": ratio(
                calls["quantum.observable_scan"], evals),
            "quantum.scan_ops_computed": self.counts["scan_ops"],
            "quantum.eigh_builds": calls["quantum.eigh_tridiagonal"],
            "quantum.kick_operator_s": total["quantum.kick_operator"],
            "quantum.apply_kick_s": total["quantum.apply_kick"],
            "quantum.basis_growths": growths,
            "quantum.l_max_max": self.maxima["l_max"],
            "classical.legendre_builds": builds,
            "classical.ensemble_calls": ens_calls,
            "classical.ensemble_hit_ratio": ratio(ens_calls - builds, ens_calls),
            "classical.ensemble_s": total["classical.make_ensemble"],
            "classical.two_kick_s": total["classical.two_kick_observable"],
            "classical.propagate_s": total["classical.propagate_classical"],
            "classical.quad_passes": passes,
            "classical.quad_useful_ratio": ratio(calls["classical.refine"], passes),
            "classical.nodes_max": self.maxima["nodes"],
            "classical.quad_bytes_computed": self.counts["quad_bytes"],
            "optimize.calls": calls["optimize.optimize"],
            "optimize.evals": evals,
            "optimize.eval_ms": 1e3 * ratio(
                total["optimize.evaluate_objective"], evals),
            "optimize.self_s": layer_self("optimize"),
            "optimize.stagnated": stagnated,
            "cli.calls": calls["cli.main"],
            "cli.self_s": layer_self("cli"),
            "cli.bytes_out": bytes_out,
            "trace.spans": len(self.spans),
            "trace.span_cost_s": len(self.spans) * self.span_cost(),
        }
