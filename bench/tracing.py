"""Per-layer tracing of nlvtest, installed from outside the package.

Every public function of each layer module is replaced, in every nlvtest
namespace that binds it, by a wrapper that counts calls and times spans.  A
span's self time is its duration minus the spans of wrapped functions it
called, so self times partition the traced ops' wall time, apart from the
benchmark's own share, reported as ``driver``.

Methods below a microsecond (``UnitVector.dot``, ``UnitVector.__post_init__``,
200k+ calls per three suite ops) stay untimed: their cost lands in their
caller's self time.  Nothing in nlvtest waits on a queue, lock or I/O, so
no wait-time metrics exist.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# layer name -> module; ``checks`` is the private module behind `nlvtest check`.
LAYERS = {
    "cli": "nlvtest.cli",
    "checks": "nlvtest._checks",
    "inequality": "nlvtest.inequality",
    "leggett": "nlvtest.leggett",
    "quantum": "nlvtest.quantum",
    "simulate": "nlvtest.simulate",
    "sphere": "nlvtest.sphere",
}
METHODS = {"leggett": ("PureEnsemble.correlation",)}
UNTIMED = ("sphere.UnitVector.dot", "sphere.UnitVector.__post_init__")

# (function, statistics reported for it)
FUNCTION_METRICS = (
    ("quantum.outcome_probability", ("calls_per_op", "self_us")),
    ("quantum.parse_state", ("calls_per_op", "self_us")),
    ("quantum.correlation", ("calls_per_op", "self_us")),
    ("simulate.sample_quad", ("calls_per_op", "self_us")),
    ("simulate.run_experiment", ("self_us",)),
    ("simulate.estimate_C", ("self_us",)),
    ("inequality.l_n", ("calls_per_op", "self_us")),
    ("inequality.e_jn", ("self_us",)),
    ("inequality.discrete_average", ("calls_per_op", "self_us")),
    ("sphere.build_schedule", ("calls_per_op", "self_us")),
    ("sphere.rotate", ("calls_per_op",)),
    ("leggett.leggett_outcomes", ("calls_per_op", "self_us")),
    ("leggett.explicit_model_margin", ("self_us",)),
    ("leggett.PureEnsemble.correlation", ("calls_per_op",)),
    ("leggett.scan_explicit_model", ("self_ms",)),
    ("checks.lemma_suite", ("self_ms",)),
    ("checks.leggett_suite", ("self_ms",)),
)
UNITS = {"calls_per_op": "count", "self_us": "us", "self_ms": "ms", "self_ms_per_op": "ms"}
COUNTER_METRICS = {
    "simulate.poisson_draws_per_op": "count",
    "simulate.degenerate_ratio": "1",
    "simulate.floored_ratio": "1",
    "leggett.scan.candidates_checked": "count",
    "leggett.scan.checked_ratio": "1",
    "driver.self_ms_per_op": "ms",
    "trace.overhead_ratio": "1",
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    names = [f"{layer}.{stat}" for layer in LAYERS for stat in ("self_ms_per_op", "calls_per_op")]
    names += [f"{key}.{stat}" for key, stats in FUNCTION_METRICS for stat in stats]
    return names + list(COUNTER_METRICS)


class _CountingGenerator:
    """A numpy Generator that counts the Poisson variates it draws."""

    def __init__(self, generator, counts: Counter):
        self._generator = generator
        self._counts = counts

    def poisson(self, *args, **kwargs):
        draws = self._generator.poisson(*args, **kwargs)
        self._counts["poisson_draws"] += getattr(draws, "size", 1)
        return draws

    def __getattr__(self, name):
        return getattr(self._generator, name)


class Tracer:
    """Context manager that installs the wrappers and removes them on exit.

    ``stats[key]`` is [calls, self seconds] for key ``<layer>.<qualname>``;
    ``counts`` holds the counters read from arguments and return values.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if name == "nlvtest" or name.startswith("nlvtest.")]
        observers = {
            "simulate.sample_quad": self._count_quad,
            "simulate.subtract_accidentals": self._count_floored,
            "leggett.scan_explicit_model": self._count_scan,
        }
        for layer, module_name in LAYERS.items():
            module = sys.modules[module_name]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module_name:
                    key = f"{layer}.{name}"
                    wrapped = self._wrap(key, fn, observers.get(key))
                    for namespace in modules:
                        for attr, value in list(vars(namespace).items()):
                            if value is fn:
                                self._set(namespace, attr, wrapped)
            for qualname in METHODS.get(layer, ()):
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method, self._wrap(f"{layer}.{qualname}", vars(cls)[method]))
        numpy_random = importlib.import_module("numpy.random")  # numpy loads it lazily
        default_rng = numpy_random.default_rng
        self._set(numpy_random, "default_rng",
                  lambda *a, **k: _CountingGenerator(default_rng(*a, **k), self.counts))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, key: str, fn, observe=None):
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stat[0] += 1
                stat[1] += span - stack.pop()
                if stack:
                    stack[-1] += span
            if observe is not None:
                start = clock()
                observe(args, result)
                if stack:  # keeps the observer out of every layer's self time
                    stack[-1] += clock() - start
            return result

        return traced

    def _count_quad(self, args, quad) -> None:
        self.counts["quads"] += 1
        self.counts["degenerate_quads"] += quad.total == 0

    def _count_floored(self, args, adjusted) -> None:
        raw = adjusted.raw
        shift = args[1] * raw.duration
        self.counts["corrected_counts"] += 4
        self.counts["floored_counts"] += sum(
            c < shift for c in (raw.n_pp, raw.n_mm, raw.n_mp, raw.n_pm))

    def _count_scan(self, args, result) -> None:
        self.counts["scans"] += 1
        self.counts["scan_candidates"] += result.candidates_checked
        self.counts["scan_grid_pairs"] += result.grid_size ** 2

    def self_seconds(self) -> float:
        return sum(stat[1] for stat in self.stats.values())

    def metrics(self, ops: int, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for ``ops`` traced ops that took ``traced_s``
        seconds, against ``untraced_s`` for the same ops untraced."""
        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            stats = [s for key, s in self.stats.items() if key.split(".")[0] == layer]
            out[f"{layer}.self_ms_per_op"] = (sum(s[1] for s in stats) * 1e3 / ops, "ms")
            out[f"{layer}.calls_per_op"] = (sum(s[0] for s in stats) / ops, "count")
        for key, wanted in FUNCTION_METRICS:
            calls, self_s = self.stats.get(key, (0, 0.0))
            values = {"calls_per_op": calls / ops, "self_us": ratio(self_s * 1e6, calls),
                      "self_ms": ratio(self_s * 1e3, calls)}
            for stat in wanted:
                out[f"{key}.{stat}"] = (values[stat], UNITS[stat])
        c = self.counts
        values = {
            "simulate.poisson_draws_per_op": c["poisson_draws"] / ops,
            "simulate.degenerate_ratio": ratio(c["degenerate_quads"], c["quads"]),
            "simulate.floored_ratio": ratio(c["floored_counts"], c["corrected_counts"]),
            "leggett.scan.candidates_checked": ratio(c["scan_candidates"], c["scans"]),
            "leggett.scan.checked_ratio": ratio(c["scan_candidates"], c["scan_grid_pairs"]),
            "driver.self_ms_per_op": (traced_s - self.self_seconds()) * 1e3 / ops,
            "trace.overhead_ratio": traced_s / untraced_s,
        }
        out.update({name: (values[name], unit) for name, unit in COUNTER_METRICS.items()})
        return out
