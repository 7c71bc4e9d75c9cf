"""Spans around the benchmark's calls into markovdim, and the per-layer
metrics read from them.

Spans are recorded by the benchmark's own wrappers, not inside the program:
each records its name, start, end, parent span and the id of the round it
belongs to, plus work counts read from the call's public result.  They stay
in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @staticmethod
    def span_cost(n: int = 20000) -> float:
        """Seconds one empty span costs, timed on a tracer of its own."""
        tracer = Tracer()
        start = time.perf_counter()
        for _ in range(n):
            with tracer.span("empty"):
                pass
        return (time.perf_counter() - start) / n

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=0))


# ---------------------------------------------------------------------------
# Aggregates over the spans of one name set
# ---------------------------------------------------------------------------
def _duration(s: dict) -> float:
    return s["end"] - s["start"]


def median_duration(spans: list[dict]) -> float:
    return statistics.median(_duration(s) for s in spans)


def median_count(key: str) -> Callable[[list[dict]], float]:
    return lambda spans: statistics.median(s[key] for s in spans)


def rate(key: str) -> Callable[[list[dict]], float]:
    """Total of a count over total busy time."""
    return lambda spans: sum(s[key] for s in spans) / sum(_duration(s) for s in spans)


def count_per_round(key: str) -> Callable[[list[dict]], float]:
    def agg(spans: list[dict]) -> float:
        by_round: dict[str, float] = {}
        for s in spans:
            by_round[s["run"]] = by_round.get(s["run"], 0) + s[key]
        return statistics.median(by_round.values())
    return agg


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric: an aggregate over the spans named ``spans``.

    ``workloads`` lists where the metric is expected to move, first the one
    whose inputs measure it when the traced workload makes no such span.
    """

    name: str
    unit: str
    better: str
    spans: tuple[str, ...]
    workloads: tuple[str, ...]
    value: Callable[[list[dict]], float] = median_duration


SV, TAIL, MC, DENSE = "sv-lyapunov", "sv-birkhoff-tail", "escape-mc", "custom-dense"
ALL = (SV, TAIL, MC, DENSE)
_BATCHES = ("empirics.batch_short", "empirics.batch_long", "empirics.finite_batch")


def _timed(name: str, span: str, *workloads: str) -> LayerMetric:
    return LayerMetric(name, "s", "lower", (span,), workloads)


def _cli(command: str, *workloads: str) -> LayerMetric:
    return _timed(f"cli.{command}_s", f"cli.{command}", *workloads)


LAYER_METRICS = (
    # whole library calls; wall_s sums their medians on the workloads that make them
    _timed("pressure_s", "pressure.gurevich", SV, DENSE),
    _timed("bowen_s", "spectrum.bowen", SV),
    _timed("spectrum_point_s", "spectrum.variational", SV, DENSE),
    _timed("spectrum_scan_s", "spectrum.full_birkhoff", TAIL),
    LayerMetric("orbit_steps_per_s", "steps/s", "higher", _BATCHES, (MC, DENSE), rate("steps")),
    # markov
    _timed("markov.truncate_s", "markov.truncate", SV, DENSE),
    _timed("markov.is_primitive_s", "markov.is_primitive", DENSE),
    # potentials
    _timed("potentials.values_vector_s", "potentials.values_vector", SV),
    # pressure
    _timed("pressure.perron_staircase_128_s", "pressure.perron_staircase_128", TAIL),
    _timed("pressure.perron_staircase_512_s", "pressure.perron_staircase_512", SV),
    _timed("pressure.perron_staircase_8192_s", "pressure.perron_staircase_8192", SV),
    _timed("pressure.perron_dense_s", "pressure.perron_dense", DENSE),
    _timed("pressure.orbit_sum_s", "pressure.orbit_sum", DENSE),
    LayerMetric("pressure.gurevich_levels", "count", "lower", ("pressure.gurevich",),
                (SV, DENSE), median_count("levels")),
    # spectrum
    _timed("spectrum.alpha_bounds_s", "spectrum.alpha_bounds", TAIL, DENSE, SV),
    _timed("spectrum.inf_pressure_over_q_s", "spectrum.inf_pressure_over_q", SV, DENSE),
    LayerMetric("spectrum.delta_iterations", "count", "lower", ("spectrum.variational",),
                (SV, DENSE), median_count("delta_iterations")),
    LayerMetric("spectrum.bowen_levels", "count", "lower", ("spectrum.bowen",), (SV,),
                median_count("levels")),
    # empirics
    LayerMetric("empirics.batch_short_steps_per_s", "steps/s", "higher",
                ("empirics.batch_short",), (MC,), rate("steps")),
    LayerMetric("empirics.batch_long_steps_per_s", "steps/s", "higher",
                ("empirics.batch_long",), (MC,), rate("steps")),
    LayerMetric("empirics.finite_batch_steps_per_s", "steps/s", "higher",
                ("empirics.finite_batch",), (DENSE,), rate("steps")),
    _timed("empirics.escape_statistics_s", "empirics.escape_statistics", MC),
    _timed("empirics.box_count_s", "empirics.box_count", MC),
    LayerMetric("empirics.orbit_steps", "count", "higher", _BATCHES, (MC, DENSE),
                count_per_round("steps")),
    # cli
    LayerMetric("cli.import_s", "s", "lower", ("cli.import",), ALL, median_count("import_s")),
    _cli("pressure", SV),
    _cli("dimension_hyperbolic", SV),
    _cli("dimension_variational", SV),
    _cli("spectrum_lyapunov", SV),
    _cli("figure1", SV),
    _cli("spectrum_birkhoff", TAIL),
    _cli("spectrum_birkhoff_tail", TAIL),
    _cli("simulate", MC),
    _cli("escape", MC),
    _cli("escape_per_orbit", MC),
    _cli("validate", DENSE),
    _cli("pressure_custom", DENSE),
)

#: traced minus untraced library time of one round, the median over the
#: repetitions of each pair's difference; it reads run-to-run noise whenever
#: that is larger than SPAN_COST
OVERHEAD = LayerMetric("trace_overhead_s", "s", "lower", (), ALL)
#: the spans of one traced round times the cost of one span, timed apart
SPAN_COST = LayerMetric("trace_span_cost_s", "s", "lower", (), ALL)
