#!/usr/bin/env python3
"""Run one markovdim benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload sv-lyapunov --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the CLI is run as ``python -m markovdim.cli`` with ``src`` on
PYTHONPATH.  The run repeats whole rounds of the workload's operations until
``--seconds`` are used (at least one round), checks every output against
a computation made apart from the program, and prints as its last stdout
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-layer ones, read from spans recorded around each
call (written to ``benchmarks/out/trace-<workload>-seed<seed>.json``).
Everything else goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
#: single-layer probes are short, so each repetition calls them this often
PROBE_REPEATS = 3


def _prepare_environment() -> None:
    """Runs before numpy is imported anywhere: BLAS threads held to the
    cores this process may use, the thread knob removed, the source tree on
    the path of this process and of every child."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("MARKOVDIM_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    op: object
    seconds: float
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def run_op(op, tracer=None) -> Outcome:
    """Time one call; a raised error or a non-zero CLI exit fails it, and a
    wrong output fails it too."""
    result, error = None, None
    with (tracer.span(op.span) if tracer else nullcontext()) as rec:
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # the run reports the failure and goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    returncode = getattr(result, "returncode", 0)
    if error is None and returncode != 0:
        error = "; ".join([f"exit {returncode}", *result.stderr.strip().splitlines()[-1:]])
    out = Outcome(op, seconds, error)
    if error is None:
        try:
            out.problems = op.check(result)
        except Exception as exc:  # a check that cannot read the output fails the op
            out.problems = [f"check raised {type(exc).__name__}: {exc}"]
        if rec is not None:
            rec.update(op.counts(result))
    return out


def run_round(ops, tracer=None) -> list[Outcome]:
    return [run_op(op, tracer) for op in ops]


def warm_up(ops) -> None:
    """One untimed call of each library call kind, so lazily built state is
    in place before timing.  CLI commands are not warmed: every one pays
    its own import, as users do."""
    seen = set()
    for op in ops:
        if op.is_cli or op.span in seen:
            continue
        seen.add(op.span)
        try:
            op.call()
        except Exception:  # the timed rounds report it
            pass


def library_seconds(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes if not o.op.is_cli)


def op_medians(rounds: list[list[Outcome]]) -> list[tuple[object, float]]:
    """Each operation of the round with its median time over the rounds;
    per-operation medians shed a slow outlier wherever it falls."""
    return [(round_[0].op, statistics.median(o.seconds for o in round_))
            for round_ in zip(*rounds)]


def repeat_for(seconds: float, body) -> list:
    """Call ``body`` at least once, and again while another call of median
    length still fits in ``seconds``."""
    start = time.perf_counter()
    results, lengths = [], []
    while True:
        t0 = time.perf_counter()
        results.append(body())
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return results


def report(outcomes: list[Outcome]) -> dict:
    failed = [o for o in outcomes if o.failed]
    shown = set()
    for o in failed:
        msg = o.error or "; ".join(o.problems)
        if (o.op.label, msg) not in shown:
            shown.add((o.op.label, msg))
            print(f"FAILED {o.op.label}: {msg}", file=sys.stderr)
    return {"correct": not any(o.problems for o in outcomes),
            "attempted": len(outcomes), "failed": len(failed)}


def _summary(outcomes: list[Outcome]) -> None:
    by_label: dict[str, list[float]] = {}
    for o in outcomes:
        by_label.setdefault(o.op.label, []).append(o.seconds)
    for label, times in by_label.items():
        print(f"  {statistics.median(times) * 1e3:10.1f} ms  x{len(times):<3} {label}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------
def _build(workload: str, seed: int, workdir: Path):
    import workloads
    return workloads.WORKLOADS[workload](seed, workloads.Cli(workdir, dict(os.environ)))


def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """In a fresh interpreter: import markovdim and build the workload's inputs."""
    start = time.perf_counter()
    import markovdim  # noqa: F401  (the import is what is timed)
    _build(workload, seed, workdir)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", workload, "--seed", str(seed),
                               "--workdir", str(workdir)],
                              capture_output=True, text=True, timeout=170, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------
def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    setup_s = measure_setup(workload, seed, workdir)
    wl = _build(workload, seed, workdir)
    ops = wl.ops()
    warm_up(ops)
    rounds = repeat_for(seconds, lambda: run_round(ops))
    outcomes = [o for r in rounds for o in r]
    _summary(outcomes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metric = lambda value, unit: {"value": value, "unit": unit}
    medians = op_medians(rounds)
    return {**report(outcomes), "metrics": {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(sum(t for op, t in medians if not op.is_cli), "s"),
        "cli_s": metric(statistics.mean(t for op, t in medians if op.is_cli), "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }}


def traced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Per-layer metrics.  Each repetition runs the workload's round once
    untraced and once traced, then its single-layer probes.  A per-layer
    metric the workload makes no span for is measured by running the
    matching calls of the first workload it is listed for."""
    from tracing import LAYER_METRICS, OVERHEAD, SPAN_COST, Tracer
    wl = _build(workload, seed, workdir)
    ops, probes = wl.ops(), wl.probes()
    own = {op.span for op in ops + probes}
    source = {m.name: workload if not own.isdisjoint(m.spans) else m.workloads[0]
              for m in LAYER_METRICS}
    needed: dict[str, set[str]] = {}
    for m in LAYER_METRICS:
        if source[m.name] != workload:
            needed.setdefault(source[m.name], set()).update(m.spans)

    def calls_of(home: str, spans: set[str]) -> list:
        other = _build(home, seed, workdir)
        return [op for op in other.ops() + other.probes() if op.span in spans]

    borrowed = {home: calls_of(home, spans) for home, spans in needed.items()}
    warm_up(ops + probes + [op for extra in borrowed.values() for op in extra])

    tracer = Tracer()
    pairs = []

    def repetition():
        k = len(pairs)
        plain = run_round(ops)
        tracer.run_id = f"{workload}/{seed}/round{k}"
        with tracer.span("round"):
            traced_round = run_round(ops, tracer)
        tracer.run_id = f"{workload}/{seed}/probes{k}"
        extra = run_round(probes * PROBE_REPEATS, tracer)
        for home, home_ops in borrowed.items():
            tracer.run_id = f"{home}/{seed}/borrowed{k}"
            extra += run_round(home_ops, tracer)
        pairs.append((library_seconds(plain), library_seconds(traced_round)))
        return plain + traced_round + extra

    outcomes = [o for rep in repeat_for(seconds, repetition) for o in rep]
    _summary(outcomes)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
    metrics = {}
    for m in LAYER_METRICS:
        spans = [s for s in tracer.spans
                 if s["name"] in m.spans and s["run"].startswith(source[m.name] + "/")]
        metrics[m.name] = {"value": m.value(spans), "unit": m.unit}
    overhead = statistics.median(t - u for u, t in pairs)
    metrics[OVERHEAD.name] = {"value": overhead, "unit": OVERHEAD.unit}
    # the round's own span plus one around each operation
    metrics[SPAN_COST.name] = {"value": (len(ops) + 1) * Tracer.span_cost(),
                               "unit": SPAN_COST.unit}
    return {**report(outcomes), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "markovdim" / "__init__.py").is_file():
        print(f"error: no markovdim source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    _prepare_environment()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.workdir)
        return 0
    import markovdim
    if Path(markovdim.__file__).resolve().parent != SRC / "markovdim":
        print(f"error: markovdim imported from {markovdim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(workloads.WORKLOADS)}")

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        mode = traced if args.trace else end_to_end
        result = mode(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
