"""The benchmark's four workloads: inputs made from a seed, the operations
of one round, the checks on each operation's output, and the extra calls a
traced run makes into single layers.

Each workload is built so that a change on one solver path shows up on it
and leaves another workload unmoved:

* ``sv-lyapunov`` runs the staircase Perron root under its nested q, delta,
  Bowen and doubling layers; ``alpha_bounds`` short-circuits to the closed
  form there, so Karp does no work.
* ``sv-birkhoff-tail`` scans a tail potential with overrides, where
  ``alpha_bounds`` (Karp and its pure-Python finish, once per grid point)
  dominates.
* ``escape-mc`` has no Perron root at all: the vectorised SV step does the
  work.
* ``custom-dense`` takes the generic path: power iteration, dense Karp,
  scipy strong components and the finite-branch stepper.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import markovdim as md
import oracles as ref

LAMBDAS = (0.6, 0.75, 0.9)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------
def _no_problems(result) -> list[str]:
    return []


def _no_counts(result) -> dict:
    return {}


@dataclass
class Op:
    """One timed call: a public library function or one CLI command.

    ``span`` names the layer call (``pressure.gurevich``, ``cli.figure1``);
    ``check`` returns the problems found in the result (empty when correct);
    ``counts`` reads work counts from the public result for the trace.
    """

    span: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]] = _no_problems
    counts: Callable[[object], dict] = _no_counts

    @property
    def is_cli(self) -> bool:
        return self.span.startswith("cli.")


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str


class Cli:
    """Runs ``python -m markovdim.cli`` from the source tree, one command at a time."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env

    def run(self, argv: list[str]) -> CliResult:
        proc = subprocess.run([sys.executable, *argv], cwd=self.workdir, env=self.env,
                              capture_output=True, text=True, timeout=170)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def op(self, span: str, *args, check=_no_problems) -> Op:
        argv = ["-m", "markovdim.cli", *map(str, args)]
        return Op(span, "markovdim " + " ".join(map(str, args)), partial(self.run, argv), check)

    def import_op(self) -> Op:
        """A fresh interpreter's ``import markovdim``, timed inside the child."""
        code = ("import time; t = time.perf_counter(); import markovdim; "
                "print(time.perf_counter() - t)")
        return Op("cli.import", "python -c 'import markovdim'", partial(self.run, ["-c", code]),
                  counts=lambda r: {"import_s": float(r.stdout)})


def _close(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: got {got!r}, expected {want!r} within {tol:g}"]


def _nondecreasing(label: str, values, slack: float) -> list[str]:
    drops = [(a, b) for a, b in zip(values, values[1:]) if b < a - slack]
    return [f"{label}: decreases {drops[0][0]!r} -> {drops[0][1]!r}"] if drops else []


def _csv_rows(text: str) -> tuple[list[dict], list[str]]:
    """(rows, comment lines) of a markovdim CSV artefact."""
    lines = text.splitlines()
    comments = [l[2:] for l in lines if l.startswith("# ")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    return [dict(zip(header, l.split(","))) for l in body[1:]], comments


def _discontinuities(comments: list[str]) -> list[tuple[float, float, float]]:
    return [tuple(float(v) for v in c.split(",")[1:])
            for c in comments if c.startswith("discontinuity,")]


def _neg_t_logt(model, t: float):
    logt = md.builtin_log_derivative(model)
    return md.combine(-t, logt, 0.0, md.constant_potential(1.0), 0.0, logt)


def _levels(r) -> dict:
    return {"levels": len(r.per_level)}


def _delta_iterations(r) -> dict:
    return {"delta_iterations": r.delta_iterations}


def _steps(batch) -> dict:
    return {"steps": int(batch.steps.sum())}


@dataclass(frozen=True)
class _PerLevel:
    """The fields of a CLI JSON result the pressure and Bowen checks read."""

    value: float
    per_level: list

    @classmethod
    def of(cls, r: CliResult) -> "_PerLevel":
        res = json.loads(r.stdout)["result"]
        return cls(res["value"], res["per_level"])


# ---------------------------------------------------------------------------
# sv-lyapunov
# ---------------------------------------------------------------------------
@dataclass
class _SvCase:
    lam: float
    model: object
    logt: object
    one: object
    t_near: float
    t_far: float
    t_var: float


class SvLyapunov:
    """Pressure, Bowen roots and variational Lyapunov points of SV(lambda)."""

    PRESSURE_NMAX = 8192
    BOWEN = dict(N_max=1024, tol=1e-6)
    VARIATIONAL = dict(N=512, tol=1e-4)
    README_ALPHA = 2.3992

    def __init__(self, seed: int, cli: Cli):
        rng = np.random.default_rng([seed, 1])
        self.cli = cli
        self.cases = []
        for lam in LAMBDAS:
            model = md.build_sv_map(lam)
            tc = ref.sv_critical_t(lam)
            self.cases.append(_SvCase(lam, model, md.builtin_log_derivative(model),
                                      md.constant_potential(1.0),
                                      t_near=tc + rng.uniform(0.05, 0.25),
                                      t_far=tc + rng.uniform(2.0, 4.0),
                                      t_var=tc + rng.uniform(0.8, 1.2)))

    # -- checks -----------------------------------------------------------
    @staticmethod
    def _check_pressure(lam: float, t: float, r) -> list[str]:
        # per-level values carry the eigenvalue tolerance (1e-11 relative)
        return (_close(f"P(-{t:.4f} log|T'|) SV({lam})", r.value, ref.sv_pressure(lam, t), 1e-6)
                + _nondecreasing("per_level pressures", [p for _, p in r.per_level], 1e-10))

    @staticmethod
    def _check_bowen(lam: float, tol: float, r) -> list[str]:
        d_h = ref.sv_hyperbolic_dimension(lam)
        roots = [s for _, s in r.per_level]
        # roots are bisected to tol * 1e-2 on pressures accurate to ~1e-12
        above = [s for s in roots if s > d_h + tol * 1e-2 + 1e-9]
        return (_close(f"Bowen root SV({lam})", r.value, d_h, 1e-4)
                + _nondecreasing("Bowen roots", roots, 1e-9)
                + [f"Bowen root {s!r} above the hyperbolic dimension {d_h!r}" for s in above])

    @staticmethod
    def _check_variational(lam: float, t: float, tol: float, dimension: float) -> list[str]:
        want = ref.sv_lyapunov_dimension(lam, t)
        out = _close(f"V_N at alpha_{t:.4f} SV({lam})", dimension, want, 1e-3)
        if dimension > want + tol / 2:
            out.append(f"V_N {dimension!r} above the closed form {want!r} by more than tol/2")
        return out

    @staticmethod
    def _check_alpha_bounds(lam: float, r) -> list[str]:
        # log|T'| is -log(1-lambda) on branch 1 and the escape level on every other
        return (_close(f"alpha_m SV({lam})", r[0], -math.log(1.0 - lam), 1e-12)
                + _close(f"alpha_M SV({lam})", r[1], ref.sv_alpha_max(lam), 1e-12))

    def _check_cli_pressure(self, r: CliResult) -> list[str]:
        return self._check_pressure(0.9, 7.0, _PerLevel.of(r))

    def _check_cli_hyperbolic(self, r: CliResult) -> list[str]:
        return self._check_bowen(0.75, 1e-5, _PerLevel.of(r))

    def _check_cli_variational(self, r: CliResult) -> list[str]:
        res = json.loads(r.stdout)["result"]
        t = ref.sv_t_of_alpha(0.9, self.README_ALPHA)
        return self._check_variational(0.9, t, 1e-4, res["dimension"])

    def _check_cli_curve(self, name: str, r: CliResult) -> list[str]:
        rows, comments = _csv_rows((self.cli.workdir / name).read_text())
        lam = 0.9
        out = []
        for row in rows:
            alpha, dim = float(row["alpha"]), float(row["dimension"])
            if row["source"] == "CLOSED_FORM":
                want = ref.sv_lyapunov_dimension(lam, ref.sv_t_of_alpha(lam, alpha))
                out += _close(f"{name} row alpha={alpha!r}", dim, want, 1e-6)
        escape = [row for row in rows if row["source"] == "ESCAPE_VALUE"]
        if len(escape) != 1 or float(escape[0]["dimension"]) != 1.0:
            out.append(f"{name}: expected one ESCAPE_VALUE row of dimension 1")
        else:
            out += _close(f"{name} escape alpha", float(escape[0]["alpha"]),
                          ref.sv_alpha_max(lam), 1e-12)
        jumps = _discontinuities(comments)
        if len(jumps) != 1:
            out.append(f"{name}: expected one discontinuity, found {len(jumps)}")
        else:
            alpha, left, value = jumps[0]
            out += _close(f"{name} jump", value - left, 1.0 - ref.sv_hyperbolic_dimension(lam),
                          1e-4)
        return out

    # -- rounds -----------------------------------------------------------
    def ops(self) -> list[Op]:
        ops = []
        for c in self.cases:
            for t in (c.t_near, c.t_far):
                ops.append(Op("pressure.gurevich",
                              f"gurevich_pressure SV({c.lam}) t={t:.4f} N_max={self.PRESSURE_NMAX}",
                              partial(md.gurevich_pressure, c.model, _neg_t_logt(c.model, t),
                                      tol=1e-8, N_max=self.PRESSURE_NMAX),
                              partial(self._check_pressure, c.lam, t), _levels))
            ops.append(Op("spectrum.bowen", f"bowen_dimension SV({c.lam})",
                          partial(md.bowen_dimension, c.model, **self.BOWEN),
                          partial(self._check_bowen, c.lam, self.BOWEN["tol"]), _levels))
            alpha = ref.sv_alpha(c.lam, c.t_var)
            tol = self.VARIATIONAL["tol"]
            ops.append(Op("spectrum.variational",
                          f"variational_dimension SV({c.lam}) alpha={alpha:.6f}",
                          partial(md.variational_dimension, c.model, c.logt, c.one, alpha,
                                  **self.VARIATIONAL),
                          lambda r, c=c, tol=tol: self._check_variational(
                              c.lam, c.t_var, tol, r.dimension),
                          _delta_iterations))
        cli = self.cli
        ops += [
            cli.op("cli.pressure", "pressure", "--map", "sv:0.9", "--potential", "neg-t-logT:7",
                   "--nmax", 1024, "--tol", 1e-8, check=self._check_cli_pressure),
            cli.op("cli.dimension_hyperbolic", "dimension", "hyperbolic", "--lambda", 0.75,
                   "--tol", 1e-5, check=self._check_cli_hyperbolic),
            cli.op("cli.dimension_variational", "dimension", "variational", "--lambda", 0.9,
                   "--alpha", self.README_ALPHA, "--nmax", 512, "--tol", 1e-4,
                   check=self._check_cli_variational),
            cli.op("cli.spectrum_lyapunov", "spectrum-lyapunov", "--lambda", 0.9, "--points", 200,
                   "--out", "spectrum.csv",
                   check=partial(self._check_cli_curve, "spectrum.csv")),
            cli.op("cli.figure1", "figure1", "--lambda", 0.9, "--points", 200,
                   "--out", "figure1.csv", check=partial(self._check_cli_curve, "figure1.csv")),
        ]
        return ops

    def probes(self) -> list[Op]:
        c = self.cases[-1]
        n_max = self.PRESSURE_NMAX
        pot = _neg_t_logt(c.model, c.t_far)
        alpha = ref.sv_alpha(c.lam, c.t_var)
        delta = ref.sv_lyapunov_dimension(c.lam, c.t_var)
        big = md.truncate(c.model, n_max)
        return [
            Op("markov.truncate", f"truncate SV({c.lam}) N={n_max}",
               partial(md.truncate, c.model, n_max)),
            Op("potentials.values_vector", f"values_vector -t log|T'| N={n_max}",
               partial(pot.values_vector, n_max)),
            Op("pressure.perron_staircase_512", f"perron_pressure SV({c.lam}) N=512",
               partial(md.perron_pressure, md.truncate(c.model, 512), pot, 1e-12)),
            Op("pressure.perron_staircase_8192", f"perron_pressure SV({c.lam}) N={n_max}",
               partial(md.perron_pressure, big, pot, 1e-12)),
            Op("spectrum.alpha_bounds", f"alpha_bounds SV({c.lam}) log|T'| N=512 (closed form)",
               partial(md.alpha_bounds, c.model, c.logt, c.one, 512),
               partial(self._check_alpha_bounds, c.lam)),
            Op("spectrum.inf_pressure_over_q",
               f"inf_pressure_over_q SV({c.lam}) alpha={alpha:.6f} delta={delta:.6f} N=512",
               partial(md.inf_pressure_over_q, c.model, c.logt, c.one, alpha, delta, 512, 1e-5)),
            self.cli.import_op(),
        ]


# ---------------------------------------------------------------------------
# sv-birkhoff-tail
# ---------------------------------------------------------------------------
class SvBirkhoffTail:
    """Full Birkhoff spectrum of a tail potential with overrides on SV(0.9)."""

    LAM = 0.9
    N = 128
    TOL = 1e-3
    GRID_POINTS = 4

    def __init__(self, seed: int, cli: Cli):
        rng = np.random.default_rng([seed, 2])
        self.cli = cli
        self.tail = rng.uniform(1.9, 2.1)
        self.overrides = {1: rng.uniform(0.9, 1.1), 2: rng.uniform(1.4, 1.6)}
        self.phi = md.builtin_tail_potential(self.tail, self.overrides)
        lo, hi = self.overrides[1], self.tail
        k = np.arange(1, self.GRID_POINTS + 1) / (self.GRID_POINTS + 1)
        self.grid = lo + (hi - lo) * (k + rng.uniform(-0.02, 0.02, self.GRID_POINTS))
        self.config = "tail_potential.json"
        (cli.workdir / self.config).write_text(json.dumps(
            {"depth": 1, "default": self.tail,
             "overrides": {str(s): v for s, v in self.overrides.items()}}))
        self.model = md.build_sv_map(self.LAM)
        self.last_scan = None

    def _values(self) -> np.ndarray:
        v = np.full(self.N, self.tail)
        for s, x in self.overrides.items():
            v[s - 1] = x
        return v

    def _check_points(self, points, tail: float, discontinuities) -> list[str]:
        d_h = ref.sv_hyperbolic_dimension(self.LAM)
        out = [f"VARIATIONAL point alpha={p[0]!r} has dimension {p[1]!r} outside "
               f"[0, {d_h!r} + tol/2]" for p in points
               if p[2] == "VARIATIONAL" and not 0.0 <= p[1] <= d_h + self.TOL / 2]
        escape = [p for p in points if p[2] == "ESCAPE_VALUE"]
        if len(escape) != 1 or escape[0][0] != tail or escape[0][1] != 1.0:
            out.append(f"expected one ESCAPE_VALUE point (alpha={tail!r}, 1), got {escape}")
        if len(discontinuities) != 1 or discontinuities[0][0] != tail \
                or discontinuities[0][2] != 1.0:
            out.append(f"expected one discontinuity at {tail!r}, got {discontinuities}")
        return out

    def _check_scan(self, curve) -> list[str]:
        self.last_scan = curve
        values = self._values()
        out = (_close("alpha_min", curve.alpha_min, float(values.min()), 1e-12)
               + _close("alpha_max", curve.alpha_max, float(values.max()), 1e-12))
        points = [(p.alpha, p.dimension, p.source) for p in curve.points]
        out += self._check_points(points, self.tail, curve.discontinuities)
        # the critical pressure at the deepest grid point, from eigvals on the
        # dense weighted matrix: the bisected dimension is within tol of the
        # root and the pressure moves by at most max log|T'| per unit delta
        var = [p for p in curve.points if p.source == "VARIATIONAL" and p.dimension > 0.0]
        if not var:
            return out + ["no VARIATIONAL point of positive dimension"]
        p = max(var, key=lambda p: p.dimension)
        log_slopes = ref.sv_log_slopes(self.LAM, self.N)
        logw = p.q_star * (values - p.alpha) - p.dimension * log_slopes
        pressure = ref.log_spectral_radius(ref.sv_matrix(self.N), logw)
        return out + _close(f"P(q*, V) at alpha={p.alpha!r}", pressure, 0.0,
                            2.0 * float(log_slopes.max()) * self.TOL + 1e-9)

    def _check_cli_lyapunov_scan(self, r: CliResult) -> list[str]:
        rows, comments = _csv_rows(r.stdout)
        points = [(float(x["alpha"]), float(x["dimension"]), x["source"]) for x in rows]
        alpha_max = ref.sv_alpha_max(self.LAM)
        out = self._check_points(points, alpha_max, _discontinuities(comments))
        if len(points) != 22:
            out.append(f"expected 21 grid points plus the escape value, got {len(points)}")
        for alpha, dim, source in points:
            if source == "VARIATIONAL":
                want = ref.sv_lyapunov_dimension(self.LAM, ref.sv_t_of_alpha(self.LAM, alpha))
                if dim > want + self.TOL / 2:
                    out.append(f"V_128({alpha!r}) = {dim!r} above the closed form {want!r}")
        return out

    def _check_cli_tail_scan(self, r: CliResult) -> list[str]:
        rows, comments = _csv_rows(r.stdout)
        points = [(float(x["alpha"]), float(x["dimension"]), x["source"]) for x in rows]
        out = self._check_points(points, self.tail, _discontinuities(comments))
        if self.last_scan is not None:
            lib = {p.alpha: p.dimension for p in self.last_scan.points}
            for alpha, dim, source in points:
                if source == "VARIATIONAL" and lib.get(alpha) != dim:
                    out.append(f"CLI dimension {dim!r} at alpha={alpha!r} differs from the "
                               f"library scan's {lib.get(alpha)!r}")
        return out

    def ops(self) -> list[Op]:
        return [
            Op("spectrum.full_birkhoff",
               f"full_birkhoff_spectrum_sv {self.LAM} tail={self.tail:.4f} "
               f"{self.GRID_POINTS} points N={self.N}",
               partial(md.full_birkhoff_spectrum_sv, self.LAM, self.phi, self.grid,
                       N=self.N, tol=self.TOL),
               self._check_scan),
            self.cli.op("cli.spectrum_birkhoff", "spectrum-birkhoff", "--lambda", self.LAM,
                        "--grid-points", 21, "--nmax", self.N,
                        check=self._check_cli_lyapunov_scan),
            self.cli.op("cli.spectrum_birkhoff_tail", "spectrum-birkhoff", "--lambda", self.LAM,
                        "--phi", self.config, "--grid-min", repr(float(self.grid[0])),
                        "--grid-max", repr(float(self.grid[-1])), "--grid-points", 2,
                        "--nmax", self.N, check=self._check_cli_tail_scan),
        ]

    def probes(self) -> list[Op]:
        one = md.constant_potential(1.0)
        logt = md.builtin_log_derivative(self.model)
        alpha = float(self.grid[len(self.grid) // 2])
        pot = md.combine(-1.0, self.phi, alpha, one, 0.5, logt)
        return [
            Op("pressure.perron_staircase_128", f"perron_pressure SV({self.LAM}) N={self.N}",
               partial(md.perron_pressure, md.truncate(self.model, self.N), pot, 1e-12)),
            Op("spectrum.alpha_bounds", f"alpha_bounds tail potential N={self.N}",
               partial(md.alpha_bounds, self.model, self.phi, one, self.N)),
            self.cli.import_op(),
        ]


# ---------------------------------------------------------------------------
# escape-mc
# ---------------------------------------------------------------------------
class EscapeMc:
    """Monte-Carlo escape statistics, orbit batches and box counts on SV(lambda)."""

    SAMPLES = 10_000
    HORIZON = 1000
    SHORT = (20_000, 60)      # lanes, horizon: every lane still resolvable
    LONG = (2_000, 3000)      # most lanes cross 1e-300 and step analytically
    BOX = dict(eps_window=0.02, samples=4000, n=400,
               grid_levels=[2.0 ** -k for k in range(4, 9)])

    def __init__(self, seed: int, cli: Cli):
        rng = np.random.default_rng([seed, 3])
        self.cli = cli
        self.seed = int(rng.integers(0, 2 ** 31))
        self.short = 1.0 - rng.random(self.SHORT[0])
        self.long = 1.0 - rng.random(self.LONG[0])
        self.x0 = float(rng.uniform(0.05, 0.95))
        self.models = {lam: md.build_sv_map(lam) for lam in LAMBDAS}
        self.stats = {}

    def _check_escape(self, lam: float, st) -> list[str]:
        self.stats[lam] = st
        out = []
        if sum(st.counts.values()) != self.SAMPLES:
            out.append(f"escape counts {st.counts} do not sum to {self.SAMPLES}")
        if st.mean_tail_logt_escapers is None:
            return out + ["no escaping orbits"]
        return out + _close(f"escapers' tail mean SV({lam})", st.mean_tail_logt_escapers,
                            ref.sv_alpha_max(lam), 0.01)

    def _check_batch(self, lam: float, x0: np.ndarray, n: int, lanes: int, b) -> list[str]:
        """simulate_orbit must reproduce the batch on a subsample: equal
        itineraries and step counts, and deep (-1) steps only after a scalar
        orbit is certified escaping."""
        model = self.models[lam]
        out = []
        for i in range(lanes):
            rec = md.simulate_orbit(model, float(x0[i]), n)
            k = rec.steps
            if not np.array_equal(b.itineraries[i, :k], rec.itinerary):
                out.append(f"lane {i}: batch and scalar itineraries differ")
            elif rec.classification == "ESCAPING" and k < n:
                if b.steps[i] != n or not (b.itineraries[i, k:] == -1).all():
                    out.append(f"lane {i}: certified escaper not continued analytically")
            elif b.steps[i] != k:
                out.append(f"lane {i}: batch steps {b.steps[i]} != scalar steps {k}")
        return out

    def _check_box(self, lam: float, r) -> list[str]:
        return _close(f"box-count slope at the escape level SV({lam})", r.slope, 1.0, 0.15)

    def _check_cli_simulate(self, r: CliResult) -> list[str]:
        res = json.loads(r.stdout)["result"]
        it = res["itinerary"]
        out = [f"itinerary step {a} -> {b} not admissible"
               for a, b in zip(it, it[1:]) if a > 1 and b < a - 1]
        sums = np.concatenate([[0.0], np.cumsum(ref.sv_log_slopes(0.9, max(it))[np.array(it) - 1])])
        if len(res["birkhoff_logT"]) != len(it) + 1 or \
                not np.allclose(res["birkhoff_logT"], sums, rtol=1e-12, atol=1e-12):
            out.append("Birkhoff sums of log|T'| do not match the itinerary")
        return out

    def _check_cli_escape(self, r: CliResult) -> list[str]:
        res = json.loads(r.stdout)["result"]
        lib = self.stats.get(0.9)
        if lib is not None and res != json.loads(lib.to_json()):
            return ["CLI escape statistics differ from the library's for the same seed"]
        return []

    def _check_cli_per_orbit(self, r: CliResult) -> list[str]:
        rows, _ = _csv_rows(r.stdout)
        out = [] if len(rows) == self.SAMPLES else [f"{len(rows)} rows, expected {self.SAMPLES}"]
        lib = self.stats.get(0.9)
        if lib is not None:
            counts = {k: sum(1 for x in rows if x["classification"] == k) for k in lib.counts}
            if counts != lib.counts:
                out.append(f"per-orbit classifications {counts} != library counts {lib.counts}")
        return out

    def ops(self) -> list[Op]:
        ops = []
        for lam, model in self.models.items():
            logt = md.builtin_log_derivative(model)
            one = md.constant_potential(1.0)
            ops += [
                Op("empirics.escape_statistics", f"escape_statistics SV({lam})",
                   partial(md.escape_statistics, model, self.SAMPLES, self.HORIZON, self.seed),
                   partial(self._check_escape, lam)),
                Op("empirics.batch_short", f"simulate_batch SV({lam}) {self.SHORT}",
                   partial(md.simulate_batch, model, self.short, self.SHORT[1],
                           collect_itineraries=True),
                   partial(self._check_batch, lam, self.short, self.SHORT[1], 20), _steps),
                Op("empirics.batch_long", f"simulate_batch SV({lam}) {self.LONG}",
                   partial(md.simulate_batch, model, self.long, self.LONG[1],
                           collect_itineraries=True),
                   partial(self._check_batch, lam, self.long, self.LONG[1], 3), _steps),
                Op("empirics.box_count", f"box_count_level_set SV({lam})",
                   partial(md.box_count_level_set, model, logt, one, ref.sv_alpha_max(lam),
                           seed=self.seed, **self.BOX),
                   partial(self._check_box, lam)),
            ]
        cli = self.cli
        escape = ("escape", "--map", "sv:0.9", "--samples", self.SAMPLES,
                  "--horizon", self.HORIZON, "--seed", self.seed)
        ops += [
            cli.op("cli.simulate", "simulate", "--map", "sv:0.9", "--x0", repr(self.x0),
                   "--horizon", 100, check=self._check_cli_simulate),
            cli.op("cli.escape", *escape, check=self._check_cli_escape),
            cli.op("cli.escape_per_orbit", *escape, "--per-orbit",
                   check=self._check_cli_per_orbit),
        ]
        return ops

    def probes(self) -> list[Op]:
        return [self.cli.import_op()]


# ---------------------------------------------------------------------------
# custom-dense
# ---------------------------------------------------------------------------
def dense_map(rng: np.random.Generator, m: int, core: int) -> tuple[np.ndarray, np.ndarray]:
    """(transitions, slopes) of a primitive explicit map on ``m`` equal branches.

    Branch i has integer slope k_i and maps onto k_i adjacent branches, so
    every image length matches its targets exactly.  Branches 3..core map
    inside the first ``core`` branches and form a primitive block; branches
    1 and 2 map onto branches core - 1 and up, so no leading truncation
    {1..N} with N < core - 1 is primitive.  The remaining branches are
    placed at starts spaced at most 2 apart, so every branch is some
    image's target.
    """
    while True:
        k = rng.integers(2, 5, size=m)
        k[:core] = rng.integers(2, 4, size=core)
        start = np.empty(m, dtype=np.int64)
        start[0], start[1] = core - 2, core - 1
        start[2:core] = [rng.integers(0, core - k[i] + 1) for i in range(2, core)]
        rest = rng.permutation(np.arange(core, m))
        start[rest] = np.minimum(np.round(np.linspace(0, m - 2, len(rest))).astype(np.int64),
                                 m - k[rest])
        adj = np.zeros((m, m), dtype=bool)
        for i in range(m):
            adj[i, start[i]:start[i] + k[i]] = True
        if ref.is_primitive(adj) and ref.is_primitive(adj[2:core, 2:core]):
            return adj, k


@dataclass
class _DenseCase:
    adj: np.ndarray
    slopes: np.ndarray
    model: object
    phi: object
    phi_values: np.ndarray
    t: float
    alpha: float
    x0: np.ndarray
    bowen: float | None = None


class CustomDense:
    """Explicit-matrix custom maps: the generic Perron, Karp and stepper paths."""

    MAPS = 3
    MAP_STREAM = 20131003
    BRANCHES = 64
    CORE = 10
    ORBIT_PERIOD = 24
    TOL = 1e-3
    BATCH = (2000, 100)

    def __init__(self, seed: int, cli: Cli):
        # Power iteration needs 85 to 270 steps per root depending on each
        # map's spectral gap, so maps drawn per seed would spread the timings
        # far beyond the bounds.  The maps and potentials therefore come from
        # one fixed generator stream; the seed draws the pressure exponents,
        # the orbit start points and nothing whose cost depends on a gap.
        maps = np.random.default_rng(self.MAP_STREAM)
        rng = np.random.default_rng([seed, 4])
        self.cli = cli
        self.one = md.constant_potential(1.0)
        self.cases = []
        m = self.BRANCHES
        for _ in range(self.MAPS):
            adj, slopes = dense_map(maps, m, self.CORE)
            branches = [md.make_branch(i + 1, i / m, (i + 1) / m, float(slopes[i]))
                        for i in range(m)]
            model = md.build_custom_map(branches, adj)
            values = maps.uniform(0.5, 1.5, m)
            phi = md.TablePotential({(i + 1,): float(v) for i, v in enumerate(values)})
            lo, hi = ref.min_cycle_mean(adj, values), ref.max_cycle_mean(adj, values)
            self.cases.append(_DenseCase(adj, slopes, model, phi, values,
                                         t=float(rng.uniform(0.5, 1.5)),
                                         alpha=float(lo + 0.4 * (hi - lo)),
                                         x0=1.0 - rng.random(self.BATCH[0])))
        first = self.cases[0]
        self.config = "dense_map.json"
        (cli.workdir / self.config).write_text(json.dumps({
            "branches": [{"index": i + 1, "left": i / m, "right": (i + 1) / m,
                          "slope": float(first.slopes[i])} for i in range(m)],
            "transitions": first.adj.tolist()}))

    def _core(self, c: _DenseCase):
        """The primitive block of branches 3..core as its own subsystem, with
        -t log|T'| relabelled onto it."""
        block = c.adj[2:self.CORE, 2:self.CORE]
        logw = -c.t * np.log(c.slopes[2:self.CORE].astype(float))
        pot = md.TablePotential({(i + 1,): float(v) for i, v in enumerate(logw)})
        return md.TruncatedSubsystem(size=len(block), dense=np.ascontiguousarray(block)), pot, \
            block, logw

    @staticmethod
    def _check_pressure(c: _DenseCase, r) -> list[str]:
        want = ref.log_spectral_radius(c.adj, -c.t * np.log(c.slopes.astype(float)))
        return _close(f"P(-{c.t:.4f} log|T'|)", r.value, want, 1e-8)

    @staticmethod
    def _check_alpha_bounds(c: _DenseCase, r) -> list[str]:
        return (_close("alpha_min", r[0], ref.min_cycle_mean(c.adj, c.phi_values), 1e-9)
                + _close("alpha_max", r[1], ref.max_cycle_mean(c.adj, c.phi_values), 1e-9))

    def _check_variational(self, c: _DenseCase, r) -> list[str]:
        if c.bowen is None:
            c.bowen = ref.bowen_root(c.adj, np.log(c.slopes.astype(float)))
        if not 0.0 <= r.dimension <= c.bowen + self.TOL / 2:
            return [f"V_N {r.dimension!r} outside [0, Bowen root {c.bowen!r} + tol/2]"]
        return []

    def _check_orbit_sum(self, c: _DenseCase, value: float) -> list[str]:
        _, _, block, logw = self._core(c)
        n = self.ORBIT_PERIOD
        perron = ref.log_spectral_radius(block, logw)
        mass, gap = ref.perron_projection(block, logw, 0)
        bias = math.log(1.0 / mass) / n + 2.0 * gap ** n / (mass * n) + 1e-9
        return _close(f"orbit-sum pressure, period {n}", value, perron, bias)

    def _check_batch(self, c: _DenseCase, b, lanes: int = 20) -> list[str]:
        out = []
        for i in range(lanes):
            rec = md.simulate_orbit(c.model, float(c.x0[i]), self.BATCH[1])
            if b.steps[i] != rec.steps or not np.array_equal(
                    b.itineraries[i, :rec.steps], rec.itinerary):
                out.append(f"lane {i}: batch and scalar orbits differ")
            elif bool(b.aborted[i]) != (rec.classification == "BOUNDARY_ABORT"):
                out.append(f"lane {i}: batch and scalar disagree on the boundary abort")
        return out

    def _check_cli_validate(self, r: CliResult) -> list[str]:
        rep = json.loads(r.stdout)
        return [] if rep["ok"] and rep["violations"] == [] else [f"validate: {rep}"]

    def _check_cli_pressure(self, r: CliResult) -> list[str]:
        return self._check_pressure(self.cases[0], _PerLevel.of(r))

    def ops(self) -> list[Op]:
        ops = []
        m = self.BRANCHES
        for j, c in enumerate(self.cases):
            sub, core_pot, _, _ = self._core(c)
            ops += [
                Op("pressure.gurevich", f"gurevich_pressure dense map {j} t={c.t:.4f}",
                   partial(md.gurevich_pressure, c.model, _neg_t_logt(c.model, c.t),
                           tol=1e-8, N_max=m),
                   partial(self._check_pressure, c), _levels),
                Op("spectrum.alpha_bounds", f"alpha_bounds dense map {j}",
                   partial(md.alpha_bounds, c.model, c.phi, self.one, m),
                   partial(self._check_alpha_bounds, c)),
                Op("spectrum.variational", f"variational_dimension dense map {j}",
                   partial(md.variational_dimension, c.model, c.phi, self.one, c.alpha, m,
                           self.TOL),
                   partial(self._check_variational, c), _delta_iterations),
                Op("pressure.orbit_sum", f"orbit_sum_pressure dense map {j} core",
                   partial(md.orbit_sum_pressure, sub, core_pot, self.ORBIT_PERIOD, 1),
                   partial(self._check_orbit_sum, c)),
                Op("empirics.finite_batch", f"simulate_batch dense map {j} {self.BATCH}",
                   partial(md.simulate_batch, c.model, c.x0, self.BATCH[1],
                           collect_itineraries=True),
                   partial(self._check_batch, c), _steps),
            ]
        first = self.cases[0]
        ops += [
            self.cli.op("cli.validate", "validate", "--config", self.config,
                        check=self._check_cli_validate),
            self.cli.op("cli.pressure_custom", "pressure", "--map", self.config, "--potential",
                        f"neg-t-logT:{first.t!r}", "--nmax", m, "--tol", 1e-8,
                        check=self._check_cli_pressure),
        ]
        return ops

    def probes(self) -> list[Op]:
        c = self.cases[0]
        m = self.BRANCHES
        sub = md.truncate(c.model, m)
        delta = 0.5
        return [
            Op("markov.truncate", f"truncate dense map N={m}", partial(md.truncate, c.model, m)),
            Op("markov.is_primitive", f"is_primitive dense map N={m}",
               partial(md.is_primitive, sub)),
            Op("pressure.perron_dense", f"perron_pressure dense map N={m}",
               partial(md.perron_pressure, sub, _neg_t_logt(c.model, c.t), 1e-12)),
            Op("spectrum.inf_pressure_over_q",
               f"inf_pressure_over_q dense map alpha={c.alpha:.6f} delta={delta}",
               partial(md.inf_pressure_over_q, c.model, c.phi, self.one, c.alpha, delta, m,
                       1e-5)),
            self.cli.import_op(),
        ]


WORKLOADS = {
    "sv-lyapunov": SvLyapunov,
    "sv-birkhoff-tail": SvBirkhoffTail,
    "escape-mc": EscapeMc,
    "custom-dense": CustomDense,
}
