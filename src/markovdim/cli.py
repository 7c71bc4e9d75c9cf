"""Command-line front end.

Subcommands: pressure, dimension (hyperbolic|variational), spectrum-lyapunov
(alias figure1), spectrum-birkhoff, simulate, escape, validate.  Outputs are
CSV or JSON, deterministic given the config (timestamps only with --stamp),
and every artifact embeds the resolved configuration and tool version.

Each subcommand takes only the options it reads: ``--format`` only where
the output has a CSV and a JSON form, and ``--phi``/``--psi``/``--alpha``
only on ``dimension variational``.  ``dimension`` takes --lambda or --map.

Exit codes: 0 success, 2 domain/config errors, 3 non-convergence (partial
monotone results still written), 64 usage errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .empirics import escape_statistics, orbit_summaries_csv, simulate_orbit
from .errors import ConfigError, ConvergenceError, DomainError, MarkovDimError
from .markov import build_sv_map, load_map_config, read_config
from .potentials import (builtin_log_derivative, builtin_tail_potential, combine,
                         constant_potential, potential_from_config)
from .pressure import gurevich_pressure
from .spectrum import (alpha_bounds, bowen_dimension, curve_to_csv, full_birkhoff_spectrum_sv,
                       lyapunov_spectrum_curve, variational_dimension)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NOT_CONVERGED = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _spec_number(spec: str) -> float:
    """The finite number after the first ':' of a mini-language spec."""
    try:
        v = float(spec.split(":", 1)[1])
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise ConfigError(f"{spec!r} does not end in a finite number")
    return v


def _parse_map(spec: str):
    if spec.startswith("sv:"):
        return build_sv_map(_spec_number(spec))
    return load_map_config(spec)


def _parse_potential(spec: str, model):
    """Potential mini-language: logT | neg-t-logT:T | zero | const:V | tail:A | path.json"""
    if spec == "logT":
        return builtin_log_derivative(model)
    if spec.startswith("neg-t-logT:"):
        t = _spec_number(spec)
        logt = builtin_log_derivative(model)
        return combine(-t, logt, 0.0, constant_potential(1.0), 0.0, logt)
    if spec == "zero":
        return constant_potential(0.0)
    if spec.startswith("const:"):
        return constant_potential(_spec_number(spec))
    if spec.startswith("tail:"):
        return builtin_tail_potential(_spec_number(spec))
    return potential_from_config(spec)


def _emit(args, payload: str):
    if args.out in (None, "-"):
        sys.stdout.write(payload)
    else:
        with open(args.out, "w") as fh:
            fh.write(payload)


def _meta(args, extra: dict) -> dict:
    cfg = dict(extra)
    for k in ("nmax", "tol", "seed", "samples", "horizon", "format"):
        if hasattr(args, k):
            cfg[k] = getattr(args, k)
    meta = {"tool": "markovdim", "version": __version__, "config": cfg}
    if getattr(args, "stamp", False):
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return meta


def _header_lines(meta: dict) -> list[str]:
    lines = [f"tool: markovdim {meta['version']}",
             "config: " + json.dumps(meta["config"], sort_keys=True)]
    if "timestamp" in meta:
        lines.append(f"timestamp: {meta['timestamp']}")
    return lines


def _json_out(meta: dict, result: dict) -> str:
    return json.dumps({**meta, "result": result}, sort_keys=True) + "\n"


def _not_converged(per_level, tol: float) -> int:
    """Say on stderr why the command exits 3; the stdout body is untouched."""
    if len(per_level) < 2:
        n, v = per_level[-1]
        sys.stderr.write(f"not converged: only level N={n} ({v!r}) is available, "
                         f"tol {tol!r}\n")
    else:
        (n1, v1), (n2, v2) = per_level[-2:]
        sys.stderr.write(f"not converged: levels N={n1} and N={n2} give {v1!r} and "
                         f"{v2!r}, gap {abs(v2 - v1)!r} >= tol {tol!r}\n")
    return EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------
def _cmd_pressure(args) -> int:
    model = _parse_map(args.map)
    pot = _parse_potential(args.potential, model)
    res = gurevich_pressure(model, pot, args.tol, args.nmax)
    meta = _meta(args, {"map": args.map, "potential": args.potential, "command": "pressure"})
    if args.format == "json":
        _emit(args, _json_out(meta, res.to_dict()))
    else:
        lines = _header_lines(meta)
        body = ["N,P_N"] + [f"{n},{p!r}" for n, p in res.per_level]
        body.append(f"# value,{res.value!r}")
        body.append(f"# converged,{res.converged}")
        _emit(args, "\n".join([f"# {l}" for l in lines] + body) + "\n")
    return EXIT_OK if res.converged else _not_converged(res.per_level, args.tol)


def _cmd_hyperbolic(args) -> int:
    spec = args.map if args.lam is None else f"sv:{args.lam}"
    rep = bowen_dimension(_parse_map(spec), args.nmax, args.tol)
    meta = _meta(args, {"map": spec, "command": "dimension hyperbolic"})
    _emit(args, _json_out(meta, rep.to_dict()))
    return EXIT_OK if rep.converged else _not_converged(rep.per_level, args.tol)


def _cmd_variational(args) -> int:
    spec = args.map if args.lam is None else f"sv:{args.lam}"
    model = _parse_map(spec)
    phi = _parse_potential(args.phi, model)
    psi = _parse_potential(args.psi, model)
    pt = variational_dimension(model, phi, psi, args.alpha, args.nmax, args.tol)
    meta = _meta(args, {"map": spec, "phi": args.phi, "psi": args.psi, "alpha": args.alpha,
                        "command": "dimension variational"})
    result = {"alpha": pt.alpha, "dimension": pt.dimension, "bracket": list(pt.bracket),
              "q_star": pt.q_star, "delta_iterations": pt.delta_iterations, "source": pt.source,
              "hypothesis_unverified": not psi.is_constant()}
    _emit(args, _json_out(meta, result))
    return EXIT_OK


def _emit_curve(args, meta: dict, curve, N: int | None = None, tol: float | None = None) -> int:
    """Write a spectrum curve as JSON or as CSV (with ``N`` and ``tol`` columns)."""
    if args.format == "json":
        result = {"points": [[p.alpha, p.dimension, p.source] for p in curve.points],
                  "alpha_min": curve.alpha_min, "alpha_max": curve.alpha_max,
                  "discontinuities": [list(d) for d in curve.discontinuities]}
        _emit(args, _json_out(meta, result))
    else:
        _emit(args, curve_to_csv(curve, N=N, tol=tol, header_lines=_header_lines(meta)))
    return EXIT_OK


def _cmd_spectrum_lyapunov(args) -> int:
    curve = lyapunov_spectrum_curve(args.lam, points=args.points, t_max=args.t_max)
    meta = _meta(args, {"command": args.command, "lambda": args.lam,
                        "points": args.points, "t_max": args.t_max})
    return _emit_curve(args, meta, curve)


def _cmd_spectrum_birkhoff(args) -> int:
    model = _parse_map(f"sv:{args.lam}")
    phi = _parse_potential(args.phi, model)
    if args.grid_points < 1:
        raise DomainError(f"--grid-points must be >= 1, got {args.grid_points}")
    lo, hi = args.grid_min, args.grid_max
    if lo is None or hi is None:
        a_lo, a_hi = alpha_bounds(model, phi, constant_potential(1.0), args.nmax)
        span = a_hi - a_lo
        lo = a_lo + 0.02 * span if lo is None else lo
        hi = a_hi - 0.02 * span if hi is None else hi
    grid = np.linspace(lo, hi, args.grid_points)
    curve = full_birkhoff_spectrum_sv(args.lam, phi, grid, N=args.nmax, tol=args.tol)
    meta = _meta(args, {"map": f"sv:{args.lam}", "potential": args.phi,
                        "command": "spectrum-birkhoff",
                        "grid": [lo, hi, args.grid_points]})
    return _emit_curve(args, meta, curve, N=args.nmax, tol=args.tol)


def _cmd_simulate(args) -> int:
    rec = simulate_orbit(_parse_map(args.map), args.x0, args.horizon)
    meta = _meta(args, {"map": args.map, "command": "simulate", "x0": args.x0})
    result = {"start": rec.start, "classification": rec.classification,
              "steps": rec.steps, "itinerary": rec.itinerary.tolist(),
              "birkhoff_logT": rec.birkhoff_sums["logT"].tolist()}
    _emit(args, _json_out(meta, result))
    return EXIT_OK


def _cmd_escape(args) -> int:
    model = _parse_map(args.map)
    meta = _meta(args, {"map": args.map, "command": "escape"})
    if args.per_orbit:
        _emit(args, orbit_summaries_csv(model, args.samples, args.horizon, args.seed,
                                        header_lines=_header_lines(meta)))
    else:
        stats = escape_statistics(model, args.samples, args.horizon, args.seed)
        _emit(args, _json_out(meta, stats.to_dict()))
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = read_config(args.config)
    is_map = isinstance(cfg, dict) and ("branches" in cfg or "sv_lambda" in cfg)
    try:
        # a config that is not an object goes by path: a bare JSON string would read as one
        (load_map_config if is_map else potential_from_config)(
            cfg if isinstance(cfg, dict) else args.config)
        violations = []
    except ConfigError as exc:
        violations = exc.violations
    report = {"path": args.config, "violations": violations, "ok": not violations}
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return EXIT_OK if not violations else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="markovdim",
                description="Pressure, dimension, and multifractal spectra for "
                            "countable-Markov expanding interval maps")
    p.add_argument("--version", action="version", version=f"markovdim {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fmt_default=None):  # --format only where fmt_default is given
        sp.add_argument("--out", default="-", help="output path (default stdout)")
        if fmt_default is not None:
            sp.add_argument("--format", choices=("csv", "json"), default=fmt_default)
        sp.add_argument("--stamp", action="store_true",
                        help="include a timestamp header (off by default; outputs are "
                             "deterministic without it)")

    sp = sub.add_parser("pressure", help="pressure of a potential by increasing truncations")
    sp.add_argument("--map", required=True, help="sv:LAMBDA or a map-config path")
    sp.add_argument("--potential", required=True,
                    help="logT | neg-t-logT:T | zero | const:V | tail:A | config path")
    sp.add_argument("--nmax", type=int, default=1024)
    sp.add_argument("--tol", type=float, default=1e-8)
    common(sp, fmt_default="json")
    sp.set_defaults(fn=_cmd_pressure)

    kinds = sub.add_parser("dimension", help="hyperbolic (Bowen) or variational dimension"
                           ).add_subparsers(dest="kind", required=True)
    # default --nmax: the Bowen root needs N = 4096 for the README's tol 1e-5
    for kind, nmax, fn in (("hyperbolic", 4096, _cmd_hyperbolic),
                           ("variational", 512, _cmd_variational)):
        sp = kinds.add_parser(kind)
        source = sp.add_mutually_exclusive_group(required=True)
        source.add_argument("--lambda", dest="lam", type=float)
        source.add_argument("--map", help="sv:LAMBDA or a map-config path")
        if kind == "variational":
            sp.add_argument("--phi", default="logT")
            sp.add_argument("--psi", default="const:1")
            sp.add_argument("--alpha", type=float, required=True)
        sp.add_argument("--nmax", type=int, default=nmax, help=f"truncation level (default {nmax})")
        sp.add_argument("--tol", type=float, default=1e-5)
        common(sp)
        sp.set_defaults(fn=fn)

    # figure1 reproduces the paper's figure data under its own command name
    sp = sub.add_parser("spectrum-lyapunov", aliases=["figure1"],
                        help="closed-form Lyapunov spectrum sweep")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--t-max", dest="t_max", type=float, default=40.0)
    common(sp, fmt_default="csv")
    sp.set_defaults(fn=_cmd_spectrum_lyapunov)

    sp = sub.add_parser("spectrum-birkhoff", help="variational Birkhoff spectrum with "
                                                  "the escape value appended")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--phi", default="logT")
    sp.add_argument("--grid-min", type=float, default=None)
    sp.add_argument("--grid-max", type=float, default=None)
    sp.add_argument("--grid-points", type=int, default=21)
    sp.add_argument("--nmax", type=int, default=128)
    sp.add_argument("--tol", type=float, default=1e-3)
    common(sp, fmt_default="csv")
    sp.set_defaults(fn=_cmd_spectrum_birkhoff)

    sp = sub.add_parser("simulate", help="one orbit with itinerary and Birkhoff sums")
    sp.add_argument("--map", required=True)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--horizon", type=int, default=100)
    common(sp)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("escape", help="escape statistics over sampled orbits")
    sp.add_argument("--map", required=True)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--horizon", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--per-orbit", action="store_true", help="emit per-orbit CSV")
    common(sp)
    sp.set_defaults(fn=_cmd_escape)

    sp = sub.add_parser("validate", help="check a map or potential config without running")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=_cmd_validate)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NOT_CONVERGED
    except MarkovDimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
