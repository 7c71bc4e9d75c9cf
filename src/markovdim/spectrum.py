"""Multifractal spectra through the pressure characterization.

For a quotient of Birkhoff averages with numerator phi and positive
denominator psi, the dimension of the level set at an interior level alpha
(restricted to the recurrent part) equals

    V(alpha) = sup{ delta : inf_q  P(q (phi - alpha psi) - delta log|T'|) > 0 },

so the engine nests three solved problems: a Perron root per potential, a
convex minimization over q, and a monotone bisection over delta in [0, 1].
All pressures are truncation values, which approximate the countable-system
pressure from below; the resulting dimensions are monotone nondecreasing in
the truncation level.

For the built-in family everything has a closed form: the pressure g(t) of
-t log|T'|, the level parameterization alpha_t = -g'(t), the spectrum value
g(t)/alpha_t + t, and the full-spectrum discontinuity at the tail average,
where the escaping set forces dimension 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateError, DomainError, MixingError, UnboundedError, require_above
from .markov import MarkovMapModel, TruncatedSubsystem, build_sv_map, truncate
from .potentials import TablePotential, builtin_log_derivative, constant_potential
from .pressure import (PressureResult, _bisect, _exhaust, _log_rho_solver,
                       closed_form_pressure_sv, sv_critical_exponent)

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_Q_LIMIT = 1e6
#: relative Perron-root tolerance of every pressure in a (q, delta) search
_EIG_TOL = 1e-12


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SpectrumPoint:
    """One sample (alpha, dimension) of a spectrum.

    ``q_star`` is the minimizer of the pressure in q at the critical delta
    (None for closed-form and escape-value points); ``delta_iterations``
    counts the bisection steps that produced the dimension bracket.
    """

    alpha: float
    dimension: float
    q_star: float | None
    delta_iterations: int
    source: str  # VARIATIONAL | CLOSED_FORM | ESCAPE_VALUE

    def __post_init__(self):
        if not (-1e-12 <= self.dimension <= 1.0 + 1e-12):
            raise DomainError(f"dimension {self.dimension} outside [0, 1]")


@dataclass
class SpectrumCurve:
    """Sorted spectrum samples plus any recorded discontinuities.

    Each discontinuity is a triple (alpha, left_limit, value) with
    |value - left_limit| exceeding ten times the dimension tolerance used
    to compute the curve.
    """

    points: list[SpectrumPoint]
    alpha_min: float
    alpha_max: float
    discontinuities: list[tuple[float, float, float]] = field(default_factory=list)

    def __post_init__(self):
        alphas = [p.alpha for p in self.points]
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise DomainError("spectrum points must be strictly sorted by alpha")


# ---------------------------------------------------------------------------
# Closed forms for the built-in family
# ---------------------------------------------------------------------------
def sv_alpha_bounds(lam: float) -> tuple[float, float]:
    """Exact Lyapunov-average bounds (-log(1-lambda), -log(lambda(1-lambda)))."""
    if not (0.5 < lam < 1.0):
        raise DomainError(f"lambda must lie in (1/2, 1), got {lam}")
    return (-math.log(1.0 - lam), -math.log(lam * (1.0 - lam)))


def sv_hyperbolic_dimension(lam: float) -> float:
    """Dimension of the recurrent part: -log 4 / log(lambda(1-lambda))."""
    if not (0.5 < lam < 1.0):
        raise DomainError(f"lambda must lie in (1/2, 1), got {lam}")
    return -math.log(4.0) / math.log(lam * (1.0 - lam))


def sv_alpha_of_t(lam: float, t: float) -> float:
    """Level parameterization alpha_t = -log(1-lambda) - lambda^t log(lambda)/(1-lambda^t)."""
    lt = lam ** t
    return -math.log(1.0 - lam) - lt * math.log(lam) / (1.0 - lt)


def lyapunov_closed_form(lam: float, t: float) -> SpectrumPoint:
    """Exact Lyapunov-spectrum point for the built-in family at parameter t.

    Valid for t strictly above the critical exponent -log2/log(lambda);
    the dimension is g(t)/alpha_t + t with g the closed-form pressure.
    """
    t_c = sv_critical_exponent(lam)
    if t <= t_c:
        raise DomainError(f"need t > {t_c:.6f}, got {t}")
    g = closed_form_pressure_sv(lam, t)
    alpha_t = sv_alpha_of_t(lam, t)
    return SpectrumPoint(alpha=alpha_t, dimension=g / alpha_t + t, q_star=None,
                         delta_iterations=0, source="CLOSED_FORM")


# ---------------------------------------------------------------------------
# Cycle-mean machinery for alpha bounds
# ---------------------------------------------------------------------------
def _karp_min_cycle_mean(sub: TruncatedSubsystem, cost: np.ndarray) -> float:
    """Minimum cycle mean of source-node costs over the subsystem digraph.

    Karp's formula on shortest k-edge walk weights from node 1, relaxed
    over the dense transition matrix.  ``_beyond`` needs it only when no node
    beyond its level has a self-loop, which never happens on a staircase.
    """
    return _karp_finish(_karp_table(sub.matrix, cost))


def _karp_table(m: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Row k holds the least cost of a k-edge walk from node 1 to each node."""
    n = m.shape[0]
    inf = math.inf
    table = np.full((n + 1, n), inf)
    table[0, 0] = 0.0
    mask = m.astype(bool)
    for k in range(1, n + 1):
        t = table[k - 1] + cost
        cand = np.where(mask, t[:, None], inf)
        table[k] = cand.min(axis=0)
    return table


def _karp_finish(table: np.ndarray) -> float:
    """min over j of max over k of (D_n(j) - D_k(j)) / (n - k), finite entries only."""
    n = table.shape[1]
    head, dn = table[:n], table[n]
    with np.errstate(invalid="ignore"):
        quot = (dn - head) / (n - np.arange(n))[:, None]
    worst = np.where(np.isfinite(head), quot, -math.inf).max(axis=0)
    worst = worst[np.isfinite(dn) & (worst > -math.inf)]
    if worst.size == 0 or not math.isfinite(worst.min()):
        raise MixingError("no cycle reachable from the base symbol")
    return float(worst.min())


def _beyond(sub: TruncatedSubsystem, phi_v: np.ndarray, psi_v: np.ndarray, alpha: float,
            above: bool) -> bool:
    """Whether some cycle quotient sum(phi)/sum(psi) lies above ``alpha`` (below
    it unless ``above``).  Quotients are psi-weighted averages of the node
    ratios, so a node must lie beyond alpha, and one with a self-loop settles
    it; otherwise Karp's min cycle mean of -/+(phi - alpha psi) must be negative.
    The vectors may stop early on a staircase, whose later nodes repeat
    the last value.  Every node of a staircase truncation has a self-loop,
    so no mask of them is built there."""
    ratios = phi_v / psi_v
    beyond = ratios > alpha if above else ratios < alpha
    if not beyond.any():
        return False
    if sub.rule is not None or sub.self_loops[beyond].any():
        return True
    sign = -1.0 if above else 1.0
    return _karp_min_cycle_mean(sub, sign * (phi_v - alpha * psi_v)) < 0.0


def _extreme_cycle_ratio(sub: TruncatedSubsystem, phi_v: np.ndarray, psi_v: np.ndarray,
                         maximize: bool) -> float:
    """Extreme of (sum phi / sum psi) over cycles.

    It lies between the extreme node ratios, and a self-loop at an extreme
    node attains that end exactly.  Otherwise :func:`_beyond` is bisected."""
    ratios = phi_v / psi_v
    lo, hi = float(ratios.min()), float(ratios.max())
    if hi - lo <= 1e-15:
        return lo
    end = hi if maximize else lo
    if sub.rule is not None or sub.self_loops[ratios == end].any():
        return end
    # a is at or above the extreme when no cycle lies above it (max) or some lies below (min)
    return _bisect(lambda a: _beyond(sub, phi_v, psi_v, a, above=maximize) != maximize,
                   lo, hi, lambda h: 1e-13 * max(1.0, abs(h)))[0]


def alpha_bounds(model: MarkovMapModel, phi: TablePotential, psi: TablePotential,
                 N: int) -> tuple[float, float]:
    """Estimates of the extreme Birkhoff quotients (alpha_m, alpha_M).

    Computed as the min/max of cycle quotients sum(phi)/sum(psi) over the
    N-truncation (attained on simple cycles).  When the symbol with the
    extreme ratio phi_i/psi_i has a self-loop, as every symbol of a
    staircase truncation does, that ratio is the exact extreme and is
    returned as is; otherwise Karp's cycle mean is bisected to ~1e-13.
    Either way these are inner estimates of the countable system's
    endpoints that grow with N.  For the built-in family with
    phi = log|T'| and psi = 1 the node ratios are log|T'| itself, so the
    self-loop rule returns the exact endpoints ``sv_alpha_bounds(lam)``.
    """
    return _bounds(_PressureEvaluator(model, phi, psi, N))


def _bounds(ev: _PressureEvaluator) -> tuple[float, float]:
    """``alpha_bounds`` on the truncation and value vectors ``ev`` holds."""
    return (_extreme_cycle_ratio(ev.sub, ev.phi_v, ev.psi_v, maximize=False),
            _extreme_cycle_ratio(ev.sub, ev.phi_v, ev.psi_v, maximize=True))


# ---------------------------------------------------------------------------
# Pressure evaluation reused across a (q, delta) search
# ---------------------------------------------------------------------------
class _PressureEvaluator:
    """Caches the truncation, its Perron routine and the component value
    vectors for repeated evaluations of q (phi - alpha psi) - delta log|T'|
    pressures.  The vectors hold the symbols the routine reads: on a
    staircase, the largest head of the three plus one tail symbol."""

    def __init__(self, model: MarkovMapModel, phi: TablePotential, psi: TablePotential, N: int):
        if psi.positivity_floor is None:
            raise DomainError("denominator potential must carry a positivity floor")
        self.sub = truncate(model, N)
        logt = builtin_log_derivative(model)
        length, self._log_rho = _log_rho_solver(self.sub, max(phi.head, psi.head, logt.head))
        self.phi_v = phi.values_vector(length)
        self.psi_v = psi.values_vector(length)
        self.logt_v = logt.values_vector(length)

    def pressure(self, q: float, alpha: float, delta: float) -> float:
        logw = q * (self.phi_v - alpha * self.psi_v) - delta * self.logt_v
        return self._log_rho(logw, _EIG_TOL)


def _minimize_over_q(h, tol: float) -> tuple[float, float]:
    """Bracket a minimum of the convex function h by doubling expansion from
    (-1, 0, 1), then golden-section to width ``tol``.  Raises UnboundedError
    if no bracket forms within |q| <= 1e6."""
    a, b, c = -1.0, 0.0, 1.0
    fa, fb, fc = h(a), h(b), h(c)
    span = 1.0
    while fa < fb:
        a, b, c, fb, fc = a - 2.0 * span, a, b, fa, fb
        span *= 2.0
        if abs(a) > _Q_LIMIT:
            raise UnboundedError("no minimum in q within |q| <= 1e6 (alpha at or beyond edge)")
        fa = h(a)
    span = 1.0
    while fc < fb:
        a, b, c, fa, fb = b, c, c + 2.0 * span, fb, fc
        span *= 2.0
        if abs(c) > _Q_LIMIT:
            raise UnboundedError("no minimum in q within |q| <= 1e6 (alpha at or beyond edge)")
        fc = h(c)
    x1 = c - _GOLD * (c - a)
    x2 = a + _GOLD * (c - a)
    f1, f2 = h(x1), h(x2)
    while c - a > tol:
        if f1 <= f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - _GOLD * (c - a)
            f1 = h(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLD * (c - a)
            f2 = h(x2)
    q = 0.5 * (a + c)
    return h(q), q


def inf_pressure_over_q(model: MarkovMapModel, phi: TablePotential, psi: TablePotential,
                        alpha: float, delta: float, N: int,
                        tol: float) -> tuple[float, float]:
    """Minimum over q of the truncated pressure of q(phi - alpha psi) - delta log|T'|.

    Returns (inf_value, q_star).  The function of q is convex; the minimum
    is located by doubling expansion plus golden section to q-tolerance
    ``tol``.  An UnboundedError signals that alpha sits at or beyond the
    edge of the truncated spectrum.
    """
    require_above("tol", tol, 0.0)
    if not (0.0 <= delta <= 1.0):
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    ev = _PressureEvaluator(model, phi, psi, N)
    return _minimize_over_q(lambda q: ev.pressure(q, alpha, delta), tol)


def variational_dimension(model: MarkovMapModel, phi: TablePotential, psi: TablePotential,
                          alpha: float, N: int, tol: float) -> SpectrumPoint:
    """Level-set dimension V(alpha) at truncation N, to bracket width <= tol.

    Bisects delta in [0, 1] on the sign of the q-infimum of the pressure.
    The expansion bound makes that infimum strictly decreasing in delta, so
    the threshold is well-defined; it is approached from below as N grows.
    Two :func:`_beyond` tests check that alpha is interior; the bounds are
    computed only to name them in the DomainError.
    """
    require_above("tol", tol, 0.0)
    ev = _PressureEvaluator(model, phi, psi, N)
    if not (_beyond(ev.sub, ev.phi_v, ev.psi_v, alpha, above=False)
            and _beyond(ev.sub, ev.phi_v, ev.psi_v, alpha, above=True)):
        lo_a, hi_a = _bounds(ev)
        raise DomainError(f"alpha = {alpha} outside the open interval ({lo_a}, {hi_a})")
    return _variational_point(ev, alpha, tol)


def _variational_point(ev: _PressureEvaluator, alpha: float, tol: float) -> SpectrumPoint:
    """``variational_dimension`` at an alpha known to be interior, with the
    truncation's evaluator supplied, so a scan builds it once for all its points."""
    q_tol = max(min(tol * 1e-1, 1e-5), 1e-8)
    q_star = None

    def at_or_above(delta: float) -> bool:
        nonlocal q_star
        value, q_star = _minimize_over_q(lambda q: ev.pressure(q, alpha, delta), q_tol)
        return not value > 0.0

    # a level set invisible at this truncation has the dimension estimate 0
    dimension, iterations = (0.0, 0) if at_or_above(0.0) else \
        _bisect(at_or_above, 0.0, 1.0, lambda h: tol)
    return SpectrumPoint(alpha=alpha, dimension=dimension, q_star=q_star,
                         delta_iterations=iterations, source="VARIATIONAL")


# ---------------------------------------------------------------------------
# Bowen roots
# ---------------------------------------------------------------------------
def bowen_dimension(model: MarkovMapModel, N_max: int, tol: float) -> PressureResult:
    """Hyperbolic-dimension estimate: per-level Bowen roots of P_N(-s log|T'|).

    P_N is strictly decreasing in s, positive at s = 0 (else the level is
    degenerate: DegenerateError), and nonpositive at s = 1 for branches
    inside a bounded interval, so bisection on [0, 1] is safe.  The roots
    increase with N toward the supremum over compact invariant subsets.
    Levels whose truncation is not primitive are skipped, as in
    ``gurevich_pressure``; MixingError is raised only when no level is
    primitive.  The result has ``method`` BOWEN.
    """
    logt = builtin_log_derivative(model)
    rel_tol = min(tol * 1e-3, 1e-12)

    def root(sub: TruncatedSubsystem) -> float:
        length, log_rho = _log_rho_solver(sub, logt.head)
        logt_v = logt.values_vector(length)

        def pressure_at(s: float) -> float:
            return log_rho(-s * logt_v, rel_tol)

        if pressure_at(0.0) <= 0.0:
            raise DegenerateError(f"pressure at s=0 is nonpositive at level N={sub.size}")
        if pressure_at(1.0) > 0.0:
            return 1.0  # root clipped at the ambient dimension
        return _bisect(lambda s: not pressure_at(s) > 0.0, 0.0, 1.0, lambda h: tol * 1e-2)[0]

    return _exhaust(model, N_max, tol, root, "BOWEN")


# ---------------------------------------------------------------------------
# Full Birkhoff spectrum with the escape value
# ---------------------------------------------------------------------------
def full_birkhoff_spectrum_sv(lam: float, phi: TablePotential, grid,
                              N: int = 128, tol: float = 1e-3) -> SpectrumCurve:
    """Birkhoff spectrum of a potential with a declared tail limit,
    for the built-in family with denominator 1.

    Away from the tail average ``a`` the curve is the variational value at
    each grid point; at alpha = a the escaping set (dimension 1, carried by
    orbits drifting to 0) forces the value 1, which no pressure computation
    can see.  The point is emitted with source ESCAPE_VALUE and the jump is
    recorded as a discontinuity triple (a, nearby supremum, 1).
    """
    if phi.tail_limit is None:
        raise DomainError("potential must declare a tail limit")
    require_above("tol", tol, 0.0)
    model = build_sv_map(lam)
    psi = constant_potential(1.0)
    a = phi.tail_limit
    ev = _PressureEvaluator(model, phi, psi, N)
    lo_a, hi_a = _bounds(ev)

    def interior(x: float) -> bool:
        return lo_a + 1e-12 < x < hi_a - 1e-12 and abs(x - a) > 1e-12

    targets = sorted({float(x) for x in grid if interior(float(x))})
    if not targets:
        raise DomainError(f"no grid point lies inside ({lo_a}, {hi_a}) off the tail average")
    points = [_variational_point(ev, x, tol) for x in targets]

    escape = SpectrumPoint(alpha=a, dimension=1.0, q_star=None,
                           delta_iterations=0, source="ESCAPE_VALUE")
    neighbors = [p.dimension for p in points
                 if abs(p.alpha - a) <= max(1e-9, 0.1 * (hi_a - lo_a))]
    left_limit = max(neighbors) if neighbors else max(p.dimension for p in points)
    points = sorted(points + [escape], key=lambda p: p.alpha)
    disc = []
    if abs(1.0 - left_limit) > 10.0 * tol:
        disc.append((a, left_limit, 1.0))
    return SpectrumCurve(points=points, alpha_min=lo_a, alpha_max=hi_a,
                         discontinuities=disc)


def lyapunov_spectrum_curve(lam: float, points: int = 200,
                            t_max: float = 40.0) -> SpectrumCurve:
    """Closed-form Lyapunov spectrum sweep plus the escape value at alpha_M.

    Samples t geometrically near the critical exponent (where alpha_t
    approaches alpha_M) and linearly beyond, then appends (alpha_M, 1).
    Sampling in t avoids inverting the level parameterization.
    """
    if points < 2:
        raise DomainError(f"need at least 2 points, got {points}")
    t_c = sv_critical_exponent(lam)
    require_above("t_max", t_max, t_c + 1.0)
    n_geo = points // 2
    n_lin = points - n_geo
    offsets = np.geomspace(1e-6, 1.0, n_geo)
    ts = np.concatenate([t_c + offsets, np.linspace(t_c + 1.0, t_max, n_lin + 1)[1:]])
    pts = [lyapunov_closed_form(lam, float(t)) for t in ts]
    alpha_m, alpha_M = sv_alpha_bounds(lam)
    pts.append(SpectrumPoint(alpha=alpha_M, dimension=1.0, q_star=None,
                             delta_iterations=0, source="ESCAPE_VALUE"))
    pts.sort(key=lambda p: p.alpha)
    dedup = [pts[0]]
    for p in pts[1:]:
        if p.alpha > dedup[-1].alpha + 1e-15:
            dedup.append(p)
    left = max(p.dimension for p in dedup if p.source == "CLOSED_FORM")
    return SpectrumCurve(points=dedup, alpha_min=alpha_m, alpha_max=alpha_M,
                         discontinuities=[(alpha_M, left, 1.0)])


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------
def curve_to_csv(curve: SpectrumCurve, N: int | None = None,
                 tol: float | None = None, header_lines: list[str] | None = None) -> str:
    """Render a curve as CSV: alpha,dimension,source,q_star,N,tol rows with
    discontinuities appended as comment-prefixed footer lines."""
    out = []
    for line in header_lines or []:
        out.append(f"# {line}")
    out.append("alpha,dimension,source,q_star,N,tol")
    for p in curve.points:
        q = "" if p.q_star is None else repr(p.q_star)
        out.append(f"{p.alpha!r},{p.dimension!r},{p.source},{q},"
                   f"{'' if N is None else N},{'' if tol is None else repr(tol)}")
    for alpha, left, value in curve.discontinuities:
        out.append(f"# discontinuity,{alpha!r},{left!r},{value!r}")
    return "\n".join(out) + "\n"
