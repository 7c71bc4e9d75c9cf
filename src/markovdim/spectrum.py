"""Multifractal spectra through the pressure characterization.

For a quotient of Birkhoff averages with numerator phi and positive
denominator psi, the dimension of the level set at an interior level alpha
(restricted to the recurrent part) equals

    V(alpha) = sup{ delta : inf_q  P(q (phi - alpha psi) - delta log|T'|) > 0 },

so the engine nests three solved problems: a Perron root per potential, a
convex minimization over q, and the root in delta of the decreasing convex
envelope f(delta) = inf_q P.  Each Perron root comes with its equilibrium
state mu, which gives both slopes of P, dP/dq = mu . (phi - alpha psi) and
dP/ddelta = -mu . log|T'|: the q-search takes secant steps on the first and
bounds the minimum from below by tangents, and Newton steps on f take the
second.  A certified bracket of width tol around the Newton root (some
P <= 0 at its top, a positive lower bound at its bottom) keeps the reported
value's meaning.  All pressures are truncation values, which approximate the
countable-system pressure from below; the resulting dimensions are monotone
nondecreasing in the truncation level.

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
from .pressure import (PerronRoot, PressureResult, _exhaust, _log_rho_solver,
                       closed_form_pressure_sv, sv_critical_exponent)

_Q_LIMIT = 1e6
#: relative Perron-root tolerance of every pressure in a (q, delta) search
_EIG_TOL = 1e-12
#: a q-search whose bounds on the minimum are this close stops: roundoff of P
_GAP_FLOOR = 1e-11
#: a Newton test's bounds on f may differ by this fraction of f
_NEWTON_REL_GAP = 0.1


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SpectrumPoint:
    """One sample (alpha, dimension) of a spectrum.

    ``q_star`` is the minimizer of the pressure in q at the critical delta
    (None for closed-form and escape-value points).  A VARIATIONAL point
    carries its certified ``bracket`` (lo, hi), whose midpoint is the
    dimension: the q-infimum of the pressure is positive at lo and
    nonpositive at hi, and a level set invisible at the truncation has
    (0, 0).  ``delta_iterations`` counts the delta tests that produced it.
    """

    alpha: float
    dimension: float
    q_star: float | None
    delta_iterations: int
    source: str  # VARIATIONAL | CLOSED_FORM | ESCAPE_VALUE
    bracket: tuple[float, float] | None = None

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
    return _karp_critical(_karp_table(sub.matrix, cost))[0]


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


def _karp_critical(table: np.ndarray) -> tuple[float, int]:
    """Karp's minimum cycle mean from ``table`` and a node j attaining it:
    min over j of max over k of (D_n(j) - D_k(j)) / (n - k), finite entries only."""
    n = table.shape[1]
    head, dn = table[:n], table[n]
    with np.errstate(invalid="ignore"):
        quot = (dn - head) / (n - np.arange(n))[:, None]
    worst = np.where(np.isfinite(head), quot, -math.inf).max(axis=0)
    worst = np.where(np.isfinite(dn) & (worst > -math.inf), worst, math.inf)
    j = int(worst.argmin())
    if not math.isfinite(worst[j]):
        raise MixingError("no cycle reachable from the base symbol")
    return float(worst[j]), j


def _walk_cycles(m: np.ndarray, cost: np.ndarray, table: np.ndarray, j: int) -> list[list[int]]:
    """The simple cycles of the least-cost n-edge walk from node 1 to j.

    The walk is traced back from j, each node's predecessor being a node
    whose (k-1)-edge cost plus its own cost gives the table's k-edge entry,
    the same float ``_karp_table`` took the minimum of.  Cycles are split off
    the walk as nodes repeat, and each is rotated to start at its least node,
    so its sums do not depend on where the walk entered it."""
    n = m.shape[0]
    walk = [j]
    for k in range(n, 0, -1):
        cand = np.where(m[:, walk[-1]], table[k - 1] + cost, math.inf)
        walk.append(int(cand.argmin()))
    cycles, stack, seen = [], [], {}
    for v in reversed(walk):
        if v in seen:
            cycle = stack[seen[v]:]
            del stack[seen[v]:]
            for u in cycle:
                del seen[u]
            i = cycle.index(min(cycle))
            cycles.append(cycle[i:] + cycle[:i])
        seen[v] = len(stack)
        stack.append(v)
    return cycles


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
    """Extreme of (sum phi / sum psi) over cycles reachable from node 1.

    It lies between the extreme node ratios, and a self-loop at an extreme
    node attains that end exactly.  Otherwise Newton steps on the cycle
    quotient (Dinkelbach's method) find it: from alpha at the far node
    ratio, Karp's minimum cycle mean of -/+(phi - alpha psi) is negative
    exactly when some cycle lies beyond alpha, and the cycles of the walk
    that attains it do.  alpha moves to the best quotient among them, and
    the steps stop when the minimum mean is >= 0 or alpha no longer moves
    strictly; there are finitely many simple cycles, so they stop.  The
    result is the quotient of a simple cycle of the truncation, so an inner
    estimate by construction."""
    ratios = phi_v / psi_v
    lo, hi = float(ratios.min()), float(ratios.max())
    if hi - lo <= 1e-15 * max(abs(lo), abs(hi)):   # equal up to roundoff, at any scale
        return lo
    end = hi if maximize else lo
    if sub.rule is not None or sub.self_loops[ratios == end].any():
        return end
    m, sign, pick = sub.matrix, (-1.0 if maximize else 1.0), (max if maximize else min)
    alpha, best = (lo if maximize else hi), None
    while True:
        cost = sign * (phi_v - alpha * psi_v)
        table = _karp_table(m, cost)
        mean, j = _karp_critical(table)
        if best is not None and mean >= 0.0:
            return best
        q = pick(sum(phi_v[c].tolist()) / sum(psi_v[c].tolist())
                 for c in _walk_cycles(m, cost, table, j))
        if best is not None and pick(q, best) == best:
            return best
        alpha = best = q


def alpha_bounds(model: MarkovMapModel, phi: TablePotential, psi: TablePotential,
                 N: int) -> tuple[float, float]:
    """Estimates of the extreme Birkhoff quotients (alpha_m, alpha_M).

    Computed as the min/max of cycle quotients sum(phi)/sum(psi) over the
    N-truncation (attained on simple cycles).  When the symbol with the
    extreme ratio phi_i/psi_i has a self-loop, as every symbol of a
    staircase truncation does, that ratio is the exact extreme and is
    returned as is; otherwise Newton steps on Karp's minimum cycle mean
    reach the quotient of an extreme cycle (see :func:`_extreme_cycle_ratio`).
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
        length, self._root = _log_rho_solver(self.sub, max(phi.head, psi.head, logt.head))
        self.phi_v = phi.values_vector(length)
        self.psi_v = psi.values_vector(length)
        self.logt_v = logt.values_vector(length)

    def evaluate(self, q: float, alpha: float, delta: float) -> tuple[float, float, float]:
        """The pressure P and its slopes dP/dq = mu . (phi - alpha psi) and
        dP/ddelta = -mu . log|T'|, mu being the equilibrium state."""
        level = self.phi_v - alpha * self.psi_v
        value, _, _, mu = self._root(q * level - delta * self.logt_v, _EIG_TOL, mu=True)
        return value, float(mu @ level), -float(mu @ self.logt_v)


@dataclass(frozen=True)
class _QMinimum:
    """What :func:`_minimize_over_q` found: the least pressure seen, at q; a
    lower bound on the minimum; the steepest dP/ddelta among q and the
    bracket's ends (a bound on the envelope's slope while the minimizer's
    own lies between them); and the dP/dq secant over the final bracket."""

    best: float
    lower: float
    q: float
    delta_slope: float
    curvature: float | None


def _minimize_over_q(h, q: float, done, curvature: float | None = None) -> _QMinimum:
    """Minimum over q of a convex pressure, from h(q) -> (P, dP/dq, dP/ddelta).

    From q the search steps downhill, by slope / ``curvature`` when a
    curvature is known and by 1 otherwise, doubling the step, until the
    slope changes sign; UnboundedError if that takes it beyond |q| = 1e6
    (alpha at or beyond the edge of the truncated spectrum).  Inside the
    sign-change bracket [a, b] it takes secant steps on the slope, and a
    halving instead whenever the same end moved twice in a row.  The tangents
    at a and b meet below the minimum, so their intersection is a lower bound.
    The search stops once ``done(best, lower, b - a, delta_slope)`` holds
    (lower is -inf and the width inf until a bracket forms), at a zero slope,
    or when the bracket is one ulp wide.
    """
    a = b = None              # innermost (q, P, dP/dq, dP/ddelta) with dP/dq < 0 / > 0
    best = step = moved = None
    while True:
        point = (q, *h(q))
        slope = point[2]
        if best is None or point[1] < best[1]:
            best = point
        if slope == 0.0:
            return _QMinimum(best[1], point[1], best[0], point[3], None)
        side = "a" if slope < 0.0 else "b"
        if side == "a" and (a is None or q > a[0]):
            a = point
        if side == "b" and (b is None or q < b[0]):
            b = point
        repeated, moved = side == moved, side
        lower, width, secant, steepest = -math.inf, math.inf, None, best[3]
        if a is not None and b is not None:
            (qa, pa, sa, da), (qb, pb, sb, db) = a, b
            width = qb - qa
            secant = (sb - sa) / width
            cross = (pb - pa + sa * qa - sb * qb) / (sa - sb)
            lower = min(pa + sa * (cross - qa), best[1])
            steepest = min(steepest, da, db)
        if done(best[1], lower, width, steepest):
            break
        if a is None or b is None:   # expand downhill from the newest point
            step = (abs(slope) / curvature if curvature else 1.0) if step is None else 2.0 * step
            if q + step == q:        # a slope too small to move q: q is the minimum
                return _QMinimum(best[1], best[1], best[0], best[3], None)
            q += step if b is None else -step
            if abs(q) > _Q_LIMIT:
                raise UnboundedError("no minimum in q within |q| <= 1e6 "
                                     "(alpha at or beyond edge)")
            continue
        mid = 0.5 * qa + 0.5 * qb
        if not qa < mid < qb:
            break
        q = mid if repeated else qa - sa * width / (sb - sa)
        if not qa < q < qb:
            q = mid
    return _QMinimum(best[1], lower, best[0], steepest, secant)


def inf_pressure_over_q(model: MarkovMapModel, phi: TablePotential, psi: TablePotential,
                        alpha: float, delta: float, N: int,
                        tol: float) -> tuple[float, float]:
    """Minimum over q of the truncated pressure of q(phi - alpha psi) - delta log|T'|.

    Returns (inf_value, q_star).  The function of q is convex and its slope
    is mu . (phi - alpha psi), mu the equilibrium state; the minimum is
    bracketed by doubling steps from q = 0 and located by secant steps on
    that slope to q-tolerance ``tol``.  An UnboundedError signals that alpha
    sits at or beyond the edge of the truncated spectrum.
    """
    require_above("tol", tol, 0.0)
    if not (0.0 <= delta <= 1.0):
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    ev = _PressureEvaluator(model, phi, psi, N)
    found = _minimize_over_q(lambda q: ev.evaluate(q, alpha, delta), 0.0,
                             lambda best, lower, width, slope: width <= tol)
    return found.best, found.q


def variational_dimension(model: MarkovMapModel, phi: TablePotential, psi: TablePotential,
                          alpha: float, N: int, tol: float) -> SpectrumPoint:
    """Level-set dimension V(alpha) at truncation N, to bracket width <= tol.

    V is the root in delta of f(delta) = inf_q P(q (phi - alpha psi) -
    delta log|T'|), found by Newton steps on f and certified by a bracket
    (see :func:`_variational_point`).  The expansion bound makes f strictly
    decreasing in delta, so the root is well-defined; it is approached from
    below as N grows.  Two :func:`_beyond` tests check that alpha is
    interior; the bounds are computed only to name them in the DomainError.
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
    truncation's evaluator supplied, so a scan builds it once for all its points.

    f(delta) = inf_q P is convex and decreasing, with slope -mu . log|T'| at
    the minimizing q (envelope theorem), so the Newton step from any delta
    lands at or below the root V.  Each delta test runs the q-search, which
    bounds f(delta) from above (the least P seen) and from below (the
    tangent intersection): P <= 0 somewhere certifies V <= delta, a lower
    bound > 0 certifies V > delta.  A Newton test refines its bounds until
    they differ by a tenth of f or by a quarter of ``tol`` in delta, and
    steps from the lower bound with the steepest slope its search saw, so
    that inexact bounds shorten the step; the other tests stop once the sign
    is settled.  Past roundoff the least P decides, as a bisection on it did.
    Once a Newton step p is within tol/2 of its delta, the bracket is
    [p - tol/2, p + tol/2]: its top certified by some P <= 0, its bottom by a
    positive lower bound, each at that end or at a tested delta beyond it on
    the same side; a top past 1 is certified at 1, where the pressure is
    nonpositive as in :func:`bowen_dimension`.  A proposal outside the
    certified bracket [lo, hi], or one more than half the step before last
    (steps that stop shrinking, from a slope that is off), becomes a
    halving, which stops at one ulp as every halving in the package does.
    The reported dimension is the bracket's midpoint; ``delta_iterations``
    counts the delta tests.  Nothing is carried from point to point, so a
    point is a function of its own arguments.
    """
    tests = 0
    q, curvature = 0.0, None

    def test(delta: float, newton: bool) -> _QMinimum:
        nonlocal tests, q, curvature

        def done(best: float, lower: float, width: float, slope: float) -> bool:
            gap = best - lower
            if gap <= _GAP_FLOOR:
                return True
            if not (lower > 0.0 or best <= 0.0):
                return False
            return not newton or gap <= max(0.25 * tol * abs(slope),
                                             _NEWTON_REL_GAP * min(abs(lower), abs(best)))

        tests += 1
        found = _minimize_over_q(lambda x: ev.evaluate(x, alpha, delta), q, done, curvature)
        q, curvature = found.q, found.curvature or curvature
        return found

    # a level set invisible at this truncation has the dimension estimate 0
    r = test(0.0, True)
    if not r.best > 0.0:
        return SpectrumPoint(alpha=alpha, dimension=0.0, q_star=r.q, delta_iterations=tests,
                             source="VARIATIONAL", bracket=(0.0, 0.0))
    x, lo, hi = 0.0, 0.0, 1.0
    step = step_before = math.inf
    while hi - lo > tol:
        pred = x - r.lower / r.delta_slope       # Newton step, at or below the root
        top, bottom = pred + 0.5 * tol, max(pred - 0.5 * tol, 0.0)
        if abs(pred - x) <= 0.5 * tol and lo < top:   # certify [bottom, top]
            if top < hi:
                x, r = top, test(top, False)
                if r.best > 0.0:
                    lo = top
                    continue
            if bottom > lo:
                x, r = bottom, test(bottom, False)
                if not r.best > 0.0:
                    hi = bottom
                    continue
            # an end beyond a tested delta on its side is certified by it
            lo, hi = bottom, top
            break
        if not lo < pred < hi or abs(pred - x) > 0.5 * step_before:
            pred = 0.5 * lo + 0.5 * hi
            if not lo < pred < hi:
                break
        step_before, step = step, abs(pred - x)
        x, r = pred, test(pred, True)
        if r.best > 0.0:
            lo = x
        else:
            hi = x
    return SpectrumPoint(alpha=alpha, dimension=0.5 * lo + 0.5 * hi, q_star=r.q,
                         delta_iterations=tests, source="VARIATIONAL", bracket=(lo, hi))


# ---------------------------------------------------------------------------
# Bowen roots
# ---------------------------------------------------------------------------
def bowen_dimension(model: MarkovMapModel, N_max: int, tol: float) -> PressureResult:
    """Hyperbolic-dimension estimate: per-level Bowen roots of P_N(-s log|T'|).

    P_N is strictly decreasing in s, positive at s = 0 (else the level is
    degenerate: DegenerateError), and nonpositive at s = 1 for branches
    inside a bounded interval (a level where its bracket lies above 0
    reports 1).  Each root is the midpoint that halving [0, 1] down to width
    tol/100 on the sign of P_N returns, found in two phases:

    1. P_N is convex with slope -mu . log|T'|, mu the equilibrium state, so
       Newton steps from the left climb toward the root without passing it.
       They start at s = 0, then at the previous level's root, since roots
       increase with N, and each Perron root starts from the tangent's
       prediction of its value.  A step more than half the step before
       last, from a slope that is off, ends them.  Two sign tests follow,
       either side of the predicted root: a quarter of the final width
       away, or further where the slope says P would not clear 16 rel_tol.
       A tested value counts when its bracket clears 0 by twice the sum of
       rel_tol and its own width, more than the route's brackets are wide
       (all but an eigensolver fallback's), so that every value at or below
       a positive one is positive, and every value at or above a
       nonpositive one nonpositive.
    2. The halving is replayed exactly.  A midpoint that a counted value
       settles is not tested, every other midpoint is, and the test at
       s = 1 is made only when no counted value settles it.  The result is
       bit for bit the plain halving's, which is also the worst case.

    The roots increase with N toward the supremum over compact invariant
    subsets.  Levels whose truncation is not primitive are skipped, as in
    ``gurevich_pressure``; MixingError is raised only when no level is
    primitive.  The result has ``method`` BOWEN.
    """
    logt = builtin_log_derivative(model)
    rel_tol = min(tol * 1e-3, 1e-12)
    width = tol * 1e-2
    start = 0.0                  # the previous level's root, at or below this level's
    p_zero = None                # and its P(0), at or below this level's

    def root(sub: TruncatedSubsystem) -> float:
        nonlocal start, p_zero
        length, perron = _log_rho_solver(sub, logt.head, p_zero)
        logt_v = logt.values_vector(length)
        pos, neg = -math.inf, math.inf   # counted: P > 0 at or below pos, P <= 0 at or above neg

        def count(s: float, found: PerronRoot) -> float:
            nonlocal pos, neg
            clear = 2.0 * (rel_tol + found.hi - found.lo)
            if found.lo > clear:
                pos = max(pos, s)
            elif found.hi < -clear:
                neg = min(neg, s)
            return found.log_rho

        def newton_point(s: float, guess: float | None = None) -> tuple[float, float, float]:
            found = perron(-s * logt_v, rel_tol, guess, mu=True)
            return s, count(s, found), -float(found.mu @ logt_v)

        s, p_zero, slope = newton_point(0.0)
        p = p_zero
        if p <= 0.0:
            raise DegenerateError(f"pressure at s=0 is nonpositive at level N={sub.size}")
        if 0.0 < start < 1.0:
            s, p, slope = newton_point(start, p + slope * start)
        step, last, before = -p / slope, math.inf, math.inf   # and the two steps taken
        while 0.125 * width < step <= 0.5 * before and s + step < 1.0:
            s, p, slope = newton_point(s + step, p + slope * step)
            step, last, before = -p / slope, step, last
        off = max(0.25 * width, -16.0 * rel_tol / slope)
        for x in (s + step - off, s + step + off):
            if pos < x < neg and 0.0 < x < 1.0:
                count(x, perron(-x * logt_v, rel_tol, p + slope * (x - s)))
        if not neg <= 1.0 and perron(-1.0 * logt_v, rel_tol, p + slope * (1.0 - s)).lo > 0.0:
            return 1.0  # root clipped at the ambient dimension
        # the halving of [0, 1], tested only where no counted value settles it
        lo, hi = 0.0, 1.0
        while hi - lo > width:
            mid = 0.5 * lo + 0.5 * hi
            if not lo < mid < hi:
                break
            if mid <= pos or (mid < neg and perron(-mid * logt_v, rel_tol,
                                                   p + slope * (mid - s)).log_rho > 0.0):
                lo = mid
            else:
                hi = mid
        start = 0.5 * lo + 0.5 * hi
        return start

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
