"""Gurevich pressure via increasing compact subsystems.

A potential p depends on the leading symbol only, so its pressure over a
finite mixing subsystem equals log of the Perron root of the weighted
transition matrix

    A[i, j] = t(i, j) * exp(p(i)),

and the pressure over the full countable system is the monotone limit of
these finite values along any increasing exhaustion.  Three routes coexist:

* ``perron_pressure``: Perron root of the weighted matrix.  Staircase
  subsystems use an exact characteristic test that is immune to
  spectral-gap collapse and costs O(K) per trial value, K being the index
  of the last weight that differs from the constant tail (the tail rows are
  closed in one step, and only the first K + 1 weights are read); a
  warm-started Newton iteration brackets the root and a replay of the
  halving returns the halving's midpoint bit for bit; all-true dense ones
  take the weight sum of their rank-one matrix; general subsystems use power
  iteration whose steps are repeatedly squared powers of the matrix, stopped
  on the Collatz-Wielandt bracket of the iterate, with a dense-eigensolver
  fallback.  Every route brackets the root it returns (:class:`PerronRoot`).
* ``orbit_sum_pressure``: (1/n) log of the weighted count of period-n
  orbits through a base cylinder, an independent finite-n oracle.
* ``closed_form_pressure_sv``: the exact formula for the built-in family.

All weight handling shifts the potential by its maximum first, so only
well-scaled exponentials are formed; the shift is added back at the end.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, MixingError, WorkLimitError, require_above
from .markov import MarkovMapModel, TruncatedSubsystem, truncate
from .potentials import TablePotential

#: orbit-sum enumeration caps
ORBIT_SUM_MAX_ALPHABET = 12
ORBIT_SUM_MAX_PERIOD = 30

_POWER_MAX_ITER = 200_000
_DENSE_FALLBACK_MAX_N = 2048
_EPS = 2.0 ** -52
_TINY = 2.0 ** -1022            # the least normal double


# ---------------------------------------------------------------------------
# Result record
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PressureResult:
    """Per-level values of an exhaustion by truncations, with diagnostics.

    The values are pressures P_N (``method`` PERRON) or Bowen roots s_N of
    P_N(-s log|T'|) = 0 (``method`` BOWEN).  ``per_level`` is the monotone
    sequence of (N, value); ``value`` is the last entry and is a lower bound
    for the countable system's value whenever ``converged`` is False (the
    scheme approximates from below, so no extrapolation is ever reported).
    """

    value: float
    truncation_used: int
    per_level: tuple[tuple[int, float], ...]
    converged: bool
    method: str  # PERRON | BOWEN

    def to_dict(self) -> dict:
        return {"value": self.value, "method": self.method,
                "per_level": [[n, p] for n, p in self.per_level],
                "converged": self.converged}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


# ---------------------------------------------------------------------------
# Perron roots
# ---------------------------------------------------------------------------
class PerronRoot(NamedTuple):
    """A log Perron root, inside a certified bracket [lo, hi] of the true one,
    and the equilibrium state mu = d log rho / d log w when asked for."""

    log_rho: float
    lo: float
    hi: float
    mu: np.ndarray | None


def _perron_root(log_rho: float, lo: float, hi: float, shift: float, rel: float,
                 mu: np.ndarray | None) -> PerronRoot:
    """The record of a root whose shifted value lies in [lo, hi] up to a
    relative error ``rel``: the ends' logs plus ``shift``, pushed out by
    ``rel`` and the roundoff of the log and the shift (log 0 is -inf)."""
    pad = rel + 4.0 * _EPS * (abs(log_rho) + abs(shift))
    return PerronRoot(log_rho, (math.log(lo) if lo > 0.0 else -math.inf) + shift - pad,
                      math.log(hi) + shift + pad, mu)


def _staircase_tail(w_tail: float, rho: float, m: int) -> tuple[float, float]:
    """Ratio after m back-substitution rows of constant weight ``w_tail``, and
    its derivative in rho.

    Starting from r = 0, each row applies the same Moebius map
    r <- c / (1 - r) with c = w_tail / rho, so r_j = c p_{j-1} / p_j for the
    recurrence p_j = p_{j-1} - c p_{j-2} (p_{-1} = 0, p_0 = 1).  Since
    1 - r_j = p_{j+1} / p_j, all m rows keep r < 1 exactly when
    p_2, ..., p_{m+1} > 0.  Solving the recurrence gives the closed forms
    below; ``inf`` marks a tail in which some row leaves r < 1.  The quantity
    4c - 1 is formed as (4 w_tail - rho) / rho, whose numerator is exact
    near c = 1/4, so the angle and the decay rate keep full relative
    precision where the two regimes meet.

    For c > 1/4 the ratio is r = sqrt(c) sin(m theta) / sin((m + 1) theta)
    with cos(theta) = 1 / (2 sqrt(c)), and differentiating its log gives

        dr/drho = -(r / rho) (1/2 + (m cot(m theta) - (m + 1) cot((m + 1) theta)) / (2 tan theta)).

    For c < 1/4, theta = i phi turns cot into coth and tan theta into
    s = sqrt(1 - 4c); coth(k phi) = 1 - 2 e^(k ell) / expm1(k ell) reuses the
    two expm1 values of the ratio.  At c = 1/4 both tend to -r (m + 2) / (3 rho).
    """
    c = w_tail / rho
    if m == 0 or c == 0.0:   # a ratio that underflows to 0 keeps r at 0, as row by row
        return 0.0, 0.0
    d = 4.0 * w_tail - rho
    if d < 0.0:       # c < 1/4: real roots mu_1 > mu_2 of mu^2 - mu + c, every row feasible
        s = math.sqrt(-d / rho)
        mu1 = 0.5 * (1.0 + s)
        mu2 = c / mu1
        ell = math.log(mu2 / mu1)
        e_m, e_m1 = math.expm1(m * ell), math.expm1((m + 1) * ell)
        r = mu2 * e_m / e_m1
        coths = -1.0 - 2.0 * m * (1.0 + e_m) / e_m + 2.0 * (m + 1) * (1.0 + e_m1) / e_m1
        return r, -r / rho * (0.5 - coths / (2.0 * s))
    if d == 0.0:      # c = 1/4: double root 1/2
        r = m / (2.0 * (m + 1))
        return r, -r * (m + 2) / (3.0 * rho)
    # c > 1/4: p_j = c^(j/2) sin((j+1) theta) / sin(theta) with tan(theta) = sqrt(4c - 1)
    t = math.sqrt(d / rho)
    theta = math.atan(t)
    if not ((m + 2) * theta < math.pi):
        return math.inf, math.nan
    r = math.sqrt(c) * math.sin(m * theta) / math.sin((m + 1) * theta)
    cots = m / math.tan(m * theta) - (m + 1) / math.tan((m + 1) * theta)
    return r, -r / rho * (0.5 + cots / (2.0 * t))


def _staircase_residual(w_tail: float, m: int, head_w: list[float], w0: float,
                        rho: float) -> tuple[float, float] | None:
    """First-row residual rho (1 - r_1) - w_0 of a staircase at rho, and its
    derivative in rho; None where some row leaves r < 1.

    The m tail rows of weight ``w_tail`` are closed by :func:`_staircase_tail`,
    then the rows of ``head_w`` (in substitution order, row 2 last) apply
    r <- w_k / (rho (1 - r)), their derivatives carried along in forward
    mode.  Eliminating the rows from the bottom up makes the pivots
    rho (1 - r_k) of rows 2..n and the residual of row 1, so the residual is
    det(rho I - A) over the product of the other pivots.
    """
    r, dr = _staircase_tail(w_tail, rho, m)
    if not (r < 1.0):
        return None
    for wk in head_w:
        den = rho * (1.0 - r)
        dden = (1.0 - r) - rho * dr
        r = wk / den
        if not (r < 1.0):
            return None
        dr = -r * dden / den
    return rho * (1.0 - r) - w0, (1.0 - r) - rho * dr


def _staircase_log_rho(log_weights: np.ndarray, rel_tol: float, n: int | None = None,
                       guess: float | None = None, mu: bool = False) -> PerronRoot:
    """Log Perron root of the n x n staircase A[i,j] = w_i [j >= max(i-1, 1)],
    with :func:`_staircase_mu` when ``mu`` is set.

    ``log_weights`` holds the log weights of rows 1..k, and rows k+1..n
    repeat the last of them (k = n, the default, or any k past the last
    weight that differs from the constant tail).  The shift, the weights,
    the row-sum bound (the tail's largest row sum is its first row) and the
    head length K come from those k values alone, so a root costs O(K)
    whatever n is.

    The matrix is upper Hessenberg, so a trial rho is tested by
    back-substituting all rows but the first: the first-row residual
    rho (1 - r_1) - w_0 changes sign exactly at the Perron root, and the
    ratios r_k of consecutive partial sums of a candidate eigenvector must
    stay below 1 above it.  The predicate "trial >= Perron root" is
    therefore monotone, independent of the spectral gap.  The rows past K
    share one weight and are closed in one step (:func:`_staircase_tail`);
    only the K head rows are substituted one by one.

    The root is the midpoint that halving [1/4, hi] down to width
    ``rel_tol`` hi returns, found in two phases:

    1. A safeguarded Newton iteration on the residual, with its derivative
       carried through the rows in forward mode, looks for a tested False
       point a and a tested True point b within ``rel_tol`` b of each other.
       It starts from ``guess`` (a previous log root) when that lies in the
       bracket, else from hi, and steps from its newest feasible trial,
       aiming a quarter of the final width past the predicted root so that
       the step after it lands on the other side.  A step that leaves the
       bracket, or is not half the step before last, becomes a halving.
    2. The halving itself is replayed exactly: a midpoint at or above b is
       True, one at or below a is False, and only midpoints strictly
       between them are tested, so the result is bit for bit the plain
       halving's, whatever the guess.

    The bracket is the halving's last [lo, hi], pushed out by the trials'
    relative roundoff, 1e-13.
    """
    shift = max(log_weights.tolist())
    w = np.exp(log_weights - shift).tolist()
    n = len(w) if n is None else n
    # row 1 covers all n columns; row k >= 2 (1-based) covers n-k+2 of them
    hi = max((n + 1 - max(i, 1)) * wi for i, wi in enumerate(w)) * (1.0 + 1e-12)
    w_tail = w[-1]
    head = len(w)
    while head > 1 and w[head - 1] == w_tail:
        head -= 1
    m = n - head
    head_w = w[head - 1:0:-1]     # rows head-1 .. 1, in substitution order
    w0 = w[0]

    trial = partial(_staircase_residual, w_tail, m, head_w, w0)

    # the largest weight is 1 after the shift and the predicate is False at
    # rho = 1/4 wherever it sits: a head row of weight 1 gives r >= 4, a
    # first row of weight 1 gives 0.25 (1 - r) - 1 < 0, and a tail of weight
    # 1 is infeasible (3 atan sqrt(15) > pi), so 0.25 needs no trial
    a, b, top = 0.25, math.inf, hi   # False; least tested True; bracket top
    start = math.inf if guess is None else math.exp(min(guess - shift, 709.0))
    x = start if a < start < top else top      # a NaN guess fails the test too
    newest = None                    # (rho, residual, slope) of the newest feasible trial
    step = step_before = top - a
    while True:
        t = trial(x)
        if t is not None and t[0] >= 0.0:
            b = top = x
        else:
            a = x
        if t is not None:
            newest = (x, *t)
        if b < math.inf and (b - a <= rel_tol * b or not a < 0.5 * a + 0.5 * b < b):
            break
        if a >= top:                 # the row-sum bound failed by roundoff: double it
            top = x = 2.0 * top
            continue
        dx = math.inf                # the Newton step from the newest feasible trial
        if newest is not None and newest[2] > 0.0:
            dx = newest[1] / newest[2]
            x = newest[0] - dx - math.copysign(0.25 * rel_tol * newest[0], newest[1])
        if abs(dx) <= 0.5 * step_before and a < x < top:
            step_before, step = step, abs(dx)
        else:
            x = 0.5 * a + 0.5 * top
            if not a < x < top:      # one ulp left below an untested top: test the top
                x = top
            step_before, step = step, 0.5 * (top - a)

    # the halving, with its test inlined: True at or above b, False at or
    # below a, and a trial only strictly between them
    while hi < b:               # row-sum bound is exact; guard roundoff only
        if hi > a:
            t = trial(hi)
            if t is not None and t[0] >= 0.0:
                break
        hi *= 2.0
    lo = 0.25
    while hi - lo > rel_tol * hi:
        mid = 0.5 * lo + 0.5 * hi     # 0.5 * (lo + hi) without its overflow
        if not lo < mid < hi:
            break
        if mid >= b:
            hi = mid
        elif mid <= a:
            lo = mid
        else:
            t = trial(mid)
            if t is not None and t[0] >= 0.0:
                hi = mid
            else:
                lo = mid
    log_rho = math.log(0.5 * lo + 0.5 * hi) + shift
    return _perron_root(log_rho, lo, hi, shift, 1e-13,
                        _staircase_mu(log_weights, n, log_rho, rel_tol) if mu else None)


def _staircase_mu(log_weights: np.ndarray, n: int, log_rho: float, rel_tol: float) -> np.ndarray:
    """mu_i = d log rho / d log w_i of the staircase root ``log_rho`` (as
    :func:`_staircase_log_rho` returns it for these arguments); the last
    entry sums rows k..n, which share its weight.  The entries sum to 1.

    The residual F(rho, w) = rho (1 - r_1) - w_0 of :func:`_staircase_residual`
    vanishes at the root, so mu_i = -w_i F_{w_i} / (rho F_rho); F is
    homogeneous of degree 1 in (rho, w), so there Euler's relation gives
    -rho F_rho = sum_j w_j F_{w_j}, and mu is the vector of w_i F_{w_i} over
    its sum.  Those come from one adjoint pass back through the head rows,
    where r_k = w_k / (rho (1 - r_{k+1})) gives w_k dr_k/dw_k = r_k and
    dr_k/dr_{k+1} = r_k / (1 - r_{k+1}).  Rows k..n are closed by
    :func:`_staircase_tail`, whose ratio depends on w_tail / rho only, so its
    w_tail dr/dw_tail is the -rho dr/drho it returns.  A root that rounds
    below the last feasible trial is stepped up by ``rel_tol`` until every
    row keeps r < 1; the normalization keeps mu accurate there, where the
    tail's pole makes F_rho huge.
    """
    k = len(log_weights)
    if k == 1:
        return np.ones(1)
    shift = max(log_weights.tolist())
    w = np.exp(log_weights - shift).tolist()
    rho = math.exp(log_rho - shift)
    while True:
        r, dr = _staircase_tail(w[-1], rho, n - k + 1)
        ratios = [r]
        for wk in w[k - 2:0:-1]:      # rows k-1 .. 2, in substitution order
            if not r < 1.0:
                break
            r = wk / (rho * (1.0 - r))
            ratios.append(r)
        if r < 1.0:
            break
        rho *= 1.0 + rel_tol
    g = np.empty(k)                   # w_i dF/dw_i
    g[0] = -w[0]
    adj = -rho                        # dF/dr of the ratio at hand, row 2 first
    for i in range(k - 2, 0, -1):     # ratios[i] is row k - i, weight index k - i - 1
        g[k - i - 1] = adj * ratios[i]
        adj *= ratios[i] / (1.0 - ratios[i - 1])
    g[k - 1] = adj * -rho * dr
    return g / g.sum()


def _power_log_rho(matrix: np.ndarray, log_weights: np.ndarray, rel_tol: float,
                   guess: float | None = None, mu: bool = False) -> PerronRoot:
    """Log Perron root by power iteration in squared steps, stopped on its
    Collatz-Wielandt bracket (``guess`` is ignored).

    For y > 0, min_i (A y)_i / y_i <= rho <= max_i (A y)_i / y_i (Seneta,
    Non-negative Matrices and Markov Chains, 1981), so each round brackets
    rho with the product A y it forms anyway.  It stops once the bracket is
    at most ``rel_tol`` lo wide, the value being the L1 quotient of y
    (|y|_1 = 1).  Otherwise y advances by P = A^s, scaled to largest entry
    1, and one more A-step.  P starts as A, and while s = 1 the round's
    product is the next iterate.  P is squared (s doubles) while the last
    two rounds each narrowed the bracket and their decay per A-step, kept up
    for n more steps, still leaves it wider than the tolerance: a square
    costs n^3 flops, as n matrix-vector products do.  Work is counted in
    products, a square counting n, and s doubles only while below the
    budget.  Once ``_POWER_MAX_ITER`` products are spent (a tiny spectral
    gap, or a tolerance below roundoff), or once y spans more than the range
    of doubles and so has no bracket (:func:`_collatz_wielandt`), a dense
    eigensolver takes over up to ``_DENSE_FALLBACK_MAX_N`` symbols, its
    vector giving the bracket, of any width, and ConvergenceError is raised
    beyond.  With ``mu``, mu_i = u_i v_i / (u . v), u from the same
    iteration on A^T, whose bracket narrows the root's and takes the value
    in.  Brackets are pushed out by the products' roundoff, (n + 3) eps.
    """
    shift = float(np.max(log_weights))
    a = matrix.astype(float) * np.exp(log_weights - shift)[:, None]
    sides = (a, a.T) if mu else (a,)
    runs = [_power_iteration(side, rel_tol) for side in sides]
    if any(run is None for run in runs):
        if a.shape[0] > _DENSE_FALLBACK_MAX_N:
            raise ConvergenceError(f"power iteration did not reach tol={rel_tol} within "
                                   f"{_POWER_MAX_ITER} matrix-vector products (N={a.shape[0]})")
        runs = [_eig_pair(side) for side in sides]
    lam, lo, hi, v = runs[0]
    weights = None
    if mu:
        _, lo_t, hi_t, u = runs[1]
        lo, hi = max(lo, lo_t), min(hi, hi_t)
        uv = u * v
        weights = uv / _positive(float(uv.sum()))
    lam = min(max(lam, lo), hi)
    return _perron_root(math.log(lam) + shift, lo, hi, shift, (a.shape[0] + 3) * _EPS, weights)


def _positive(total: float) -> float:
    """``total`` itself when it is a positive finite number; anything else
    means the iteration collapsed."""
    if not 0.0 < total < math.inf:
        raise ConvergenceError("power iteration collapsed to zero vector")
    return total


def _collatz_wielandt(a: np.ndarray, ay: np.ndarray, y: np.ndarray
                      ) -> tuple[float, float] | None:
    """A bracket [lo, hi] of rho from y >= 0 and ay = A y, or None.

    For y > 0 it is min and max of (A y)_i / y_i.  An (A y)_i below n times
    the least normal double may have lost an ulp to underflow: such y_i are
    set to 0, A y is formed again, and the ratios are taken over the rest.
    That brackets rho when the zeros Z lead only into themselves and the
    root of A_ZZ is at most lo: the dead rows, whose every path ends at a
    zero row (of weight 0 once shifted), are nilpotent, and the largest row
    sum over the others bounds it.  A matrix of dead rows alone collapses."""
    floor = a.shape[0] * _TINY
    if ay.min() >= floor and y.min() > 0.0:
        ratios = ay / y
        return float(ratios.min()), float(ratios.max())
    dead = ~a.any(axis=1)
    while dead.any():
        grown = dead | ~a[:, ~dead].any(axis=1)
        if (grown == dead).all():
            break
        dead = grown
    if dead.all():
        raise ConvergenceError("power iteration collapsed to zero vector")
    zero = (ay < floor) | (y == 0.0)
    y = np.where(zero, 0.0, y)
    ay = a @ y
    if zero.all() or a[np.ix_(zero, ~zero)].any() or ay[~zero].min() < floor:
        return None
    ratios = ay[~zero] / y[~zero]
    lo, hi = float(ratios.min()), float(ratios.max())
    inner = zero & ~dead
    if inner.any() and a[np.ix_(inner, inner)].sum(axis=1).max() > lo:
        return None
    return lo, hi


def _power_iteration(a: np.ndarray, rel_tol: float
                     ) -> tuple[float, float, float, np.ndarray] | None:
    """(lam, lo, hi, y) of :func:`_power_log_rho` on the weighted matrix
    ``a``: value, bracket and Perron vector; None once the budget is spent,
    or at once when underflow leaves no bracket."""
    n = a.shape[0]
    log_tol = math.log(rel_tol)
    p, s = a, 1
    steps = work = 0                        # A-steps advanced, products spent
    trail: list[tuple[int, float]] = []     # (steps, log relative bracket width), last 3 rounds
    y = a @ np.full(n, 1.0 / n)
    while work < _POWER_MAX_ITER:
        y /= _positive(float(y.sum()))
        ay = a @ y
        found = _collatz_wielandt(a, ay, y)
        if found is None:
            return None
        lo, hi = found
        if lo > 0.0 and hi - lo <= rel_tol * lo:
            return float(ay.sum()), lo, hi, y
        trail = [*trail[-2:], (steps, math.log((hi - lo) / lo) if lo > 0.0 else math.inf)]
        if len(trail) == 3 and s < _POWER_MAX_ITER and work + n < _POWER_MAX_ITER:
            (t0, r0), (_, r1), (t2, r2) = trail
            if r0 > r1 > r2 and r2 + n * (r2 - r0) / (t2 - t0) > log_tol:
                p = p @ p
                p /= _positive(float(p.max()))
                s *= 2
                work += n
        if s == 1:
            y = ay
            steps += 1
            work += 1
        else:
            x = p @ y
            y = a @ (x / _positive(float(x.sum())))
            steps += s + 1
            work += 3
    return None


def _eig_pair(a: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """(lam, lo, hi, v) as :func:`_power_iteration` gives them, from the dense
    eigensolver: the brackets of its vector and of up to three products meet,
    the products emptying the dead rows, where the solver leaves roundoff."""
    values, vectors = np.linalg.eig(a)
    i = int(np.argmax(np.abs(values)))
    v = np.abs(vectors[:, i].real)
    y, lo, hi = v / _positive(float(v.sum())), 0.0, math.inf
    for _ in range(4):
        ay = a @ y
        found = _collatz_wielandt(a, ay, y)
        if found is None:
            break
        lo, hi, y = max(lo, found[0]), min(hi, found[1]), ay / ay.sum()
    return float(abs(values[i])), lo, hi, v / v.sum()


def perron_pressure(sub: TruncatedSubsystem, p: TablePotential, tol: float) -> float:
    """log of the Perron root of the weighted transition matrix of ``sub``.

    ``tol`` is the relative eigenvalue tolerance, and the root is within it
    of the true one.  Deterministic given its inputs.  Raises MixingError on
    non-primitive subsystems.
    """
    require_above("tol", tol, 0.0)
    if not sub.primitive:
        raise MixingError("subsystem is not primitive")
    length, root = _log_rho_solver(sub, p.head)
    return root(p.values_vector(length), tol).log_rho


def _rank_one_log_rho(log_weights: np.ndarray, rel_tol: float, guess: float | None = None,
                      mu: bool = False) -> PerronRoot:
    """Log Perron root of the rank-one matrix w 1^T: the plain weight sum,
    exact up to its roundoff, (n + 2) eps; mu is w / sum(w)."""
    shift = float(np.max(log_weights))
    w = np.exp(log_weights - shift)
    total = float(np.sum(w))
    return _perron_root(math.log(total) + shift, total, total, shift, (len(w) + 2) * _EPS,
                        w / total if mu else None)


def _log_rho_solver(sub: TruncatedSubsystem, head: int, guess: float | None = None):
    """The Perron-root routine for the shape of ``sub``, and how many leading
    weights it reads: (length, root), where root(log_weights, rel_tol,
    guess=None, mu=False) returns a :class:`PerronRoot` whose bracket is at
    most about ``rel_tol`` wide.  mu, computed only when asked for, is
    mu_i = d log rho / d log w_i over the weights read: the equilibrium
    state, so a potential p' has d log rho / dt = mu . p' along log w + t p'.

    ``head`` is the largest symbol whose weight may differ from the constant
    tail.  Staircase subsystems take the characteristic root, which reads
    the weights of symbols 1..head+1 only (the last of them standing for
    every symbol past head, in mu too); each call starts from its own
    ``guess``, a log root, when given, else from the root it returned last
    (``guess`` before the first), which changes its trial count only.  The
    other routes have no start.  An all-true dense matrix (as a config's
    "full" is, and a staircase of one symbol) takes the rank-one sum,
    everything else power iteration on the materialized matrix, whose mu
    costs a second iteration on the transpose; both read all ``sub.size``
    weights.  Callers that evaluate many potentials on one subsystem keep
    the returned routine, so the shape is inspected once.
    """
    n = sub.size
    if sub.rule == "staircase" and n >= 2:
        last = guess

        def staircase(log_weights: np.ndarray, rel_tol: float, guess: float | None = None,
                      mu: bool = False) -> PerronRoot:
            nonlocal last
            found = _staircase_log_rho(log_weights, rel_tol, n,
                                       last if guess is None else guess, mu)
            last = found.log_rho
            return found

        return min(n, head + 1), staircase
    if sub.rule is not None or sub.dense.all():
        return n, _rank_one_log_rho
    return n, partial(_power_log_rho, sub.matrix)


# ---------------------------------------------------------------------------
# Periodic-orbit sums
# ---------------------------------------------------------------------------
def orbit_sum_pressure(sub: TruncatedSubsystem, p: TablePotential, n: int,
                       base_symbol: int) -> float:
    """(1/n) log Z_n, where Z_n sums exp of the n-step potential total over
    all period-n symbolic orbits through ``base_symbol``.

    The sum runs over closed admissible words of length n starting at the
    base symbol, accumulated exactly (up to floating summation) by dynamic
    programming over (step, current symbol); no spectral machinery, so
    this is an independent check on :func:`perron_pressure`.  Returns -inf
    when no period-n orbit passes through the base symbol.
    """
    if n < 1:
        raise DomainError(f"period must be >= 1, got {n}")
    if not (1 <= base_symbol <= sub.size):
        raise DomainError(f"base symbol {base_symbol} outside alphabet 1..{sub.size}")
    if sub.size > ORBIT_SUM_MAX_ALPHABET or n > ORBIT_SUM_MAX_PERIOD:
        raise WorkLimitError(
            f"orbit sums capped at alphabet <= {ORBIT_SUM_MAX_ALPHABET} and "
            f"period <= {ORBIT_SUM_MAX_PERIOD} (got N={sub.size}, n={n})")
    logw = p.values_vector(sub.size)
    shift = float(np.max(logw))
    w = np.exp(logw - shift)
    m = sub.matrix.astype(float)
    b = base_symbol - 1
    f = np.zeros(sub.size)
    f[b] = w[b]
    for _ in range(n - 1):
        f = (f @ m) * w
    z = float(np.dot(f, m[:, b]))
    if z == 0.0:
        return -math.inf
    return (math.log(z) + n * shift) / n


# ---------------------------------------------------------------------------
# Increasing-subsystem scheme
# ---------------------------------------------------------------------------
def _levels(n_max: int) -> list[int]:
    if n_max < 2:
        return []
    out = []
    n = 2
    while n <= n_max:
        out.append(n)
        n *= 2
    if out[-1] != n_max:
        out.append(n_max)
    return out


def _exhaust(model: MarkovMapModel, N_max: int, tol: float, level_value,
             method: str) -> PressureResult:
    """``level_value(sub)`` on the truncations of the doubling schedule.

    Levels run N = 2, 4, 8, ... up to ``N_max`` (clamped to a finite
    alphabet).  A level whose truncation is not primitive is skipped, since
    leading truncations of explicit maps may not be primitive yet;
    MixingError is raised only when no level is primitive.  ``converged`` is
    set when the last two values differ by less than ``tol``, or when the
    last level is the whole finite alphabet.
    """
    require_above("tol", tol, 0.0)
    if N_max < 2:
        raise DomainError(f"N_max must be >= 2, got {N_max}")
    if model.alphabet_size is not None:
        N_max = min(N_max, model.alphabet_size)
    per_level: list[tuple[int, float]] = []
    for n in _levels(N_max):
        try:
            sub = truncate(model, n)
        except MixingError:
            continue
        per_level.append((n, level_value(sub)))
    if not per_level:
        raise MixingError("no primitive truncation level available")
    converged = len(per_level) >= 2 and abs(per_level[-1][1] - per_level[-2][1]) < tol
    if model.alphabet_size is not None and per_level[-1][0] == model.alphabet_size:
        converged = True  # the final level is the whole system, not an approximation
    return PressureResult(value=per_level[-1][1], truncation_used=per_level[-1][0],
                          per_level=tuple(per_level), converged=converged, method=method)


def gurevich_pressure(model: MarkovMapModel, p: TablePotential, tol: float,
                      N_max: int) -> PressureResult:
    """Pressure over the countable system by exhaustion with truncations.

    Evaluates P_N on the doubling schedule N = 2, 4, 8, ... up to N_max and
    reports the monotone sequence.  ``converged`` is set when the last two
    levels differ by less than ``tol``; otherwise the final value is a
    certified lower bound (the sequence increases to the true pressure).
    ConvergenceError is raised if a level's bracket lies wholly below the
    level before's, since larger subsystems can only gain pressure.
    """
    rel_tol = min(tol * 1e-2, 1e-11)
    roots: list[PerronRoot] = []    # each level's root starts from the level before

    def level(sub: TruncatedSubsystem) -> float:
        length, root = _log_rho_solver(sub, p.head, roots[-1].log_rho if roots else None)
        roots.append(root(p.values_vector(length), rel_tol))
        return roots[-1].log_rho

    res = _exhaust(model, N_max, tol, level, "PERRON")
    for a, b in zip(roots, roots[1:]):
        if b.hi < a.lo:
            raise ConvergenceError(f"per-level pressures not monotone: {a.log_rho} -> {b.log_rho}")
    return res


# ---------------------------------------------------------------------------
# Closed form for the built-in family
# ---------------------------------------------------------------------------
def sv_critical_exponent(lam: float) -> float:
    """Smallest t for which the closed-form pressure formula is valid."""
    if not (0.5 < lam < 1.0):
        raise DomainError(f"lambda must lie in (1/2, 1), got {lam}")
    return -math.log(2.0) / math.log(lam)


def closed_form_pressure_sv(lam: float, t: float) -> float:
    """Exact pressure of -t log|T'| for the SV family:

        t log(1-lambda) - log(1 - lambda^t),   valid for t >= -log 2 / log lambda.

    Below that threshold the formula is not asserted and a DomainError is
    raised; use :func:`gurevich_pressure` there (lower bounds only).
    """
    t_c = sv_critical_exponent(lam)
    if t < t_c - 1e-15:
        raise DomainError(f"closed form requires t >= {t_c:.6f}, got {t}")
    return t * math.log(1.0 - lam) - math.log(1.0 - lam ** t)
