"""Reference computations made apart from markovdim.

Every check the benchmark applies to the program's outputs compares them
with a value computed here: the closed forms of the SV family evaluated
from their formulas, spectral radii from ``numpy.linalg.eigvals`` on dense
matrices the benchmark builds itself, Karp's minimum cycle mean, and Bowen
roots by bisection on eigenvalue pressures.  Nothing here imports markovdim.
"""
from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# SV closed forms
# ---------------------------------------------------------------------------
def sv_critical_t(lam: float) -> float:
    """t_c = log 2 / log(1/lambda): where lambda^t = 1/2."""
    return math.log(2.0) / -math.log(lam)


def sv_pressure(lam: float, t: float) -> float:
    """P(-t log|T'|) = t log(1-lambda) - log(1-lambda^t), for t >= t_c."""
    return t * math.log(1.0 - lam) - math.log(1.0 - lam ** t)


def sv_alpha(lam: float, t: float) -> float:
    """alpha_t = -P'(t), the Lyapunov level parameterised by t."""
    lt = lam ** t
    return -math.log(1.0 - lam) - lt * math.log(lam) / (1.0 - lt)


def sv_lyapunov_dimension(lam: float, t: float) -> float:
    """Lyapunov spectrum value g(t)/alpha_t + t at the level alpha_t."""
    return sv_pressure(lam, t) / sv_alpha(lam, t) + t


def sv_hyperbolic_dimension(lam: float) -> float:
    return math.log(4.0) / -math.log(lam * (1.0 - lam))


def sv_alpha_max(lam: float) -> float:
    """Tail value of log|T'|, the escape level."""
    return -math.log(lam * (1.0 - lam))


def sv_t_of_alpha(lam: float, alpha: float) -> float:
    """Invert alpha_t (strictly decreasing on (t_c, inf)) by bisection."""
    lo, hi = sv_critical_t(lam), sv_critical_t(lam) + 1.0
    while sv_alpha(lam, hi) > alpha:
        hi = lo + 2.0 * (hi - lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sv_alpha(lam, mid) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def sv_log_slopes(lam: float, n: int) -> np.ndarray:
    """log|T'| on branches 1..n of SV(lambda)."""
    out = np.full(n, -math.log(lam * (1.0 - lam)))
    out[0] = -math.log(1.0 - lam)
    return out


def sv_matrix(n: int) -> np.ndarray:
    """0-1 transitions of the SV n-truncation: row 1 full, row i covers j >= i-1."""
    i = np.arange(1, n + 1)[:, None]
    j = np.arange(1, n + 1)[None, :]
    return j >= np.maximum(i - 1, 1)


# ---------------------------------------------------------------------------
# Spectral radii and roots
# ---------------------------------------------------------------------------
def log_spectral_radius(adj: np.ndarray, logw: np.ndarray) -> float:
    """log of the spectral radius of adj[i, j] * exp(logw[i])."""
    shift = float(np.max(logw))
    a = adj.astype(float) * np.exp(logw - shift)[:, None]
    return math.log(float(np.max(np.abs(np.linalg.eigvals(a))))) + shift


def bowen_root(adj: np.ndarray, log_slopes: np.ndarray, tol: float = 1e-10) -> float:
    """Root s in [0, 1] of log rho(adj * exp(-s log|T'|)) = 0 (1.0 if positive at 1)."""
    if log_spectral_radius(adj, -log_slopes) > 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if log_spectral_radius(adj, -mid * log_slopes) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def perron_projection(adj: np.ndarray, logw: np.ndarray, base: int) -> tuple[float, float]:
    """(c, r): the base symbol's Perron projection u_b v_b / (u . v), and the
    ratio |lambda_2| / rho of the weighted matrix."""
    a = adj.astype(float) * np.exp(logw - float(np.max(logw)))[:, None]
    vals, right = np.linalg.eig(a)
    order = np.argsort(-np.abs(vals))
    v = np.abs(np.real(right[:, order[0]]))
    lvals, left = np.linalg.eig(a.T)
    u = np.abs(np.real(left[:, int(np.argmax(np.abs(lvals)))]))
    c = float(u[base] * v[base] / np.dot(u, v))
    ratio = float(np.abs(vals[order[1]]) / np.abs(vals[order[0]])) if len(vals) > 1 else 0.0
    return c, ratio


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------
def is_primitive(adj: np.ndarray) -> bool:
    """Wielandt: A is primitive iff A^((n-1)^2 + 1) is strictly positive."""
    n = adj.shape[0]
    power = (n - 1) ** 2 + 1
    base = adj.astype(np.int64)
    result = None
    while power:
        if power & 1:
            result = base.copy() if result is None else np.minimum(result @ base, 1)
        base = np.minimum(base @ base, 1)
        power >>= 1
    return bool((result > 0).all())


def min_cycle_mean(adj: np.ndarray, cost: np.ndarray) -> float:
    """Karp's minimum mean of node costs over the cycles of a strongly
    connected digraph, with walks from node 0."""
    n = adj.shape[0]
    d = np.full((n + 1, n), np.inf)
    d[0, 0] = 0.0
    for k in range(1, n + 1):
        d[k] = np.where(adj, (d[k - 1] + cost)[:, None], np.inf).min(axis=0)
    ks = np.arange(n)[:, None]
    with np.errstate(invalid="ignore"):
        quot = (d[n][None, :] - d[:n]) / (n - ks)
    quot = np.where(np.isfinite(d[:n]), quot, -np.inf)
    worst = quot.max(axis=0)
    return float(worst[np.isfinite(d[n])].min())


def max_cycle_mean(adj: np.ndarray, cost: np.ndarray) -> float:
    return -min_cycle_mean(adj, -cost)
