"""Spectrum engine: bounds, variational dimensions, Bowen roots, closed forms."""
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import markovdim as md
from markovdim import pressure, spectrum
from markovdim.errors import DegenerateError, DomainError, MixingError, UnboundedError
from markovdim.spectrum import _karp_critical, _karp_min_cycle_mean, _karp_table
from test_bisection import bisect

ALPHA_M_09 = 2.302585092994046          # -log(1 - 0.9)
ALPHA_MAX_09 = 2.4079456086518722       # -log(0.9 * 0.1)
ALPHA_T7_09 = 2.399179512351607
DIM_T7_09 = 0.5530297151718924
HYP_09 = 0.575716642493445              # -log 4 / log 0.09
HYP_075 = 0.8281444907572746
HYP_06 = 0.9713954686603363


def sv_setup(lam):
    m = md.build_sv_map(lam)
    return m, md.builtin_log_derivative(m), md.constant_potential(1.0)


def brute_cycle_quotients(mat, phi, psi):
    """Oracle: sum(phi)/sum(psi) over every simple cycle of a small digraph."""
    size = mat.shape[0]
    for length in range(1, size + 1):
        for nodes in itertools.permutations(range(size), length):
            if nodes[0] != min(nodes):
                continue
            if all(mat[nodes[i], nodes[(i + 1) % length]] for i in range(length)):
                yield sum(phi[v] for v in nodes) / sum(psi[v] for v in nodes)


def brute_min_cycle_mean(mat, cost):
    return min(brute_cycle_quotients(mat, cost, np.ones(mat.shape[0])))


def karp_finish_loop(table):
    """Reference: the scalar double loop that ``_karp_critical`` vectorizes."""
    n = table.shape[1]
    dn = table[n]
    best = math.inf
    for j in range(n):
        if not math.isfinite(dn[j]):
            continue
        worst = -math.inf
        for k in range(n):
            if math.isfinite(table[k, j]):
                worst = max(worst, (dn[j] - table[k, j]) / (n - k))
        if worst > -math.inf:
            best = min(best, worst)
    if not math.isfinite(best):
        raise MixingError("no cycle reachable from the base symbol")
    return best


def explicit_model(mat):
    """A model over an arbitrary transition matrix; only its graph is used."""
    n = mat.shape[0]
    return md.MarkovMapModel([md.make_branch(i, (i - 1) / n, i / n, 2.0)
                              for i in range(1, n + 1)], mat)


def seeded_dense_map(rng, m):
    """A primitive explicit map of ``m`` equal branches drawn from ``rng``.

    Branch i has integer slope k_i and maps onto the k_i adjacent branches
    from a start; the starts are spread over the interval, so every branch
    is some image's target.
    """
    while True:
        k = rng.integers(2, 5, size=m)
        start = np.minimum(rng.permutation(np.round(np.linspace(0, m - 2, m)).astype(np.int64)),
                           m - k)
        adj = np.zeros((m, m), dtype=bool)
        for i in range(m):
            adj[i, start[i]:start[i] + k[i]] = True
        if md.is_primitive(md.TruncatedSubsystem(size=m, dense=adj)):
            break
    return md.build_custom_map([md.make_branch(i + 1, i / m, (i + 1) / m, float(k[i]))
                                for i in range(m)], adj)


def dense_variational_case(seed=0):
    """(model, phi, alpha) on a seeded explicit map of 64 equal branches.
    phi is drawn in [0.5, 1.5] and alpha sits 40% of the way into its
    cycle-quotient interval."""
    rng = np.random.default_rng(seed)
    m = 64
    model = seeded_dense_map(rng, m)
    phi = md.TablePotential({(i + 1,): float(v) for i, v in enumerate(rng.uniform(0.5, 1.5, m))})
    lo, hi = md.alpha_bounds(model, phi, md.constant_potential(1.0), m)
    return model, phi, lo + 0.4 * (hi - lo)


_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def golden_inf_over_q(h, tol):
    """Oracle for the q-search: the doubling expansion from (-1, 0, 1) and the
    golden section to width ``tol`` that variational points ran before secant
    steps on the slope.  Returns (value at the bracket's midpoint, midpoint),
    an upper bound on the minimum of the convex ``h``."""
    a, b, c = -1.0, 0.0, 1.0
    fa, fb, fc = h(a), h(b), h(c)
    span = 1.0
    while fa < fb:
        a, b, c, fb, fc = a - 2.0 * span, a, b, fa, fb
        span *= 2.0
        fa = h(a)
    span = 1.0
    while fc < fb:
        a, b, c, fa, fb = b, c, c + 2.0 * span, fb, fc
        span *= 2.0
        fc = h(c)
    x1, x2 = c - _GOLD * (c - a), a + _GOLD * (c - a)
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


def bisection_inf(ev, alpha, delta, tol):
    """The oracle's q-infimum of the pressure at delta, at its q-tolerance for ``tol``."""
    q_tol = max(min(tol * 1e-1, 1e-5), 1e-8)
    return golden_inf_over_q(lambda q: ev.evaluate(q, alpha, delta)[0], q_tol)[0]


def bisection_variational_dimension(model, phi, psi, alpha, N, tol):
    """Oracle for a variational point: the bisection of delta in [0, 1] on the
    sign of the golden-section infimum, down to width ``tol``, that
    variational_dimension ran before its Newton steps."""
    ev = spectrum._PressureEvaluator(model, phi, psi, N)
    if not bisection_inf(ev, alpha, 0.0, tol) > 0.0:
        return 0.0
    return bisect(lambda d: not bisection_inf(ev, alpha, d, tol) > 0.0, 0.0, 1.0, lambda h: tol)[0]


def bisection_bowen_dimension(model, N_max, tol):
    """Oracle for a Bowen root: on each level, the halving of s in [0, 1] on
    the sign of the pressure, down to width tol/100, testing every midpoint,
    that bowen_dimension ran before its Newton steps; a level whose P(1)
    bracket lies above 0 is clipped at 1."""
    logt = md.builtin_log_derivative(model)
    rel_tol = min(tol * 1e-3, 1e-12)

    def root(sub):
        length, perron = pressure._log_rho_solver(sub, logt.head)
        logt_v = logt.values_vector(length)

        def pressure_at(s):
            return perron(-s * logt_v, rel_tol).log_rho

        if pressure_at(0.0) <= 0.0:
            raise DegenerateError(f"pressure at s=0 is nonpositive at level N={sub.size}")
        if perron(-1.0 * logt_v, rel_tol).lo > 0.0:
            return 1.0  # root clipped at the ambient dimension
        return bisect(lambda s: not pressure_at(s) > 0.0, 0.0, 1.0, lambda h: tol * 1e-2)[0]

    return pressure._exhaust(model, N_max, tol, root, "BOWEN")


def bowen_outcome(bowen, model, N_max, tol):
    """The JSON of a Bowen computation, or the type and text of its error."""
    try:
        return bowen(model, N_max, tol).to_json()
    except (DegenerateError, MixingError) as exc:
        return type(exc).__name__, str(exc)


def assert_bowen_matches_oracle(model, N_max, tol):
    got = bowen_outcome(md.bowen_dimension, model, N_max, tol)
    assert got == bowen_outcome(bisection_bowen_dimension, model, N_max, tol), (N_max, tol)
    return got


def counted_staircase_work(monkeypatch):
    """Lists that grow by one at each staircase Perron root and at each of
    its trials (a ``_staircase_tail`` call)."""
    roots, trials = [], []
    root, tail = pressure._staircase_log_rho, pressure._staircase_tail
    monkeypatch.setattr(pressure, "_staircase_log_rho",
                        lambda *a: roots.append(1) or root(*a))
    monkeypatch.setattr(pressure, "_staircase_tail", lambda *a: trials.append(1) or tail(*a))
    return roots, trials


def patched_solver(monkeypatch, shift=0.0, slope_scale=1.0):
    """Make ``bowen_dimension``'s Perron routine report log rho - ``shift``
    (its bracket too) and mu scaled by ``slope_scale`` (so the slope
    -mu . log|T'| too); the oracle keeps the real one unless ``shift`` is
    set, which it shares."""
    real = pressure._log_rho_solver

    def solver(sub, head, guess=None):
        length, root = real(sub, head, guess)

        def shifted(log_weights, rel_tol, guess=None, mu=False):
            value, lo, hi, weights = root(log_weights, rel_tol, guess, mu)
            return pressure.PerronRoot(value - shift, lo - shift, hi - shift,
                                       None if weights is None else slope_scale * weights)

        return length, shifted

    monkeypatch.setattr(spectrum, "_log_rho_solver", solver)
    if shift:
        monkeypatch.setattr(pressure, "_log_rho_solver", solver)


def tangent_certificate(ev, alpha, delta, q, half=0.5, h=1e-6):
    """An independent lower bound on the q-infimum at delta: the meeting value
    of the tangents at q - half and q + half, slopes by central differences."""
    def p(x):
        return ev.evaluate(x, alpha, delta)[0]

    qa, qb = q - half, q + half
    sa, sb = [(p(x + h) - p(x - h)) / (2 * h) for x in (qa, qb)]
    assert sa < 0.0 < sb, "the tangent points must straddle the minimum"
    cross = (p(qb) - p(qa) + sa * qa - sb * qb) / (sa - sb)
    return p(qa) + sa * (cross - qa)


def counted_evaluations(monkeypatch):
    """A list that grows by one at each pressure evaluation of a q-search."""
    calls = []
    real = spectrum._PressureEvaluator.evaluate
    monkeypatch.setattr(spectrum._PressureEvaluator, "evaluate",
                        lambda self, *a: calls.append(1) or real(self, *a))
    return calls


def eig_log_rho_mu(matrix, log_weights, rel_tol, guess=None, mu=False):
    """Dense-eigensolver stand-in for the power iteration and its gradient,
    with a bracket of the root alone."""
    shift = float(np.max(log_weights))
    a = matrix.astype(float) * np.exp(log_weights - shift)[:, None]
    roots, vectors = [], []
    for m in (a, a.T):
        values, vecs = np.linalg.eig(m)
        i = int(np.argmax(np.abs(values)))
        roots.append(float(abs(values[i])))
        vectors.append(np.abs(vecs[:, i].real))
    uv = vectors[0] * vectors[1]
    log_rho = math.log(roots[0]) + shift
    return pressure.PerronRoot(log_rho, log_rho, log_rho, uv / uv.sum())


@st.composite
def dense_cycle_case(draw):
    n = draw(st.integers(2, 7))
    mat = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    mat = mat.reshape(n, n)
    if draw(st.booleans()):
        np.fill_diagonal(mat, True)
    phi = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    psi = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)))
    return mat, phi, psi


class TestAlphaBounds:
    def test_sv_lyapunov_exact(self):
        # the self-loop rule reads the closed-form endpoints off log|T'| itself
        for lam in (0.51, 0.6, 0.75, 0.9, 0.99):
            m, logt, one = sv_setup(lam)
            for N in (2, 8, 512, 4096):
                assert md.alpha_bounds(m, logt, one, N) == md.sv_alpha_bounds(lam)

    def test_equal_potentials(self):
        m, logt, one = sv_setup(0.9)
        assert md.alpha_bounds(m, logt, logt, 8) == (1.0, 1.0)

    def test_full_2_shift_indicator(self):
        branches = [md.make_branch(1, 0.0, 0.5, 2.0), md.make_branch(2, 0.5, 1.0, 2.0)]
        cm = md.build_custom_map(branches, np.ones((2, 2), dtype=bool))
        phi = md.TablePotential({(1,): 0.0, (2,): 1.0})
        lo, hi = md.alpha_bounds(cm, phi, md.constant_potential(1.0), 2)
        assert lo == pytest.approx(0.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)

    def test_tiny_ratios_keep_their_span(self):
        # equal ratios are judged relative to their scale: 1e-20 and 3e-20
        # are as far apart as 1 and 3
        branches = [md.make_branch(1, 0.0, 0.5, 2.0), md.make_branch(2, 0.5, 1.0, 2.0)]
        cm = md.build_custom_map(branches, "full")
        one = md.constant_potential(1.0)
        for scale in (1e-20, 1.0):
            phi = md.TablePotential({(1,): 1.0 * scale, (2,): 3.0 * scale})
            assert md.alpha_bounds(cm, phi, one, 2) == (1.0 * scale, 3.0 * scale)

    def test_floor_required(self):
        m, logt, _ = sv_setup(0.9)
        psi = md.TablePotential({(1,): 1.0}, default=1.0)  # no declared floor
        with pytest.raises(DomainError):
            md.alpha_bounds(m, logt, psi, 8)

    def test_karp_against_bruteforce(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 20:
            n = int(rng.integers(2, 6))
            mat = rng.random((n, n)) < 0.55
            sub = md.TruncatedSubsystem(size=n, dense=mat)
            if not (mat.any(axis=0).all() and mat.any(axis=1).all()
                    and md.is_primitive(sub)):
                continue
            cost = rng.normal(0.0, 1.0, n)
            assert _karp_min_cycle_mean(sub, cost) == \
                pytest.approx(brute_min_cycle_mean(mat, cost), abs=1e-12)
            checked += 1

    @settings(max_examples=150, deadline=None)
    @given(case=dense_cycle_case(), offsets=st.lists(st.floats(1e-6, 2.0), min_size=4,
                                                     max_size=4))
    def test_dense_bounds_against_cycle_enumeration(self, case, offsets):
        mat, phi_v, psi_v = case
        n = mat.shape[0]
        assume(psi_v.min() < psi_v.max())
        assume(md.is_primitive(md.TruncatedSubsystem(size=n, dense=mat)))
        phi = md.TablePotential({(i + 1,): v for i, v in enumerate(phi_v)})
        psi = md.TablePotential({(i + 1,): v for i, v in enumerate(psi_v)},
                                positivity_floor=float(psi_v.min()))
        quotients = list(brute_cycle_quotients(mat, phi_v, psi_v))
        lo, hi = md.alpha_bounds(explicit_model(mat), phi, psi, n)
        assert lo == pytest.approx(min(quotients), abs=1e-12)
        assert hi == pytest.approx(max(quotients), abs=1e-12)
        # each bound is attained: the quotient of a simple cycle, so never outside
        for bound in (lo, hi):
            assert any(abs(bound - q) <= 4 * math.ulp(q) for q in quotients)
            assert min(quotients) <= bound <= max(quotients)
        mid = 0.5 * (lo + hi)
        for cost in (phi_v, phi_v - mid * psi_v, mid * psi_v - phi_v):
            table = _karp_table(mat, cost)
            assert _karp_critical(table)[0] == karp_finish_loop(table)
        # the range check of a single point: DomainError exactly off the open interval
        q_lo, q_hi = min(quotients), max(quotients)
        alphas = [q_lo - offsets[0], q_lo + offsets[1], q_hi - offsets[2], q_hi + offsets[3]]
        with mock.patch.object(spectrum, "_variational_point", return_value="point"):
            for alpha in alphas:
                if q_lo < alpha < q_hi:
                    got = md.variational_dimension(explicit_model(mat), phi, psi, alpha, n, 0.1)
                    assert got == "point"
                else:
                    with pytest.raises(DomainError, match="outside the open interval"):
                        md.variational_dimension(explicit_model(mat), phi, psi, alpha, n, 0.1)

    def test_two_disjoint_optimal_cycles(self):
        # cycles (1 2) and (3 4) both have mean 2; the cycle through 5 joins them
        mat = np.zeros((5, 5), dtype=bool)
        for i, j in [(0, 1), (1, 0), (1, 4), (4, 2), (2, 3), (3, 2), (3, 0)]:
            mat[i, j] = True
        phi_v, psi_v = np.array([1.0, 3.0, 0.0, 4.0, -5.0]), np.ones(5)
        phi = md.TablePotential({(i + 1,): v for i, v in enumerate(phi_v)})
        assert sorted(brute_cycle_quotients(mat, phi_v, psi_v)) == [0.6, 2.0, 2.0]
        assert md.alpha_bounds(explicit_model(mat), phi, md.constant_potential(1.0), 5) == \
            (0.6, 2.0)

    def test_walk_holding_two_cycles_takes_the_best(self):
        # at alpha = the least node ratio the least-mean walk holds the cycles
        # (1 5 2) and (1 2), of equal mean but quotients 2/7 and 1
        mat = np.array([[0, 1, 0, 1, 1], [1, 0, 1, 0, 0], [0, 1, 0, 0, 0],
                        [0, 0, 1, 0, 0], [0, 1, 0, 0, 0]], dtype=bool)
        phi_v, psi_v = np.array([3.0, 1.0, 2.0, -4.0, -2.0]), np.array([3.0, 1.0, 2.0, 1.0, 3.0])
        cost = (phi_v / psi_v).min() * psi_v - phi_v
        table = _karp_table(mat, cost)
        cycles = spectrum._walk_cycles(mat, cost, table, spectrum._karp_critical(table)[1])
        assert cycles == [[0, 4, 1], [0, 1]]
        phi = md.TablePotential({(i + 1,): v for i, v in enumerate(phi_v)})
        psi = md.TablePotential({(i + 1,): v for i, v in enumerate(psi_v)}, positivity_floor=1.0)
        quotients = list(brute_cycle_quotients(mat, phi_v, psi_v))
        assert md.alpha_bounds(explicit_model(mat), phi, psi, 5) == \
            (min(quotients), max(quotients)) == (2.0 / 7.0, 1.0)

    def test_weighted_denominator_bounds_are_cycle_quotients(self):
        # psi != 1: node ratios run from -2 to 2, the cycle quotients from 5/9 to 1.2
        mat = np.array([[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [1, 1, 0, 0, 1],
                        [1, 1, 1, 0, 1], [0, 1, 1, 1, 0]], dtype=bool)
        phi_v, psi_v = np.array([2.0, 1.0, 2.0, -2.0, 4.0]), np.array([3.0, 3.0, 3.0, 1.0, 2.0])
        phi = md.TablePotential({(i + 1,): v for i, v in enumerate(phi_v)})
        psi = md.TablePotential({(i + 1,): v for i, v in enumerate(psi_v)}, positivity_floor=1.0)
        quotients = list(brute_cycle_quotients(mat, phi_v, psi_v))
        assert md.alpha_bounds(explicit_model(mat), phi, psi, 5) == \
            (min(quotients), max(quotients)) == (5.0 / 9.0, 1.2)

    def test_cycle_unreachable_from_node_1(self):
        # node 1 has no out-edge: truncate refuses the map, and the Karp route
        # refuses the subsystem, whose extreme nodes have no self-loop
        mat = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=bool)
        phi_v, psi_v = np.array([0.0, 1.0, 2.0]), np.ones(3)
        phi = md.TablePotential({(i + 1,): v for i, v in enumerate(phi_v)})
        with pytest.raises(MixingError):
            md.alpha_bounds(explicit_model(mat), phi, md.constant_potential(1.0), 3)
        sub = md.TruncatedSubsystem(size=3, dense=mat)
        for maximize in (False, True):
            with pytest.raises(MixingError):
                spectrum._extreme_cycle_ratio(sub, phi_v, psi_v, maximize)

    def test_dense_bounds_take_few_karp_tables(self, monkeypatch):
        # Newton steps on the cycle quotient: a table to find a cycle and one
        # to confirm nothing lies beyond it, per end, on 64-branch maps
        rng = np.random.default_rng(13)
        mat = rng.random((64, 64)) < 0.1
        np.fill_diagonal(mat, False)
        mat[np.arange(64), (np.arange(64) + 1) % 64] = True
        hamiltonian = (explicit_model(mat), md.TablePotential(
            {(i + 1,): v for i, v in enumerate(rng.uniform(0.5, 1.5, 64))}))
        calls = []
        real = spectrum._karp_table
        monkeypatch.setattr(spectrum, "_karp_table", lambda *a: calls.append(1) or real(*a))
        for model, phi in (dense_variational_case()[:2], hamiltonian):
            calls.clear()
            md.alpha_bounds(model, phi, md.constant_potential(1.0), 64)
            assert 0 < len(calls) <= 8

    def test_karp_finish_unreachable_cycle(self):
        # node 1 has no out-edge, so no walk from it reaches a cycle
        table = _karp_table(np.array([[0, 0], [1, 1]], dtype=bool), np.array([1.0, 2.0]))
        for finish in (lambda t: _karp_critical(t)[0], karp_finish_loop):
            with pytest.raises(MixingError):
                finish(table)

    @pytest.mark.parametrize("lam", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("phi,psi", [
        (md.builtin_tail_potential(2.0, {1: 1.0, 2: 1.5}), md.constant_potential(1.0)),
        (md.builtin_tail_potential(0.0, {1: 0.8, 2: -0.8, 5: 0.3}),
         md.constant_potential(1.0)),
        (md.builtin_tail_potential(1.3, {2: -0.4, 3: 2.2}),
         md.builtin_tail_potential(0.7, {1: 1.9, 3: 0.5})),
    ])
    def test_rule_based_bounds_are_exact_node_extremes(self, lam, phi, psi):
        # every staircase symbol has a self-loop, so the extreme node ratios
        # are cycle quotients themselves
        n = 32
        ratios = phi.values_vector(n) / psi.values_vector(n)
        want = (ratios.min(), ratios.max())
        assert md.alpha_bounds(md.build_sv_map(lam), phi, psi, n) == want
        if psi.is_constant():
            grid = np.linspace(want[0], want[1], 4)[1:-1]
            curve = md.full_birkhoff_spectrum_sv(lam, phi, grid, N=n, tol=1e-2)
            assert (curve.alpha_min, curve.alpha_max) == want

    def test_full_rule_bounds_are_exact_node_extremes(self):
        branches = [md.make_branch(i + 1, i / 4, (i + 1) / 4, 4.0) for i in range(4)]
        cm = md.build_custom_map(branches, "full")
        phi = md.TablePotential({(1,): 0.3, (2,): -1.1, (3,): 2.7, (4,): 0.9})
        values = phi.values_vector(4)
        assert md.alpha_bounds(cm, phi, md.constant_potential(1.0), 4) == \
            (values.min(), values.max())

    def test_karp_staircase_path_matches_dense(self):
        m = md.build_sv_map(0.85)
        sub = md.truncate(m, 12)
        dense = md.TruncatedSubsystem(size=12, dense=sub.matrix)
        rng = np.random.default_rng(3)
        for _ in range(5):
            cost = rng.normal(0.0, 1.0, 12)
            assert _karp_min_cycle_mean(sub, cost) == \
                pytest.approx(_karp_min_cycle_mean(dense, cost), abs=1e-12)


class TestInfPressureOverQ:
    def test_zero_at_critical_delta(self):
        m, logt, one = sv_setup(0.9)
        pt = md.lyapunov_closed_form(0.9, 7.0)
        val, q_star = md.inf_pressure_over_q(m, logt, one, pt.alpha, pt.dimension,
                                             512, 1e-6)
        assert abs(val) < 1e-6
        # tangency structure: the minimizer sits at delta - t
        assert q_star == pytest.approx(pt.dimension - 7.0, abs=1e-3)

    def test_positive_at_delta_zero(self):
        m, logt, one = sv_setup(0.9)
        val, _ = md.inf_pressure_over_q(m, logt, one, 2.36, 0.0, 128, 1e-6)
        assert val > 0.0

    def test_flat_family(self):
        m, logt, _ = sv_setup(0.9)
        one = md.constant_potential(1.0)
        val, _ = md.inf_pressure_over_q(m, one, one, 1.0, 0.3, 64, 1e-6)
        ref = md.perron_pressure(md.truncate(m, 64),
                                 md.combine(0.0, one, 0.0, one, 0.3, logt), 1e-12)
        assert val == pytest.approx(ref, abs=1e-9)

    def test_edge_alpha_unbounded(self):
        # beyond the truncated spectrum the function has no minimum in q
        branches = [md.make_branch(1, 0.0, 0.5, 2.0), md.make_branch(2, 0.5, 1.0, 2.0)]
        cm = md.build_custom_map(branches, np.ones((2, 2), dtype=bool))
        phi = md.TablePotential({(1,): 0.0, (2,): 1.0})
        with pytest.raises(UnboundedError):
            md.inf_pressure_over_q(cm, phi, md.constant_potential(1.0), 1.5, 0.2,
                                   2, 1e-6)

    def test_slope_too_small_to_step_ends_the_search(self):
        # a warm start whose slope over the curvature cannot move q
        calls = []

        def h(q):
            calls.append(q)
            return (q - 3.0) ** 2, 1e-300, -1.0

        found = spectrum._minimize_over_q(h, 3.0, lambda *a: False, 1.0)
        assert (found.best, found.lower, found.q) == (0.0, 0.0, 3.0) and calls == [3.0]

    def test_delta_validated(self):
        m, logt, one = sv_setup(0.9)
        with pytest.raises(DomainError):
            md.inf_pressure_over_q(m, logt, one, 2.36, 1.5, 32, 1e-6)

    def test_strictly_decreasing_in_delta(self):
        # the expansion bound makes the q-infimum drop by at least
        # (delta2 - delta1) * log(xi) between delta levels
        m, logt, one = sv_setup(0.9)
        floor = math.log(m.expansion_floor)
        deltas = (0.0, 0.25, 0.5, 0.75, 1.0)
        vals = [md.inf_pressure_over_q(m, logt, one, 2.37, d, 128, 1e-6)[0]
                for d in deltas]
        for (d1, v1), (d2, v2) in zip(zip(deltas, vals), zip(deltas[1:], vals[1:])):
            assert v2 <= v1 - (d2 - d1) * floor + 1e-6


class TestVariationalDimension:
    def test_matches_closed_form_t7(self):
        m, logt, one = sv_setup(0.9)
        pt = md.variational_dimension(m, logt, one, ALPHA_T7_09, 512, 1e-4)
        assert pt.source == "VARIATIONAL"
        assert pt.dimension == pytest.approx(DIM_T7_09, abs=1e-3)

    def test_small_near_alpha_m(self):
        m, logt, one = sv_setup(0.9)
        a30 = md.sv_alpha_of_t(0.9, 30.0)
        a20 = md.sv_alpha_of_t(0.9, 20.0)
        d30 = md.variational_dimension(m, logt, one, a30, 256, 1e-3).dimension
        d20 = md.variational_dimension(m, logt, one, a20, 256, 1e-3).dimension
        assert d30 < 0.1
        assert d30 < d20  # spectrum decreases toward the left endpoint

    def test_degenerate_interval_rejected(self):
        m, logt, _ = sv_setup(0.9)
        with pytest.raises(DomainError):
            md.variational_dimension(m, logt, logt, 1.0, 64, 1e-3)

    def test_range_check_costs_two_cycle_sign_tests(self, monkeypatch):
        # 64 branches, no self-loops: each side of the check needs one Karp table
        rng = np.random.default_rng(13)
        n = 64
        mat = rng.random((n, n)) < 0.1
        np.fill_diagonal(mat, False)
        mat[np.arange(n), (np.arange(n) + 1) % n] = True      # one Hamiltonian cycle
        model = explicit_model(mat)
        phi = md.TablePotential({(i + 1,): v for i, v in enumerate(rng.uniform(0.5, 1.5, n))})
        one = md.constant_potential(1.0)
        lo, hi = md.alpha_bounds(model, phi, one, n)
        calls = []

        def counting(name):
            real = getattr(spectrum, name)
            return lambda *a: calls.append(name) or real(*a)

        for name in ("alpha_bounds", "_extreme_cycle_ratio", "_karp_table"):
            monkeypatch.setattr(spectrum, name, counting(name))
        pt = md.variational_dimension(model, phi, one, 0.5 * (lo + hi), n, 1e-2)
        assert 0.0 <= pt.dimension <= 1.0
        assert "alpha_bounds" not in calls and "_extreme_cycle_ratio" not in calls
        assert calls.count("_karp_table") <= 2

    def test_dense_point_matches_eigvals_search(self, monkeypatch):
        model, phi, alpha = dense_variational_case()
        one = md.constant_potential(1.0)
        tol = 1e-3
        got = md.variational_dimension(model, phi, one, alpha, 64, tol).dimension
        monkeypatch.setattr(pressure, "_power_log_rho", eig_log_rho_mu)
        want = md.variational_dimension(model, phi, one, alpha, 64, tol).dimension
        bowen = md.bowen_dimension(model, 64, 1e-9).value
        assert abs(got - want) <= tol
        assert got <= bowen + tol / 2

    def test_dense_pressure_convex_in_q(self):
        model, phi, alpha = dense_variational_case()
        sub = md.truncate(model, 64)
        logt = md.builtin_log_derivative(model)
        one = md.constant_potential(1.0)
        rng = np.random.default_rng(81)
        for _ in range(100):
            delta = rng.uniform(0.0, 1.0)
            q1, q2 = np.sort(rng.uniform(-8.0, 8.0, 2))

            def h(q):
                return md.perron_pressure(
                    sub, md.combine(q, phi, alpha, one, delta, logt), 1e-12)

            assert h(0.5 * (q1 + q2)) <= 0.5 * (h(q1) + h(q2)) + 1e-9

    def test_endpoint_rejected(self):
        m, logt, one = sv_setup(0.9)
        with pytest.raises(DomainError):
            md.variational_dimension(m, logt, one, ALPHA_M_09, 64, 1e-3)
        with pytest.raises(DomainError):
            md.variational_dimension(m, logt, one, 2.5, 64, 1e-3)

    def test_monotone_in_truncation(self):
        m, logt, one = sv_setup(0.9)
        dims = [md.variational_dimension(m, logt, one, ALPHA_T7_09, n, 1e-5).dimension
                for n in (32, 64, 128)]
        assert all(b >= a - 1e-4 for a, b in zip(dims, dims[1:]))

    def test_bounded_by_bowen(self):
        m, logt, one = sv_setup(0.9)
        bowen = md.bowen_dimension(m, 128, 1e-6).value
        for alpha in (2.33, 2.37, 2.40):
            d = md.variational_dimension(m, logt, one, alpha, 128, 1e-4).dimension
            assert d <= bowen + 2e-4

    def test_bracket_width(self):
        # the bracket is tol wide, the dimension its midpoint, and each end
        # carries its certificate, checked here by independent means
        m, logt, one = sv_setup(0.9)
        tol = 1e-2
        pt = md.variational_dimension(m, logt, one, 2.38, 64, tol)
        lo, hi = pt.bracket
        assert 0.0 < lo < hi and hi - lo <= tol * (1 + 1e-12)
        assert pt.dimension == 0.5 * lo + 0.5 * hi
        ev = spectrum._PressureEvaluator(m, logt, one, 64)
        assert bisection_inf(ev, 2.38, hi, tol) <= 0.0
        q = golden_inf_over_q(lambda x: ev.evaluate(x, 2.38, lo)[0], 1e-6)[1]
        assert tangent_certificate(ev, 2.38, lo, q) > 0.0

    @pytest.mark.parametrize("lam", [0.6, 0.75, 0.9])
    def test_newton_point_against_bisection_oracle(self, lam):
        m, logt, one = sv_setup(lam)
        ev = spectrum._PressureEvaluator(m, logt, one, 128)
        for t in (md.sv_critical_exponent(lam) + 0.2, 7.0, 12.0):
            for tol in (1e-2, 1e-3):
                ref = md.lyapunov_closed_form(lam, t)
                pt = md.variational_dimension(m, logt, one, ref.alpha, 128, tol)
                want = bisection_variational_dimension(m, logt, one, ref.alpha, 128, tol)
                assert abs(pt.dimension - want) <= tol, (lam, t, tol)
                assert bisection_inf(ev, ref.alpha, pt.bracket[1], tol) <= 0.0
                assert pt.dimension <= ref.dimension + tol / 2

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_tail_potential_against_bisection_oracle(self, alpha):
        model, one = md.build_sv_map(0.9), md.constant_potential(1.0)
        phi = md.builtin_tail_potential(2.0, {1: 1.0, 2: 1.5})
        ev = spectrum._PressureEvaluator(model, phi, one, 128)
        for tol in (1e-2, 1e-3):
            pt = md.variational_dimension(model, phi, one, alpha, 128, tol)
            want = bisection_variational_dimension(model, phi, one, alpha, 128, tol)
            assert abs(pt.dimension - want) <= tol
            assert bisection_inf(ev, alpha, pt.bracket[1], tol) <= 0.0

    @pytest.mark.parametrize("scale", [0.5, 3.0])
    def test_newton_with_a_wrong_delta_slope_still_ends(self, scale, monkeypatch):
        # a slope off by this factor makes Newton steps overshoot (0.5) or
        # creep (3); the certificates keep the value, and halving a step that
        # stops shrinking keeps the search finite
        m, logt, one = sv_setup(0.6)
        alpha = md.sv_alpha_of_t(0.6, md.sv_critical_exponent(0.6) + 0.2)
        want = md.variational_dimension(m, logt, one, alpha, 128, 1e-3)
        real, calls = spectrum._PressureEvaluator.evaluate, []

        def skewed(self, q, alpha, delta):
            calls.append(1)
            assert len(calls) <= 200, "the delta search does not end"
            value, dq, dd = real(self, q, alpha, delta)
            return value, dq, scale * dd

        monkeypatch.setattr(spectrum._PressureEvaluator, "evaluate", skewed)
        got = md.variational_dimension(m, logt, one, alpha, 128, 1e-3)
        assert abs(got.dimension - want.dimension) <= 1e-3
        assert got.bracket[1] - got.bracket[0] <= 1e-3 * (1 + 1e-12)

    def test_evaluations_per_point(self, monkeypatch):
        # the bisection took 352-615 pressure evaluations per point
        calls = counted_evaluations(monkeypatch)
        cases = []
        for lam in (0.6, 0.75, 0.9):
            m, logt, one = sv_setup(lam)
            t_c = md.sv_critical_exponent(lam)
            cases += [(m, logt, one, md.sv_alpha_of_t(lam, t), n, tol)
                      for t in (t_c + 0.01, t_c + 0.2, 7.0, 12.0, 30.0)
                      for n, tol in ((128, 1e-3), (512, 1e-4), (512, 1e-6))]
        m, one = md.build_sv_map(0.9), md.constant_potential(1.0)
        phi = md.builtin_tail_potential(2.0, {1: 1.0, 2: 1.5})
        cases += [(m, phi, one, alpha, 128, 1e-3) for alpha in np.linspace(1.05, 1.95, 7)]
        model, phi, alpha = dense_variational_case()
        cases += [(model, phi, one, alpha, 64, tol) for tol in (1e-3, 1e-4)]
        for case in cases:
            calls.clear()
            pt = md.variational_dimension(*case)
            assert 0 < len(calls) <= 40, (case[3:], len(calls))
            assert pt.delta_iterations <= len(calls)

    @pytest.mark.parametrize("lam", [0.6, 0.75, 0.9])
    def test_closed_form_agreement_grid(self, lam):
        m, logt, one = sv_setup(lam)
        t_c = md.sv_critical_exponent(lam)
        for t in (t_c + 0.2, 7.0, 10.0, 20.0):
            ref = md.lyapunov_closed_form(lam, t)
            pt = md.variational_dimension(m, logt, one, ref.alpha, 512, 1e-4)
            assert pt.dimension == pytest.approx(ref.dimension, abs=1e-3), (lam, t)


class TestBowen:
    @pytest.mark.parametrize("lam,target", [(0.6, HYP_06), (0.75, HYP_075), (0.9, HYP_09)])
    def test_converges_to_hyperbolic_dimension(self, lam, target):
        rep = md.bowen_dimension(md.build_sv_map(lam), 256, 1e-6)
        assert rep.value == pytest.approx(target, abs=1e-3)
        vals = [s for _, s in rep.per_level]
        assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))

    def test_to_dict(self):
        d = md.bowen_dimension(md.build_sv_map(0.9), 64, 1e-6).to_dict()
        assert d["method"] == "BOWEN"
        assert sorted(d) == ["converged", "method", "per_level", "value"]

    def test_per_level_monotone_where_roots_reach_one(self):
        # from N = 64 on, P_N(1) of this recurrent tail is 0 up to roundoff;
        # a level is clipped at 1 only when its bracket lies above 0, so no
        # level reads 1 while a later one reads less
        r = 0.4
        head = [md.make_branch(1, r, 1.0, 1.0 / (1.0 - r)),
                md.make_branch(2, r * r, r, 1.0 / (r - r * r))]
        tailed = md.build_custom_map(head, "staircase", tail={"from_index": 3, "ratio": r})
        vals = [s for _, s in md.bowen_dimension(tailed, 1024, 1e-6).per_level]
        assert vals == sorted(vals) and vals[-1] == 1.0 - 2.0 ** -28

    def test_doubling_slope_custom(self):
        branches = [md.make_branch(1, 0.0, 0.5, 2.0), md.make_branch(2, 0.5, 1.0, 2.0)]
        cm = md.build_custom_map(branches, np.ones((2, 2), dtype=bool))
        rep = md.bowen_dimension(cm, 16, 1e-9)
        assert rep.value == pytest.approx(1.0, abs=1e-8)

    @staticmethod
    def _two_block_map(rows):
        # four slope-2 branches of length 0.2 in two blocks around the hole
        # (0.4, 0.6); each row maps onto one block, so N = 2 sees no transition
        edges = [(0.0, 0.2), (0.2, 0.4), (0.6, 0.8), (0.8, 1.0)]
        branches = [md.make_branch(i + 1, a, b, 2.0) for i, (a, b) in enumerate(edges)]
        return md.build_custom_map(branches, np.array(rows, dtype=bool))

    def test_skips_leading_levels_that_are_not_primitive(self):
        rows = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]]
        rep = md.bowen_dimension(self._two_block_map(rows), 64, 1e-9)
        # every slope is 2, so P(-s log|T'|) = log rho - s log 2 vanishes at log2 rho
        rho = float(np.max(np.abs(np.linalg.eigvals(np.array(rows, dtype=float)))))
        assert [n for n, _ in rep.per_level] == [4]
        assert rep.converged
        assert rep.value == pytest.approx(math.log2(rho), abs=1e-9)

    def test_no_primitive_level(self):
        rows = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]  # period 2
        with pytest.raises(MixingError):
            md.bowen_dimension(self._two_block_map(rows), 64, 1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            md.bowen_dimension(md.build_sv_map(0.9), 1, 1e-4)
        with pytest.raises(DomainError):
            md.bowen_dimension(md.build_sv_map(0.9), 64, -1.0)


class TestBowenReplay:
    """The Newton steps and the replayed halving against the plain halving,
    bit for bit (``bisection_bowen_dimension``)."""

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(0.5, 0.99, exclude_min=True), n_max=st.integers(2, 8192),
           log_tol=st.floats(-9.0, -2.0))
    def test_sv_matches_oracle(self, lam, n_max, log_tol):
        assert_bowen_matches_oracle(md.build_sv_map(lam), n_max, 10.0 ** log_tol)

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_maps_match_oracle(self, seed):
        # power iteration: on a banded map every level is primitive and each
        # root lies below 1, and on the seeded map of 32 branches only the
        # whole system is primitive, with its root at 1
        rng = np.random.default_rng([seed, 25])
        m = 40
        k = rng.integers(3, 5, size=m)
        adj = np.zeros((m, m), dtype=bool)
        for i in range(m):      # branch i maps onto k_i branches from i - 1
            first = min(max(i - 1, 0), m - k[i])
            adj[i, first:first + k[i]] = True
        banded = md.build_custom_map([md.make_branch(i + 1, i / m, (i + 1) / m, float(k[i]))
                                      for i in range(m)], adj)
        for tol in (1e-9, 1e-6, 1e-3):
            got = json.loads(assert_bowen_matches_oracle(banded, m, tol))
            assert len(got["per_level"]) == 6 and got["per_level"][-2][1] < 0.99
        seeded = seeded_dense_map(rng, 32)
        for tol in (1e-9, 1e-6):
            assert_bowen_matches_oracle(seeded, 32, tol)

    def test_tail_and_full_maps_match_oracle(self):
        # a staircase with an explicit head and a recurrent tail, and a full
        # map whose root is 1 up to roundoff
        r = 0.4
        head = [md.make_branch(1, r, 1.0, 1.0 / (1.0 - r)),
                md.make_branch(2, r * r, r, 1.0 / (r - r * r))]
        tailed = md.build_custom_map(head, "staircase", tail={"from_index": 3, "ratio": r})
        full = md.build_custom_map([md.make_branch(1, 0.0, 0.3, 1.0 / 0.3),
                                    md.make_branch(2, 0.3, 1.0, 1.0 / 0.7)], "full")
        for model in (tailed, full):
            for tol in (1e-9, 1e-6, 1e-3):
                assert_bowen_matches_oracle(model, 1024, tol)

    @pytest.mark.parametrize("rows", [
        [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]],
        [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]],   # MixingError
    ])
    def test_two_block_maps_match_oracle(self, rows):
        model = TestBowen._two_block_map(rows)
        for tol in (1e-9, 1e-6):
            assert_bowen_matches_oracle(model, 64, tol)

    def test_root_clipped_at_one(self, monkeypatch):
        # the full map is the whole system at N = 3, where P(1) is 0 up to
        # roundoff: its bracket holds 0, so the level is not clipped, and the
        # halving's last bracket ends at 1
        edges = [0.0, 0.025, 0.075, 1.0]
        model = md.build_custom_map([md.make_branch(i + 1, a, b, 1.0 / (b - a))
                                     for i, (a, b) in enumerate(zip(edges, edges[1:]))], "full")
        got = json.loads(assert_bowen_matches_oracle(model, 8, 1e-6))
        assert got["per_level"][-1] == [3, 1.0 - 2.0 ** -28] and got["per_level"][0][1] < 1.0
        # raised by 1e-9, P(1)'s bracket lies above 0 and the level is clipped
        patched_solver(monkeypatch, shift=-1e-9)
        got = json.loads(assert_bowen_matches_oracle(model, 8, 1e-6))
        assert got["per_level"][-1] == [3, 1.0] and got["per_level"][0][1] < 1.0

    def test_degenerate_level_matches_oracle(self, monkeypatch):
        patched_solver(monkeypatch, shift=10.0)    # P(0) <= 0 at every level
        got = assert_bowen_matches_oracle(md.build_sv_map(0.75), 64, 1e-6)
        assert got == ("DegenerateError", "pressure at s=0 is nonpositive at level N=2")

    @pytest.mark.parametrize("scale", [0.5, 10.0])
    def test_slope_that_is_off_falls_back_to_the_replay(self, scale, monkeypatch):
        # a slope off by this factor makes the Newton steps overshoot (0.5)
        # or creep (10); the sign tests then settle less, and the replay
        # tests the midpoints they leave, so the value stays the halving's
        model = md.build_sv_map(0.75)
        roots, _ = counted_staircase_work(monkeypatch)
        want = bowen_outcome(bisection_bowen_dimension, model, 256, 1e-6)
        roots.clear()
        md.bowen_dimension(model, 256, 1e-6)
        plain = len(roots)
        patched_solver(monkeypatch, slope_scale=scale)
        roots.clear()
        assert bowen_outcome(md.bowen_dimension, model, 256, 1e-6) == want
        assert len(roots) > plain + 8

    @pytest.mark.parametrize("lam", [0.6, 0.75, 0.9])
    def test_perron_roots_per_call(self, lam, monkeypatch):
        # the plain halving took 290 roots and 3652-4205 trials here
        roots, trials = counted_staircase_work(monkeypatch)
        md.bowen_dimension(md.build_sv_map(lam), 1024, 1e-6)
        assert len(roots) <= 100 and len(trials) <= 1000


class TestLyapunovClosedForm:
    def test_frozen_point(self):
        pt = md.lyapunov_closed_form(0.9, 7.0)
        assert pt.alpha == pytest.approx(ALPHA_T7_09, rel=1e-13)
        assert pt.dimension == pytest.approx(DIM_T7_09, rel=1e-12)
        assert pt.source == "CLOSED_FORM"

    def test_left_limit_equals_hyperbolic_dimension(self):
        tc = md.sv_critical_exponent(0.9)
        pt = md.lyapunov_closed_form(0.9, tc + 1e-6)
        assert pt.dimension == pytest.approx(HYP_09, abs=1e-6)
        assert pt.alpha == pytest.approx(ALPHA_MAX_09, abs=1e-6)

    def test_deep_tail(self):
        # alpha -> alpha_m and dimension -> 0 as t grows
        pt40 = md.lyapunov_closed_form(0.9, 40.0)
        assert abs(pt40.alpha - ALPHA_M_09) < 2e-3
        assert pt40.dimension < 0.05
        pt60 = md.lyapunov_closed_form(0.9, 60.0)
        assert abs(pt60.alpha - ALPHA_M_09) < abs(pt40.alpha - ALPHA_M_09)
        assert pt60.dimension < pt40.dimension

    def test_threshold_rejected(self):
        tc = md.sv_critical_exponent(0.9)
        with pytest.raises(DomainError):
            md.lyapunov_closed_form(0.9, tc)


def derivative_identity_check(lam, t, h):
    """Oracle: the central difference of the closed-form pressure g at t,
    and alpha_t = -g'(t); their sum is O(h^2).  The closed form refuses a
    stencil that reaches below the critical exponent."""
    g = md.closed_form_pressure_sv
    return (g(lam, t + h) - g(lam, t - h)) / (2.0 * h), md.sv_alpha_of_t(lam, t)


class TestDerivativeIdentity:
    @pytest.mark.parametrize("lam,t", [(0.9, 8.0), (0.75, 5.0)])
    def test_agreement(self, lam, t):
        fd, alpha_t = derivative_identity_check(lam, t, 1e-4)
        assert abs(fd + alpha_t) < 1e-6

    def test_second_order(self):
        e1 = abs(sum(derivative_identity_check(0.9, 8.0, 1e-3)))
        e2 = abs(sum(derivative_identity_check(0.9, 8.0, 5e-4)))
        assert e2 < e1 / 3.0  # halving h shrinks the error about 4x

    def test_stencil_domain(self):
        tc = md.sv_critical_exponent(0.9)
        with pytest.raises(DomainError):
            derivative_identity_check(0.9, tc + 1e-5, 1e-4)


class TestFullSpectrum:
    def test_lyapunov_case_has_jump(self):
        m, logt, one = sv_setup(0.9)
        grid = np.linspace(2.32, 2.405, 7)
        curve = md.full_birkhoff_spectrum_sv(0.9, logt, grid, N=96, tol=1e-3)
        assert curve.points[-1].source == "ESCAPE_VALUE"
        assert curve.points[-1].alpha == pytest.approx(ALPHA_MAX_09, rel=1e-13)
        assert curve.points[-1].dimension == 1.0
        assert len(curve.discontinuities) == 1
        a, left, val = curve.discontinuities[0]
        assert val == 1.0 and left < HYP_09 + 1e-3
        assert val - left >= 0.42
        for p in curve.points[:-1]:
            assert p.dimension <= HYP_09 + 2e-3

    def test_interior_tail_average(self):
        # overrides straddle the tail value, so the escape level is interior
        phi = md.builtin_tail_potential(0.0, {1: 0.8, 2: -0.8})
        grid = np.linspace(-0.5, 0.5, 9)
        curve = md.full_birkhoff_spectrum_sv(0.8, phi, grid, N=64, tol=1e-3)
        assert len(curve.discontinuities) == 1
        assert curve.discontinuities[0][0] == 0.0
        escape = [p for p in curve.points if p.source == "ESCAPE_VALUE"]
        assert len(escape) == 1 and escape[0].alpha == 0.0
        assert curve.alpha_min < 0.0 < curve.alpha_max
        # away from the jump the sampled curve has no comparable gap
        dims = [p.dimension for p in curve.points if p.source == "VARIATIONAL"]
        gaps = [abs(b - a) for a, b in zip(dims, dims[1:])]
        assert max(gaps) < 0.42

    def test_sorted_and_bounded(self):
        m, logt, one = sv_setup(0.9)
        grid = np.linspace(2.33, 2.40, 5)
        curve = md.full_birkhoff_spectrum_sv(0.9, logt, grid, N=64, tol=1e-3)
        alphas = [p.alpha for p in curve.points]
        assert alphas == sorted(alphas)
        assert all(0.0 <= p.dimension <= 1.0 for p in curve.points)
        assert all(curve.alpha_min < p.alpha <= curve.alpha_max for p in curve.points)

    def test_scan_points_match_single_points(self, monkeypatch):
        # the scan builds one evaluator (one truncation) and reads both alpha
        # bounds off it; every point is still the one variational_dimension
        # gives on its own
        phi = md.builtin_tail_potential(2.0, {1: 1.0, 2: 1.5})
        model, one = md.build_sv_map(0.9), md.constant_potential(1.0)
        grid = np.linspace(1.1, 1.9, 4)
        want = [md.variational_dimension(model, phi, one, float(x), 64, 1e-3) for x in grid]
        extremes, evaluators = [], []
        real_extreme, real_evaluator = spectrum._extreme_cycle_ratio, spectrum._PressureEvaluator
        monkeypatch.setattr(spectrum, "_extreme_cycle_ratio",
                            lambda *a, **k: extremes.append(1) or real_extreme(*a, **k))
        monkeypatch.setattr(spectrum, "_PressureEvaluator",
                            lambda *a: evaluators.append(1) or real_evaluator(*a))
        curve = md.full_birkhoff_spectrum_sv(0.9, phi, grid, N=64, tol=1e-3)
        assert len(extremes) == 2 and len(evaluators) == 1
        got = [p for p in curve.points if p.source == "VARIATIONAL"]
        assert got == want

    def test_points_do_not_depend_on_the_grid(self):
        # a point is a function of its own alpha: a grid and any subset of it
        # give the same value at each alpha, bit for bit
        phi = md.builtin_tail_potential(2.0, {1: 1.0, 2: 1.5})
        grid = np.linspace(1.05, 1.95, 9)

        def values(g):
            curve = md.full_birkhoff_spectrum_sv(0.9, phi, g, N=128, tol=1e-3)
            return {p.alpha: (p.dimension, p.q_star, p.bracket) for p in curve.points
                    if p.source == "VARIATIONAL"}

        full = values(grid)
        for subset in (grid[::2], grid[1::3], grid[-1:], grid[::-1][:4]):
            got = values(subset)
            assert got == {a: full[a] for a in got} and len(got) == len(subset)

    def test_requires_tail_limit(self):
        phi = md.TablePotential({(1,): 1.0, (2,): 2.0})  # no default, no tail
        with pytest.raises(DomainError):
            md.full_birkhoff_spectrum_sv(0.9, phi, [2.35])


class TestCurveCsv:
    def test_layout(self):
        curve = md.lyapunov_spectrum_curve(0.9, points=12)
        text = md.curve_to_csv(curve, N=None, tol=None, header_lines=["config: {}"])
        lines = text.strip().split("\n")
        assert lines[0] == "# config: {}"
        assert lines[1] == "alpha,dimension,source,q_star,N,tol"
        assert lines[-1].startswith("# discontinuity,")
        body = [l for l in lines if not l.startswith("#")][1:]
        assert len(body) == len(curve.points)

    def test_deterministic(self):
        a = md.curve_to_csv(md.lyapunov_spectrum_curve(0.9, points=30))
        b = md.curve_to_csv(md.lyapunov_spectrum_curve(0.9, points=30))
        assert a == b
