"""Pressure engine: Perron roots, orbit sums, exhaustion, closed forms."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import markovdim as md
from markovdim import pressure, spectrum
from markovdim.cli import main
from markovdim.errors import (ConvergenceError, DomainError, MixingError, UnboundedError,
                              WorkLimitError)
from markovdim.pressure import _power_log_rho, _staircase_log_rho, _staircase_tail
from test_bisection import bisect
from test_spectrum import dense_variational_case, seeded_dense_map

LOG2 = 0.6931471805599453
LOG_019 = -1.6607312068216509          # log(0.1 + 0.09)
P_09_T7 = -15.46743902409920           # 7 log(0.1) - log(1 - 0.9^7), high precision
P_09_TC = -14.455130665682992          # value at t_c, where lambda^t = 1/2
TC_09 = 6.578813478960584              # -log 2 / log 0.9
BOWEN2_09 = 0.2943478952496173         # root of 0.1^s + 0.09^s = 1


def neg_t_logt(model, t):
    logt = md.builtin_log_derivative(model)
    return md.combine(-t, logt, 0.0, md.constant_potential(1.0), 0.0, logt)


def table_potential(values):
    return md.TablePotential({(i + 1,): v for i, v in enumerate(values)})


def dense_log_rho(mat: np.ndarray, logw: np.ndarray) -> float:
    """Independent oracle: dense eigensolver on the weighted matrix."""
    a = mat.astype(float) * np.exp(logw)[:, None]
    return math.log(np.max(np.abs(np.linalg.eigvals(a))))


def reference_staircase_log_rho(log_weights, rel_tol):
    """O(N) oracle for the staircase root: the same bisection, but every row
    of the back-substitution is applied one at a time."""
    shift = float(np.max(log_weights))
    w = np.exp(log_weights - shift).tolist()
    n = len(w)
    counts = [n] + [n - i + 2 for i in range(2, n + 1)]
    hi = max(c * wi for c, wi in zip(counts, w)) * (1.0 + 1e-12)
    lo = max(w) * 0.25

    def at_or_above(rho):
        r = 0.0
        for k in range(n - 1, 0, -1):
            r = w[k] / (rho * (1.0 - r))
            if not (r < 1.0):
                return False
        return rho * (1.0 - r) - w[0] >= 0.0

    while at_or_above(lo):
        lo *= 0.5
    while not at_or_above(hi):
        hi *= 2.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if at_or_above(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * hi:
            break
    return math.log(0.5 * (lo + hi)) + shift


def cycle_with_chord(length: int) -> np.ndarray:
    """The cycle 1 -> 2 -> ... -> length -> 1 plus the chord 1 -> 3: cycles of
    coprime lengths ``length`` and ``length - 1``, so primitive, with every
    eigenvalue close to the Perron circle."""
    mat = np.zeros((length, length), dtype=bool)
    mat[np.arange(length), (np.arange(length) + 1) % length] = True
    mat[0, 2] = True
    return mat


def halving_staircase_log_rho(log_weights, rel_tol):
    """Oracle for the staircase root: the plain halving of [1/4, hi] on the
    full weight vector, testing every midpoint, as the package computed it
    before its Newton phase.  Returns (log root, halvings)."""
    shift = float(np.max(log_weights))
    w = np.exp(log_weights - shift)
    n = len(w)
    counts = np.arange(n + 1, 1, -1)
    counts[0] = n
    hi = float(np.max(counts * w)) * (1.0 + 1e-12)
    differs = np.flatnonzero(w != w[-1])
    head = max(int(differs[-1]) + 1 if differs.size else 0, 1)
    w_tail = float(w[-1])
    m = n - head
    head_w = w[head - 1:0:-1].tolist()
    w0 = float(w[0])

    def at_or_above(rho):
        r = _staircase_tail(w_tail, rho, m)[0]
        if not (r < 1.0):
            return False
        for wk in head_w:
            r = wk / (rho * (1.0 - r))
            if not (r < 1.0):
                return False
        return rho * (1.0 - r) - w0 >= 0.0

    while not at_or_above(hi):
        hi *= 2.0
    mid, steps = bisect(at_or_above, 0.25, hi, lambda h: rel_tol * h)
    return math.log(mid) + shift, steps


def head_slice(logw):
    """The leading weights a staircase root needs: through the first weight
    of the constant tail."""
    differs = np.flatnonzero(logw != logw[-1])
    return logw[:min(len(logw), (int(differs[-1]) + 2) if differs.size else 1)]


def count_tail_calls(monkeypatch):
    """A list that grows by one each time ``_staircase_tail`` is called."""
    calls = []
    real = pressure._staircase_tail
    monkeypatch.setattr(pressure, "_staircase_tail", lambda *a: calls.append(1) or real(*a))
    return calls


@st.composite
def eventually_constant_log_weights(draw):
    """Log weights of an n-symbol staircase: up to 12 overrides among the
    first 64 symbols on a constant tail, spread up to 300, or an underflowing
    tail behind two weights of 1."""
    n = draw(st.integers(2, 8192))
    spread = draw(st.sampled_from([1.0, 10.0, 100.0, 300.0]))
    if draw(st.integers(0, 6)) == 0:
        tail = draw(st.sampled_from([-800.0, -744.5, -740.0]))
        return np.where(np.arange(n) < 2, 0.0, tail)
    logw = np.full(n, draw(st.floats(-spread, spread)))
    for pos, v in draw(st.lists(st.tuples(st.integers(0, 63), st.floats(-spread, spread)),
                                max_size=12)):
        logw[pos % n] = v
    return logw


def tail_by_loop(w_tail, rho, m):
    """Oracle for _staircase_tail: m rows of r <- w / (rho (1 - r)) from r = 0."""
    r = 0.0
    for _ in range(m):
        r = w_tail / (rho * (1.0 - r))
        if not (r < 1.0):
            return math.inf
    return r


class CountingMatrix(np.ndarray):
    """A matrix that appends to ``log`` each product it takes part in:
    "vector" for a matrix-vector product, "square" for a matrix-matrix one.
    Arrays computed from it keep the type and the log, so the weighted
    matrix and its powers log too."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __matmul__(self, other):
        out = np.matmul(np.asarray(self), np.asarray(other))
        self.log.append("square" if out.ndim == 2 else "vector")
        if out.ndim == 1:
            return out
        out = out.view(CountingMatrix)
        out.log = self.log
        return out


def counted(mat: np.ndarray, log: list) -> CountingMatrix:
    out = mat.view(CountingMatrix)
    out.log = log
    return out


def seeded_primitive(rng, n):
    while True:
        mat = rng.random((n, n)) < 0.55
        sub = md.TruncatedSubsystem(size=n, dense=mat)
        if mat.any(axis=0).all() and mat.any(axis=1).all() and md.is_primitive(sub):
            return sub


class TestPerron:
    def test_full_2_shift_zero(self):
        sub = md.TruncatedSubsystem(size=2, dense=np.ones((2, 2), dtype=bool))
        assert md.perron_pressure(sub, md.constant_potential(0.0), 1e-12) == \
            pytest.approx(LOG2, abs=1e-10)

    def test_sv_two_branch_closed_form(self):
        m = md.build_sv_map(0.9)
        sub = md.truncate(m, 2)
        for s in (0.3, 0.7, 1.0, 2.0):
            got = md.perron_pressure(sub, neg_t_logt(m, s), 1e-12)
            assert got == pytest.approx(math.log(0.1 ** s + 0.09 ** s), abs=1e-9)
        assert md.perron_pressure(sub, neg_t_logt(m, 1.0), 1e-12) == \
            pytest.approx(LOG_019, abs=1e-9)

    def test_two_branch_bowen_root(self):
        # scalar bisection on the closed form 0.1^s + 0.09^s = 1
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if 0.1 ** mid + 0.09 ** mid > 1.0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(BOWEN2_09, abs=1e-9)
        m = md.build_sv_map(0.9)
        sub = md.truncate(m, 2)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if md.perron_pressure(sub, neg_t_logt(m, mid), 1e-13) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(BOWEN2_09, abs=1e-8)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            sub = seeded_primitive(rng, n)
            logw = rng.normal(0.0, 1.0, n)
            got = md.perron_pressure(sub, table_potential(logw), 1e-11)
            assert got == pytest.approx(dense_log_rho(sub.dense, logw), abs=1e-8)

    def test_staircase_vs_dense(self):
        m = md.build_sv_map(0.8)
        for n in (4, 16, 64):
            sub = md.truncate(m, n)
            p = neg_t_logt(m, 1.3)
            fast = md.perron_pressure(sub, p, 1e-13)
            dense_sub = md.TruncatedSubsystem(size=n, dense=sub.matrix)
            slow = md.perron_pressure(dense_sub, p, 1e-11)
            assert fast == pytest.approx(slow, abs=1e-8)
            assert fast == pytest.approx(dense_log_rho(sub.matrix, p.values_vector(n)),
                                         abs=1e-9)

    def test_nonprimitive_rejected(self):
        mat = np.array([[False, True], [True, False]])
        sub = md.TruncatedSubsystem(size=2, dense=mat)
        with pytest.raises(MixingError):
            md.perron_pressure(sub, md.constant_potential(0.0), 1e-10)

    def test_tolerance_validated(self):
        sub = md.TruncatedSubsystem(size=2, dense=np.ones((2, 2), dtype=bool))
        with pytest.raises(DomainError):
            md.perron_pressure(sub, md.constant_potential(0.0), 0.0)

    def test_monotone_in_potential(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            sub = seeded_primitive(rng, n)
            lo = rng.normal(0.0, 1.0, n)
            hi = lo + rng.random(n)
            assert md.perron_pressure(sub, table_potential(lo), 1e-11) <= \
                md.perron_pressure(sub, table_potential(hi), 1e-11) + 1e-9

    def test_shift_invariance(self):
        m = md.build_sv_map(0.9)
        sub = md.truncate(m, 32)
        p = neg_t_logt(m, 7.0)
        shifted = md.TablePotential({(1,): p.value(1) + 5.0}, default=p.value(2) + 5.0)
        assert md.perron_pressure(sub, shifted, 1e-12) == \
            pytest.approx(md.perron_pressure(sub, p, 1e-12) + 5.0, abs=1e-9)


class TestStaircaseRoot:
    """The O(K) staircase root against the O(N) loop and dense eigenvalues."""

    @pytest.mark.parametrize("lam", [0.6, 0.9])
    @pytest.mark.parametrize("n", [2, 3, 64, 512, 1024, 8192])
    def test_matches_reference_loop(self, lam, n):
        m = md.build_sv_map(lam)
        logt = md.builtin_log_derivative(m).values_vector(n)
        tail = md.builtin_tail_potential(2.0)
        cases = [-t * logt for t in (0.0, 1.0, 7.0)]
        cases += [q * (logt - 2.3) - 0.5 * logt for q in (-3.0, 1.0)]
        cases.append(0.4 * tail.values_vector(n) - logt)
        # tail weight underflows to 0, or stays a subnormal whose ratio to
        # the trial rho underflows
        cases += [np.where(np.arange(n) < 2, 0.0, v) for v in (-800.0, -744.5, -740.0)]
        rel_tol = 1e-12
        for logw in cases:
            # both brackets have relative width <= rel_tol around the same root
            assert abs(_staircase_log_rho(logw, rel_tol).log_rho
                       - reference_staircase_log_rho(logw, rel_tol)) <= 2 * rel_tol

    @pytest.mark.parametrize("n", [2, 3, 128, 4096])
    def test_trials_within_twice_the_halvings(self, n, monkeypatch):
        # the Newton phase and the replayed halving together test at most two
        # points per halving of the plain root, from any start, and return
        # its midpoint bit for bit
        trials = count_tail_calls(monkeypatch)
        logt = md.builtin_log_derivative(md.build_sv_map(0.9)).values_vector(n)
        tail = md.builtin_tail_potential(2.0, {1: 1.0, 2: 1.5}).values_vector(n)
        for logw in (-logt, -7.0 * logt, -3.0 * (tail - 1.7) - 0.5 * logt, 0.0 * logt):
            want, halvings = halving_staircase_log_rho(logw, 1e-12)
            for guess in (None, want, want - 0.3, want + 0.3):
                trials.clear()
                assert _staircase_log_rho(head_slice(logw), 1e-12, n, guess).log_rho == want
                assert len(trials) <= 2 * halvings + 2

    def test_trials_per_root_on_the_readme_scan(self, monkeypatch):
        # each root of a scan starts from the one before, a close guess; each
        # gradient pass closes the tail once
        trials = count_tail_calls(monkeypatch)
        roots, gradients = [], []
        for name, log in (("_staircase_log_rho", roots), ("_staircase_mu", gradients)):
            monkeypatch.setattr(pressure, name,
                                lambda *a, real=getattr(pressure, name), log=log:
                                log.append(1) or real(*a))
        assert main(["spectrum-birkhoff", "--lambda", "0.9", "--grid-points", "21",
                     "--nmax", "128"]) == 0
        assert 21 <= len(roots) <= 40 * 21 and len(gradients) == len(roots)
        assert len(trials) - len(gradients) <= 12 * len(roots)

    @settings(max_examples=150, deadline=None)
    @given(logw=eventually_constant_log_weights(), offsets=st.lists(
        st.floats(-50.0, 50.0, allow_nan=False), min_size=1, max_size=3))
    def test_any_guess_gives_the_halving_root(self, logw, offsets):
        want, halvings = halving_staircase_log_rho(logw, 1e-12)
        trials = []
        real = pressure._staircase_tail
        pressure._staircase_tail = lambda *a: trials.append(1) or real(*a)
        try:
            for guess in [None, want, 1e300, -1e300, math.nan] + [want + d for d in offsets]:
                trials.clear()
                found = _staircase_log_rho(head_slice(logw), 1e-12, len(logw), guess)
                assert found.log_rho == want
                assert len(trials) <= 2 * halvings + 2
        finally:
            pressure._staircase_tail = real

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 256), default=st.floats(-3.0, 3.0),
           overrides=st.lists(st.tuples(st.integers(0, 255), st.floats(-4.0, 4.0)),
                              max_size=5))
    def test_eventually_constant_against_eigvals(self, n, default, overrides):
        values = {(pos % n + 1,): v for pos, v in overrides}
        p = md.TablePotential(values, default=default)
        sub = md.truncate(md.build_sv_map(0.8), n)
        got = md.perron_pressure(sub, p, 1e-13)
        # The Perron vector of a staircase decays like 2^-k and its left
        # vector grows like 2^k, so the root's condition number is about 2^N
        # and eigvals on the raw matrix is off by up to 1e-2 at N = 256.  The
        # similarity diag(2^k) A diag(2^-k) keeps the spectrum, is exact in
        # floating point, and flattens both vectors.
        k = np.arange(n)
        similar = sub.matrix * np.ldexp(1.0, k[:, None] - k[None, :])
        assert got == pytest.approx(dense_log_rho(similar, p.values_vector(n)), abs=1e-10)

    @pytest.mark.parametrize("w_tail", [1.0, 0.37])
    def test_tail_closed_form_across_quarter(self, w_tail):
        # rho = 4 w_tail separates the real-root, double-root and rotation
        # cases; in the rotation case the m-th row is the first to leave
        # r < 1 once rho drops below 4 w_tail cos^2(pi / (m + 2))
        grid = 4.0 * w_tail * np.concatenate([np.linspace(0.5, 1.5, 41), [1.0]])
        for m in list(range(120)) + [255, 256, 1000]:
            edge = 4.0 * w_tail * math.cos(math.pi / (m + 2)) ** 2
            for rho in list(grid) + [edge * (1 + 1e-9), edge * (1 - 1e-9)]:
                got, want = _staircase_tail(w_tail, rho, m)[0], tail_by_loop(w_tail, rho, m)
                if math.isinf(want):
                    assert not (got < 1.0), (m, rho)
                else:
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-15), (m, rho)
            if m >= 1:
                assert tail_by_loop(w_tail, edge * (1 + 1e-9), m) < 1.0
                assert math.isinf(tail_by_loop(w_tail, edge * (1 - 1e-9), m))

    @pytest.mark.parametrize("w_tail", [1.0, 0.37])
    @pytest.mark.parametrize("m", [0, 1, 2, 127, 8190])
    def test_tail_slope_against_central_differences(self, w_tail, m):
        # c < 1/4 well above and just above rho = 4 w_tail, c = 1/4 itself
        # (the stencil straddles both closed forms), and c > 1/4 down to
        # just above the edge where (m + 2) theta reaches pi
        edge = 4.0 * w_tail * math.cos(math.pi / (m + 2)) ** 2
        gap = 4.0 * w_tail - edge
        rhos = [4.0 * w_tail * k for k in (50.0, 2.0, 1.01, 1.0 + 1e-6, 1.0)]
        rhos += [edge + f * gap for f in (0.9, 0.5, 0.1, 0.01)]
        for rho in rhos:
            r, slope = _staircase_tail(w_tail, rho, m)
            # a power of two at or above the ulp of rho, so that rho +- k h is exact
            h = 2.0 ** math.floor(math.log2(1e-3 * (min(rho - edge, rho) if m else rho)))

            def diff(k):
                return (_staircase_tail(w_tail, rho + k * h, m)[0]
                        - _staircase_tail(w_tail, rho - k * h, m)[0])

            # the five-point stencil: the slope varies on the scale rho - edge
            fd = (8.0 * diff(1) - diff(2)) / (12.0 * h)
            assert r < 1.0
            assert slope == pytest.approx(fd, rel=1e-6, abs=1e-300), (m, rho)
            if m:
                assert slope < 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_residual_and_slope_against_dense_eigvals(self, n):
        # With tail sums T_i = x_i + ... + x_n as coordinates, rho I - A is
        # tridiagonal: row 1 is (rho - w_1, -rho), row i >= 2 is
        # (-w_i, rho, -rho) around the diagonal.  Eliminating from the bottom
        # row up leaves the pivots rho (1 - r_i) on rows n..2 and the
        # first-row residual on row 1, so the residual is det(rho I - A), a
        # product over eigvals, divided by the determinant of rows 2..n.
        rng = np.random.default_rng(n)
        for _ in range(10):
            w = np.exp(rng.normal(0.0, 1.0, n))
            tail = int(rng.integers(0, n))            # the last rows share a weight
            w[n - tail:] = w[-1]
            a = np.triu(np.ones((n, n)), -1) * w[:, None]      # j >= i - 1, 0-based
            eig = np.linalg.eigvals(a)
            rows = np.diag(np.full(n - 1, 1.0)) - np.diag(np.full(n - 2, 1.0), 1)

            def residual(rho):
                lower = rho * rows - np.diag(w[2:], -1)
                return float(np.prod(rho - eig).real) / np.linalg.det(lower)

            perron = float(np.max(eig.real))
            head = max(n - tail, 1)
            splits = [(w[-1], 0, w[n - 1:0:-1].tolist()),          # every row one by one
                      (w[-1], n - head, w[head - 1:0:-1].tolist())]  # the tail in one step
            for rho in perron * np.array([0.999, 1.001, 1.1, 2.0, 10.0]):
                h = 1e-6 * rho
                for w_tail, m, head_w in splits:
                    got = pressure._staircase_residual(w_tail, m, head_w, float(w[0]), rho)
                    if got is None:                   # below the feasible range
                        assert rho < perron
                        continue
                    f, slope = got
                    assert f == pytest.approx(residual(rho), rel=1e-8, abs=1e-12)
                    fd = (residual(rho + h) - residual(rho - h)) / (2.0 * h)
                    assert slope == pytest.approx(fd, rel=1e-6)
                    assert (f >= 0.0) == (rho >= perron)

    @pytest.mark.parametrize("log_w", [-744.5, -740.0])
    def test_tail_with_subnormal_weight(self, log_w):
        # w_tail / rho underflows to 0 for rho >= 2 (-744.5) or rho >= 512
        # (-740); the row-by-row ratio then stays at 0
        w_tail = math.exp(log_w)
        assert w_tail > 0.0
        for m in (0, 1, 2, 7, 511, 8191):
            for rho in (0.3, 1.0, 1.5, 2.0, 8.0, 511.0, 512.0, 4096.0):
                got = _staircase_tail(w_tail, rho, m)[0]
                assert got == pytest.approx(tail_by_loop(w_tail, rho, m), abs=1e-320)
        sub = md.truncate(md.build_sv_map(0.9), 8)
        p = md.TablePotential({(1,): 0.0}, default=log_w)
        assert md.perron_pressure(sub, p, 1e-12) == pytest.approx(0.0, abs=1e-11)


class TestOrderK:
    """A staircase root reads the weights of the head and one tail symbol only."""

    N = 1 << 20
    HEAD = 3

    @pytest.fixture(autouse=True)
    def no_length_n_vector(self, monkeypatch):
        real = md.TablePotential.values_vector

        def guarded(potential, n):
            assert n <= self.HEAD + 2, f"a length-{n} value vector"
            return real(potential, n)

        monkeypatch.setattr(md.TablePotential, "values_vector", guarded)

    def test_perron_and_gurevich(self):
        m = md.build_sv_map(0.9)
        p = neg_t_logt(m, 7.0)
        assert md.perron_pressure(md.truncate(m, self.N), p, 1e-12) == \
            pytest.approx(P_09_T7, abs=1e-11)
        res = md.gurevich_pressure(m, p, 1e-10, self.N)
        assert res.truncation_used == self.N and len(res.per_level) == 20
        assert res.value == pytest.approx(P_09_T7, abs=1e-11)

    def test_pressure_evaluator(self):
        m = md.build_sv_map(0.9)
        phi = md.builtin_tail_potential(2.0, {1: 1.0, 2: 1.5, self.HEAD: 1.7})
        one = md.constant_potential(1.0)
        ev = spectrum._PressureEvaluator(m, phi, one, self.N)
        assert len(ev.phi_v) == self.HEAD + 1
        value = ev.evaluate(-1.0, 1.8, 0.5)[0]
        assert math.isfinite(value)
        # the slice sees the same potential as the full vector of a smaller level
        small = md.truncate(m, 1 << 12)
        pot = md.combine(-1.0, phi, 1.8, one, 0.5, md.builtin_log_derivative(m))
        assert value >= md.perron_pressure(small, pot, 1e-12) - 1e-12

    def test_alpha_bounds_and_variational_point(self, monkeypatch):
        # every node of a rule truncation has a self-loop: no length-N mask of them
        real = md.TruncatedSubsystem.self_loops.fget

        def guarded(sub):
            assert sub.size <= self.HEAD + 2, f"a length-{sub.size} self-loop mask"
            return real(sub)

        monkeypatch.setattr(md.TruncatedSubsystem, "self_loops", property(guarded))
        m = md.build_sv_map(0.9)
        logt = md.builtin_log_derivative(m)
        one = md.constant_potential(1.0)
        assert md.alpha_bounds(m, logt, one, self.N) == md.sv_alpha_bounds(0.9)
        want = md.lyapunov_closed_form(0.9, 8.0)
        got = md.variational_dimension(m, logt, one, want.alpha, self.N, 1e-3)
        assert got.dimension <= want.dimension < got.dimension + 1e-3
        with pytest.raises(DomainError, match="outside the open interval"):
            md.variational_dimension(m, logt, one, 2.5, self.N, 1e-3)


def brute_orbit_sum(mat, logw, n, base):
    """Independent oracle: literal DFS enumeration of period-n words."""
    size = mat.shape[0]
    total = 0.0

    def walk(sym, depth, acc):
        nonlocal total
        if depth == n:
            if mat[sym, base]:
                total += math.exp(acc)
            return
        for nxt in range(size):
            if mat[sym, nxt]:
                walk(nxt, depth + 1, acc + logw[nxt])

    walk(base, 1, logw[base])
    return -math.inf if total == 0.0 else math.log(total) / n


class TestPowerIteration:
    # a cap of 3 products sends most cases to the dense eigvals fallback
    @pytest.mark.parametrize("max_iter", [pressure._POWER_MAX_ITER, 3])
    def test_matches_eigvals(self, max_iter, monkeypatch):
        monkeypatch.setattr(pressure, "_POWER_MAX_ITER", max_iter)
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(2, 41))
            density = rng.uniform(0.1, 0.9)
            while True:
                mat = rng.random((n, n)) < density
                if md.is_primitive(md.TruncatedSubsystem(size=n, dense=mat)):
                    break
            logw = rng.normal(0.0, rng.uniform(0.0, 3.0), n)
            tol = 10.0 ** rng.uniform(-12.0, -4.0)
            want = dense_log_rho(mat, logw)
            # the stop's bracket, at most tol wide, holds the root and the value
            found = _power_log_rho(mat, logw, tol)
            assert found.lo - 1e-13 <= want <= found.hi + 1e-13
            assert abs(found.log_rho - want) <= tol + 1e-13

    def test_slow_gap_converges_by_squaring(self, monkeypatch):
        mat = cycle_with_chord(48)
        logw = np.zeros(48)
        mods = np.sort(np.abs(np.linalg.eigvals(mat.astype(float))))
        assert mods[-2] / mods[-1] > 0.99
        # plain steps would need log(1e-12) / log|lambda_2 / lambda_1|, about
        # 6e5 of them, more than twice the budget: without the eigvals fallback
        # only squared steps can reach the tolerance
        assert math.log(1e-12) / math.log(mods[-2] / mods[-1]) > 2 * pressure._POWER_MAX_ITER
        monkeypatch.setattr(pressure, "_DENSE_FALLBACK_MAX_N", 0)
        want = dense_log_rho(mat, logw)
        products = []
        found = _power_log_rho(counted(mat, products), logw, 1e-12)
        assert found.lo - 1e-14 <= want <= found.hi + 1e-14
        assert abs(found.log_rho - want) <= 1e-12 + 1e-14
        assert products.count("square") >= 5

    def test_budget_reaches_fallback(self, monkeypatch):
        mat = cycle_with_chord(48)
        logw = np.linspace(-1.0, 1.0, 48)
        monkeypatch.setattr(pressure, "_POWER_MAX_ITER", 3)
        a = mat.astype(float) * np.exp(logw - 1.0)[:, None]
        want = math.log(float(np.max(np.abs(np.linalg.eigvals(a))))) + 1.0
        assert _power_log_rho(mat, logw, 1e-12).log_rho == want
        monkeypatch.setattr(pressure, "_DENSE_FALLBACK_MAX_N", 0)
        with pytest.raises(ConvergenceError, match="did not reach"):
            _power_log_rho(mat, logw, 1e-12)

    def test_tolerance_below_roundoff_reaches_fallback(self, monkeypatch):
        # the bracket's slow narrowing calls for squares, then its width
        # stalls at roundoff and never meets 1e-20: squares stay within the
        # budget, and the budget ends in the fallback
        mat = cycle_with_chord(40)
        logw = np.linspace(-1.0, 1.0, 40)
        budget = 2000
        monkeypatch.setattr(pressure, "_POWER_MAX_ITER", budget)
        a = mat.astype(float) * np.exp(logw - logw.max())[:, None]
        want = math.log(float(np.max(np.abs(np.linalg.eigvals(a))))) + logw.max()
        products = []
        assert _power_log_rho(counted(mat, products), logw, 1e-20).log_rho == want
        # a square costs 40 products; the last round may pass the budget by
        # its 3 products, the start vector's product precedes the count, and
        # the fallback's bracket takes 4 more
        squares = products.count("square")
        assert 0 < squares <= math.log2(2 * budget)     # s stops doubling once past the budget
        assert products.count("vector") + 40 * squares <= budget + 8
        monkeypatch.setattr(pressure, "_DENSE_FALLBACK_MAX_N", 0)
        with pytest.raises(ConvergenceError, match="did not reach"):
            _power_log_rho(mat, logw, 1e-20)

    def test_products_per_variational_point(self, monkeypatch):
        # matrix-vector products (a square counting n) of the power
        # iterations behind one point on 64-branch maps: the Collatz-Wielandt
        # stop takes 2712 and 1584 here, and the caps are about 1.3 times that
        products = []
        real = pressure._power_iteration
        monkeypatch.setattr(pressure, "_power_iteration",
                            lambda a, rel_tol: real(counted(np.asarray(a), products), rel_tol))
        for seed, cap in ((0, 3500), (1, 2060)):
            model, phi, alpha = dense_variational_case(seed)
            products.clear()
            md.variational_dimension(model, phi, md.constant_potential(1.0), alpha, 64, 1e-3)
            assert 0 < products.count("vector") + 64 * products.count("square") <= cap

    def test_sparse_map_beyond_the_edge_is_unbounded(self, monkeypatch):
        # below the least cycle quotient q doubles towards -1e6 and the
        # shifted weights of symbols 2 and 3 underflow: each root stops on its
        # bracket, or falls back to eigvals at once where the Perron vector
        # spans more than the range of doubles, and none spends the budget
        rows = [[1, 1, 0], [0, 1, 1], [1, 1, 0]]
        branches = [md.make_branch(i + 1, i / 3, (i + 1) / 3, 2.0) for i in range(3)]
        cm = md.build_custom_map(branches, np.array(rows, dtype=bool))
        phi = md.TablePotential({(1,): 0.0, (2,): 1.0, (3,): 2.0})
        products = []
        real = pressure._power_iteration
        monkeypatch.setattr(pressure, "_power_iteration",
                            lambda a, rel_tol: real(counted(np.asarray(a), products), rel_tol))
        with pytest.raises(UnboundedError):
            md.inf_pressure_over_q(cm, phi, md.constant_potential(1.0), -0.5, 0.2, 3, 1e-6)
        assert 0 < len(products) <= 2000

    def test_collapse_raises(self):
        # the weights of symbols 2 and 3 underflow, so A^2 = 0
        mat = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=bool)
        with pytest.raises(ConvergenceError, match="collapsed"):
            _power_log_rho(mat, np.array([0.0, -1000.0, -1000.0]), 1e-12)

    def test_nilpotent_collapse_raises(self):
        # strictly triangular up to relabelling: every product eventually
        # vanishes, after squares on some of these
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(3, 200))
            mat = np.triu(rng.random((n, n)) < rng.uniform(0.01, 0.5), 1)
            perm = rng.permutation(n)
            with pytest.raises(ConvergenceError, match="collapsed"):
                _power_log_rho(mat[perm][:, perm], rng.normal(0.0, 2.0, n), 1e-12)


def eig_mu(a: np.ndarray) -> np.ndarray:
    """Oracle for the equilibrium weights: u v / (u . v) from the dense
    eigensolver's right and left Perron vectors of ``a``."""
    vectors = []
    for m in (a, a.T):
        values, vecs = np.linalg.eig(m)
        vectors.append(np.abs(vecs[:, int(np.argmax(values.real))].real))
    uv = vectors[0] * vectors[1]
    return uv / uv.sum()


class TestGradients:
    """mu = d log rho / d log w on each Perron route, against independent oracles."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 12), data=st.data())
    def test_staircase_mu_against_eig_and_differences(self, n, data):
        k = data.draw(st.integers(1, n))
        logw = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k)))
        log_rho, _, _, mu = _staircase_log_rho(logw, 1e-13, n, mu=True)
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)
        # the last entry stands for rows k..n, which repeat the last weight
        full = np.concatenate([logw, np.full(n - k, logw[-1])])
        rows = np.arange(n)
        stair = (rows[None, :] >= np.maximum(rows[:, None] - 1, 0)).astype(float)
        similar = stair * np.ldexp(1.0, rows[:, None] - rows[None, :]) * np.exp(full)[:, None]
        want = eig_mu(similar)      # u v is unchanged by the diagonal similarity
        mods = np.sort(np.abs(np.linalg.eigvals(similar)))
        gap = 1.0 - mods[-2] / mods[-1]
        # eig's vectors lose accuracy as the gap closes (near-tied heavy rows)
        assert np.allclose(mu, np.append(want[:k - 1], want[k - 1:].sum()), rtol=0,
                           atol=1e-9 * max(1.0, 1e-3 / gap))
        # five-point central differences, where the spectral gap keeps log rho
        # smooth on the stencil's scale: near-tied blocks bend it sharply
        if gap < 0.1:
            return
        h = 1e-4
        for i in range(k):
            root = [_staircase_log_rho(logw + j * h * (np.arange(k) == i), 1e-13, n).log_rho
                    for j in (-2, -1, 1, 2)]
            diff = (8.0 * (root[2] - root[1]) - (root[3] - root[0])) / (12.0 * h)
            assert diff == pytest.approx(mu[i], abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_dense_mu_against_eig(self, n, seed):
        rng = np.random.default_rng(seed)
        sub = seeded_primitive(rng, n)
        logw = rng.normal(0.0, 2.0, n)
        found = _power_log_rho(sub.matrix, logw, 1e-12, mu=True)
        plain = _power_log_rho(sub.matrix, logw, 1e-12)
        # the transpose's bracket narrows the plain one, and holds the value
        assert plain.lo <= found.lo <= found.log_rho <= found.hi <= plain.hi
        mu = found.mu
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)
        a = sub.matrix * np.exp(logw - logw.max())[:, None]
        assert np.allclose(mu, eig_mu(a), rtol=0, atol=1e-8)

    def test_dense_mu_from_the_eigensolver(self, monkeypatch):
        monkeypatch.setattr(pressure, "_POWER_MAX_ITER", 3)
        mat, logw = cycle_with_chord(12), np.linspace(-1.0, 1.0, 12)
        log_rho, _, _, mu = _power_log_rho(mat, logw, 1e-12, mu=True)
        assert log_rho == pytest.approx(_power_log_rho(mat, logw, 1e-12).log_rho, abs=1e-12)
        assert np.allclose(mu, eig_mu(mat * np.exp(logw)[:, None]), rtol=0, atol=1e-10)
        monkeypatch.setattr(pressure, "_DENSE_FALLBACK_MAX_N", 0)
        with pytest.raises(ConvergenceError, match="did not reach"):
            _power_log_rho(mat, logw, 1e-12, mu=True)

    @settings(max_examples=60, deadline=None)
    @given(logw=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=30))
    def test_rank_one_mu_is_the_weight_share(self, logw):
        logw = np.array(logw)
        log_rho, _, _, mu = pressure._rank_one_log_rho(logw, 1e-12, mu=True)
        assert log_rho == pressure._rank_one_log_rho(logw, 1e-12).log_rho
        w = np.exp(logw - logw.max())
        assert np.allclose(mu, w / w.sum(), rtol=1e-12, atol=1e-300)
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shape", ["staircase", "rank-one", "dense"])
    def test_every_route_sums_to_one(self, shape):
        rng = np.random.default_rng(5)
        n = 40
        if shape == "staircase":
            sub = md.truncate(md.build_sv_map(0.8), n)
        elif shape == "rank-one":
            sub = md.TruncatedSubsystem(size=n, dense=np.ones((n, n), dtype=bool))
        else:
            sub = seeded_primitive(rng, n)
        length, root = pressure._log_rho_solver(sub, 6)
        for _ in range(10):
            logw = np.append(rng.normal(0.0, 3.0, 6), np.full(length - 6, rng.normal()))
            found, plain = root(logw, 1e-12, mu=True), root(logw, 1e-12)
            assert plain.mu is None
            # mu leaves the value and the bracket as they are, except that the
            # power route narrows the bracket by the transpose's and moves the
            # value into it
            if shape == "dense":
                assert plain.lo <= found.lo <= found.log_rho <= found.hi <= plain.hi
            else:
                assert found[:3] == plain[:3]
            mu = found.mu
            assert mu.shape == (length,) and (mu >= 0.0).all()
            assert mu.sum() == pytest.approx(1.0, abs=1e-12)


def bracket_case(route, rng):
    """(subsystem, log weights, a matrix similar to the weighted one up to
    the weights) for one route: an SV staircase, an all-true matrix, and on
    the power route a seeded dense map or an SV staircase materialized as an
    explicit matrix.  A staircase's Perron vectors decay and grow like 2^-k
    and 2^k, so eigvals takes its diag(2^k) similarity, which is exact."""
    n = int(rng.integers(2, 65))
    if route == "dense":
        sub = md.truncate(seeded_dense_map(rng, n), n) if n >= 4 else seeded_primitive(rng, n)
        return sub, rng.normal(0.0, 1.0, n), sub.matrix
    if route == "rank-one":
        return md.TruncatedSubsystem(size=n, dense=np.ones((n, n), dtype=bool)), \
            rng.normal(0.0, 3.0, n), np.ones((n, n))
    model = md.build_sv_map(rng.uniform(0.55, 0.97))
    sub = md.truncate(model, n)
    k = np.arange(n)
    similar = sub.matrix * np.ldexp(1.0, k[:, None] - k[None, :])
    if route == "staircase":
        return sub, rng.normal(0.0, 2.0, n), similar
    logw = -rng.uniform(0.3, 1.5) * md.builtin_log_derivative(model).values_vector(n)
    return md.TruncatedSubsystem(size=n, dense=sub.matrix), logw, similar


class TestBrackets:
    """Every route's bracket holds the eigvals root and is about rel_tol wide."""

    @pytest.mark.parametrize("route", ["staircase", "rank-one", "dense", "explicit-staircase"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rel_tol=st.sampled_from([1e-10, 1e-12]),
           mu=st.booleans())
    def test_bracket_holds_the_eigvals_root(self, route, seed, rel_tol, mu):
        sub, logw, similar = bracket_case(route, np.random.default_rng(seed))
        length, root = pressure._log_rho_solver(sub, sub.size)
        assert length == sub.size
        found = root(logw, rel_tol, mu=mu)
        want = dense_log_rho(similar, logw)
        # eigvals was seen within 2.2e-15 of 40-digit roots on such matrices
        slack = 1e-14 * max(1.0, abs(want))
        assert found.lo - slack <= want <= found.hi + slack, (found, want)
        assert found.lo <= found.log_rho <= found.hi
        assert found.hi - found.lo <= 1.25 * rel_tol
        # perron_pressure meets its tolerance, which the residual stop did not
        assert abs(root(logw, rel_tol).log_rho - want) <= rel_tol + slack

    def test_fallback_bracket_holds_the_root(self, monkeypatch):
        monkeypatch.setattr(pressure, "_POWER_MAX_ITER", 3)
        mat, logw = cycle_with_chord(12), np.linspace(-1.0, 1.0, 12)
        want = dense_log_rho(mat, logw)
        for mu in (False, True):
            found = pressure._power_log_rho(mat, logw, 1e-12, mu=mu)
            assert found.lo <= want <= found.hi and found.hi - found.lo <= 1e-12

    @pytest.mark.parametrize("mu", [False, True])
    def test_underflowed_row_keeps_the_stop(self, mu):
        # a weight 800 below the rest underflows to 0 once shifted, so its row
        # of the weighted matrix is zero and so is its entry in every iterate;
        # the same map with that weight 30 below takes as many products
        rng = np.random.default_rng(8)
        mat = seeded_primitive(rng, 12).dense
        logw = rng.normal(0.0, 1.0, 12)
        work = []
        for drop in (30.0, 800.0):
            low = logw.copy()
            low[3] -= drop
            products = []
            found = _power_log_rho(counted(mat, products), low, 1e-12, mu=mu)
            want = dense_log_rho(mat, low)
            assert found.lo - 1e-14 <= want <= found.hi + 1e-14, (drop, found, want)
            assert found.hi - found.lo <= 1.25e-12
            work.append(len(products))
        assert work[1] <= work[0] + 10, work


class TestOrbitSums:
    def test_full_2_shift_period_4(self):
        sub = md.TruncatedSubsystem(size=2, dense=np.ones((2, 2), dtype=bool))
        got = md.orbit_sum_pressure(sub, md.constant_potential(0.0), 4, 1)
        assert got == pytest.approx(math.log(8.0) / 4.0, abs=1e-12)

    def test_against_dfs_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            n_sym = int(rng.integers(2, 5))
            sub = seeded_primitive(rng, n_sym)
            logw = rng.uniform(-1.0, 1.0, n_sym)
            period = int(rng.integers(2, 9))
            base = int(rng.integers(1, n_sym + 1))
            got = md.orbit_sum_pressure(sub, table_potential(logw), period, base)
            want = brute_orbit_sum(sub.dense, logw, period, base - 1)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-10)

    def test_approaches_perron(self):
        rng = np.random.default_rng(5)
        sub = seeded_primitive(rng, 5)
        p = table_potential(rng.uniform(-0.5, 0.5, 5))
        perron = md.perron_pressure(sub, p, 1e-11)
        assert abs(md.orbit_sum_pressure(sub, p, 20, 1) - perron) < 0.2

    def test_empty_sum_marker(self):
        mat = np.array([[False, True], [True, False]])
        sub = md.TruncatedSubsystem(size=2, dense=mat)
        got = md.orbit_sum_pressure(sub, md.constant_potential(0.0), 3, 1)
        assert got == -math.inf

    def test_work_limits(self):
        big = md.TruncatedSubsystem(size=13, dense=np.ones((13, 13), dtype=bool))
        with pytest.raises(WorkLimitError):
            md.orbit_sum_pressure(big, md.constant_potential(0.0), 5, 1)
        small = md.TruncatedSubsystem(size=2, dense=np.ones((2, 2), dtype=bool))
        with pytest.raises(WorkLimitError):
            md.orbit_sum_pressure(small, md.constant_potential(0.0), 31, 1)

    def test_base_symbol_validated(self):
        sub = md.TruncatedSubsystem(size=2, dense=np.ones((2, 2), dtype=bool))
        with pytest.raises(DomainError):
            md.orbit_sum_pressure(sub, md.constant_potential(0.0), 4, 3)


class TestGurevich:
    def test_sv_matches_closed_form(self):
        m = md.build_sv_map(0.9)
        res = md.gurevich_pressure(m, neg_t_logt(m, 7.0), 1e-8, 1024)
        assert res.converged
        assert res.value == pytest.approx(P_09_T7, abs=1e-9)
        assert res.value == pytest.approx(md.closed_form_pressure_sv(0.9, 7.0), abs=1e-9)

    def test_per_level_monotone(self):
        m = md.build_sv_map(0.75)
        res = md.gurevich_pressure(m, neg_t_logt(m, 4.0), 1e-10, 256)
        vals = [p for _, p in res.per_level]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_zero_potential_bounded_not_converged(self):
        # the level sequence increases toward log 4 (loop growth is
        # Catalan-like) but the 1/N^2 approach never meets a 1e-8 tolerance
        m = md.build_sv_map(0.9)
        res = md.gurevich_pressure(m, md.constant_potential(0.0), 1e-8, 1024)
        vals = [p for _, p in res.per_level]
        assert not res.converged
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < math.log(4.0)
        assert math.log(4.0) - vals[-1] < 1e-3
        # increments shrink: growth is saturating, not logarithmic in N
        assert vals[-1] - vals[-2] < (vals[3] - vals[2]) / 4

    def test_full_shift_custom_immediate(self):
        branches = [md.make_branch(1, 0.0, 0.5, 2.0), md.make_branch(2, 0.5, 1.0, 2.0)]
        cm = md.build_custom_map(branches, np.ones((2, 2), dtype=bool))
        res = md.gurevich_pressure(cm, md.constant_potential(0.0), 1e-8, 64)
        assert res.converged
        assert res.per_level == ((2, pytest.approx(LOG2, abs=1e-10)),)

    def test_full_rule_level_2_is_weight_sum(self):
        # a "full" truncation is rank one at every level, N = 2 included
        branches = [md.make_branch(i + 1, i / 4, (i + 1) / 4, 4.0) for i in range(4)]
        cm = md.build_custom_map(branches, "full")
        p = md.TablePotential({1: -1.3, 2: -0.4, 3: 0.2, 4: 0.5})
        res = md.gurevich_pressure(cm, p, 1e-8, 4)
        n, p2 = res.per_level[0]
        assert n == 2
        assert p2 == pytest.approx(math.log(math.exp(-1.3) + math.exp(-0.4)), rel=1e-15)

    def test_validation(self):
        m = md.build_sv_map(0.9)
        with pytest.raises(DomainError):
            md.gurevich_pressure(m, md.constant_potential(0.0), -1.0, 64)
        with pytest.raises(DomainError):
            md.gurevich_pressure(m, md.constant_potential(0.0), 1e-8, 1)

    @pytest.mark.parametrize("half_width,raises", [(5e-13, True), (1e-9, False)])
    def test_monotonicity_checked_on_brackets(self, half_width, raises, monkeypatch):
        # a route whose roots fall by 1e-10 a level: an error only when a
        # level's bracket lies wholly below the level before's
        def solver(sub, head, guess=None):
            def root(log_weights, rel_tol, guess=None, mu=False):
                value = -1e-10 * math.log2(sub.size)
                return pressure.PerronRoot(value, value - half_width, value + half_width, None)

            return sub.size, root

        monkeypatch.setattr(pressure, "_log_rho_solver", solver)
        m = md.build_sv_map(0.9)
        if raises:
            with pytest.raises(ConvergenceError, match="not monotone"):
                md.gurevich_pressure(m, md.constant_potential(0.0), 1e-8, 64)
        else:
            res = md.gurevich_pressure(m, md.constant_potential(0.0), 1e-8, 64)
            assert len(res.per_level) == 6

    def test_json_shape(self):
        m = md.build_sv_map(0.9)
        res = md.gurevich_pressure(m, neg_t_logt(m, 8.0), 1e-8, 64)
        d = res.to_dict()
        assert set(d) == {"value", "method", "per_level", "converged"}
        assert d["method"] == "PERRON"


class TestClosedForm:
    def test_frozen_values(self):
        assert md.closed_form_pressure_sv(0.9, 7.0) == pytest.approx(P_09_T7, abs=1e-12)
        tc = md.sv_critical_exponent(0.9)
        assert tc == pytest.approx(TC_09, rel=1e-14)
        assert md.closed_form_pressure_sv(0.9, tc) == pytest.approx(P_09_TC, abs=1e-12)
        # at t_c the formula reduces to t_c log(1-lambda) + log 2
        assert md.closed_form_pressure_sv(0.9, tc) == \
            pytest.approx(tc * math.log(0.1) + LOG2, abs=1e-12)

    def test_below_threshold_rejected(self):
        with pytest.raises(DomainError):
            md.closed_form_pressure_sv(0.9, 3.0)

    def test_lambda_validated(self):
        with pytest.raises(DomainError):
            md.closed_form_pressure_sv(0.4, 7.0)

    @pytest.mark.parametrize("lam,t", [(0.6, 3.0), (0.75, 5.5), (0.9, 12.0)])
    def test_formula(self, lam, t):
        assert md.closed_form_pressure_sv(lam, t) == \
            pytest.approx(t * math.log(1 - lam) - math.log(1 - lam ** t), rel=1e-14)


class TestConvexityAndMonotonicity:
    def test_pressure_convex_in_q(self):
        m = md.build_sv_map(0.9)
        sub = md.truncate(m, 64)
        logt = md.builtin_log_derivative(m)
        one = md.constant_potential(1.0)
        alpha = 2.35
        rng = np.random.default_rng(11)

        def h(q):
            return md.perron_pressure(sub, md.combine(q, logt, alpha, one, 0.4, logt),
                                      1e-12)

        for _ in range(20):
            q1, q2 = sorted(rng.uniform(-6.0, 6.0, 2))
            mid = 0.5 * (q1 + q2)
            assert h(mid) <= 0.5 * (h(q1) + h(q2)) + 1e-9
