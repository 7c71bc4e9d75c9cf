"""Potential tables, combination, and config ingestion."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import markovdim as md
from markovdim.errors import ConfigError, DomainError
from markovdim.potentials import MAX_OVERRIDE_SYMBOL, validate_potential_config


def reference_combined_value(q, phi, alpha, psi, delta, log_deriv, word) -> float:
    """q*(phi - alpha*psi) - delta*log_deriv evaluated lazily, one word at a time."""
    return q * (phi.value(word) - alpha * psi.value(word)) - delta * log_deriv.value(word)


def reference_tail_limit(q, phi, alpha, psi, delta, log_deriv):
    tails = (phi.tail_limit, psi.tail_limit, log_deriv.tail_limit)
    if any(t is None for t in tails):
        return None
    return q * (tails[0] - alpha * tails[1]) - delta * tails[2]


VALUES = st.floats(-50.0, 50.0, allow_nan=False)


@st.composite
def table_triples(draw):
    """Three tables, each with a default and overrides on some symbols <= 8,
    or with no default and values on symbols 1..n (a finite alphabet of n
    symbols, shared by the three); and the n up to which all are defined."""
    n = draw(st.integers(1, 8))

    def table():
        if draw(st.booleans()):
            keys = draw(st.sets(st.integers(1, 8), max_size=5))
            return md.TablePotential({k: draw(VALUES) for k in keys}, default=draw(VALUES))
        return md.TablePotential({k: draw(VALUES) for k in range(1, n + 1)})

    pots = [table() for _ in range(3)]
    return pots, (n if any(p.tail_limit is None for p in pots) else 40)


class TestLogDerivative:
    def test_sv_values(self):
        p = md.builtin_log_derivative(md.build_sv_map(0.9))
        assert p.value(1) == pytest.approx(2.302585092994046, rel=1e-13)
        assert p.value(2) == pytest.approx(2.4079456086518722, rel=1e-13)
        assert p.value(77) == p.value(2)
        assert p.tail_limit == pytest.approx(2.4079456086518722, rel=1e-13)

    def test_slope_uniform_beyond_first(self):
        p = md.builtin_log_derivative(md.build_sv_map(0.63))
        assert p.value(2) == p.value(7)

    def test_positivity_floor(self):
        m = md.build_sv_map(0.9)
        p = md.builtin_log_derivative(m)
        assert p.positivity_floor == pytest.approx(math.log(m.expansion_floor))
        vec = p.values_vector(64)
        assert (vec >= p.positivity_floor - 1e-12).all()

    def test_custom_values(self):
        branches = [md.make_branch(1, 0.0, 0.5, 2.0), md.make_branch(2, 0.5, 1.0, 2.0)]
        cm = md.build_custom_map(branches, np.ones((2, 2), dtype=bool))
        p = md.builtin_log_derivative(cm)
        assert p.value(2) == pytest.approx(math.log(2.0))
        with pytest.raises(DomainError):
            p.value(3)  # finite alphabet, no default


class TestTailPotential:
    def test_zero(self):
        p = md.builtin_tail_potential(0.0)
        assert p.value(1) == 0.0 and p.value(99) == 0.0
        assert p.tail_limit == 0.0

    def test_override(self):
        p = md.builtin_tail_potential(1.0, {1: 5.0})
        assert p.value(1) == 5.0
        assert all(p.value(n) == 1.0 for n in range(2, 10))

    def test_tail_reported(self):
        p = md.builtin_tail_potential(2.5, {1: 0.5, 2: 1.0, 3: 9.0})
        assert p.tail_limit == 2.5

    def test_floor_auto(self):
        assert md.builtin_tail_potential(1.0, {1: 5.0}).positivity_floor == 1.0
        assert md.builtin_tail_potential(1.0, {1: -5.0}).positivity_floor is None

    def test_claimed_floor_checked(self):
        with pytest.raises(DomainError):
            md.TablePotential({(1,): -1.0}, default=2.0, positivity_floor=0.5)


class TestCombine:
    def setup_method(self):
        self.m = md.build_sv_map(0.9)
        self.logt = md.builtin_log_derivative(self.m)
        self.one = md.constant_potential(1.0)

    def test_negated_log_derivative(self):
        c = md.combine(0.0, self.one, 0.0, self.one, 1.0, self.logt)
        for n in (1, 2, 9):
            assert c.value(n) == pytest.approx(-self.logt.value(n), rel=1e-14)

    def test_identity(self):
        phi = md.builtin_tail_potential(0.3, {2: -1.5})
        c = md.combine(1.0, phi, 0.0, self.one, 0.0, self.logt)
        for n in (1, 2, 5):
            assert c.value(n) == phi.value(n)

    def test_cancellation(self):
        c = md.combine(3.0, self.one, 1.0, self.one, 0.0, self.logt)
        assert all(c.value(n) == 0.0 for n in (1, 2, 30))

    def test_linearity(self):
        rng = np.random.default_rng(17)
        phi = md.builtin_tail_potential(0.4, {1: 2.0, 3: -1.0})
        for _ in range(25):
            q1, q2, d1, d2, a = rng.uniform(-3, 3, 5)
            both = md.combine(q1 + q2, phi, a, self.one, d1 + d2, self.logt)
            p1 = md.combine(q1, phi, a, self.one, d1, self.logt)
            p2 = md.combine(q2, phi, a, self.one, d2, self.logt)
            for n in (1, 2, 3, 11):
                assert both.value(n) == pytest.approx(p1.value(n) + p2.value(n), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        c = md.combine(-1.7, self.logt, 2.35, self.one, 0.4, self.logt)
        vec = c.values_vector(12)
        for n in range(1, 13):
            assert vec[n - 1] == pytest.approx(c.value(n), rel=1e-14)

    def test_tail_limit_propagates(self):
        c = md.combine(2.0, self.logt, 1.0, self.one, 0.5, self.logt)
        a = self.logt.tail_limit
        assert c.tail_limit == pytest.approx(2.0 * (a - 1.0) - 0.5 * a)

    def test_returns_table(self):
        c = md.combine(-7.0, self.logt, 0.0, self.one, 0.0, self.logt)
        assert isinstance(c, md.TablePotential)
        assert c.positivity_floor is None

    @settings(max_examples=300, deadline=None)
    @given(triple=table_triples(), q=VALUES, alpha=VALUES, delta=VALUES)
    def test_matches_lazy_reference(self, triple, q, alpha, delta):
        (phi, psi, log_deriv), n = triple
        args = (q, phi, alpha, psi, delta, log_deriv)
        c = md.combine(*args)
        want = np.array([reference_combined_value(*args, s) for s in range(1, n + 1)])
        assert c.values_vector(n).tobytes() == want.tobytes()
        for s in range(1, n + 3):
            try:
                v = reference_combined_value(*args, s)
            except DomainError:
                with pytest.raises(DomainError):
                    c.value(s)
            else:
                assert c.value(s) == v
        assert c.tail_limit == reference_tail_limit(*args)

    def test_undefined_symbol_stays_undefined(self):
        finite = md.TablePotential({1: 0.5, 2: 1.5})
        c = md.combine(2.0, finite, 1.0, self.one, 0.0, self.one)
        assert c.values_vector(2).tolist() == [-1.0, 1.0]
        assert c.tail_limit is None
        with pytest.raises(DomainError):
            c.value(3)
        with pytest.raises(DomainError):
            c.values_vector(3)

    def test_overflow_raises(self):
        big = md.constant_potential(1e308)
        with pytest.raises(DomainError, match="not finite"):
            md.combine(10.0, big, 0.0, big, 0.0, big)
        with pytest.raises(DomainError, match="not finite"):
            md.combine(1.0, big, -1.0, big, 0.0, big)


class TestTableValues:
    @pytest.mark.parametrize("make", [
        lambda: md.constant_potential(math.inf),
        lambda: md.builtin_tail_potential(1.0, {2: math.nan}),
        lambda: md.TablePotential({}, default=-math.inf),
        lambda: md.TablePotential({(3,): math.inf}),
    ], ids=["const-inf", "tail-override-nan", "default-neg-inf", "override-inf"])
    def test_non_finite_rejected(self, make):
        with pytest.raises(DomainError, match="not finite"):
            make()

    @pytest.mark.parametrize("symbol", [0, -1, -40])
    def test_symbols_below_one_raise(self, symbol):
        p = md.builtin_tail_potential(1.0, {1: 5.0})
        with pytest.raises(DomainError):
            p.value(symbol)
        with pytest.raises(DomainError):
            p.eval_symbols(np.array([2, symbol, 1]))

    def test_override_symbol_capped(self):
        p = md.builtin_tail_potential(1.0, {MAX_OVERRIDE_SYMBOL: 2.0})
        assert p.value(MAX_OVERRIDE_SYMBOL) == 2.0 and p.value(MAX_OVERRIDE_SYMBOL + 1) == 1.0
        for symbol in (MAX_OVERRIDE_SYMBOL + 1, 10**9, 2**64):
            with pytest.raises(DomainError, match="exceeds"):
                md.builtin_tail_potential(1.0, {symbol: 2.0})

    def test_eval_symbols_past_head(self):
        p = md.builtin_tail_potential(1.0, {1: 5.0, 3: -2.0})
        got = p.eval_symbols(np.array([[1, 2], [3, 4], [10**9, 3]]))
        assert got.tolist() == [[5.0, 1.0], [-2.0, 1.0], [1.0, -2.0]]
        assert p.eval_symbols(np.array([], dtype=np.int64)).shape == (0,)

    def test_constant(self):
        assert md.constant_potential(2.0).is_constant()
        assert md.TablePotential({1: 2.0, 2: 2.0}).is_constant()
        assert not md.builtin_tail_potential(1.0, {1: 5.0}).is_constant()
        assert not md.TablePotential({}).is_constant()


class TestConfig:
    def test_roundtrip(self, tmp_path):
        import json
        cfg = {"depth": 1, "default": 2.5, "overrides": {"1": 0.7},
               "positivity_floor": 0.5}
        f = tmp_path / "pot.json"
        f.write_text(json.dumps(cfg))
        p = md.potential_from_config(str(f))
        assert p.value(1) == 0.7 and p.value(4) == 2.5
        assert p.positivity_floor == 0.5

    def test_floor_violation(self):
        cfg = {"depth": 1, "default": 2.5, "overrides": {"1": -1.0},
               "positivity_floor": 0.5}
        with pytest.raises(ConfigError):
            md.potential_from_config(cfg)

    @pytest.mark.parametrize("depth", [2, 0])
    def test_depth_other_than_one_rejected(self, depth):
        from markovdim.potentials import validate_potential_config
        cfg = {"depth": depth, "default": 0.0, "overrides": {"1": 3.0}}
        out = validate_potential_config(cfg)
        assert len(out) == 1 and "depth" in out[0]
        with pytest.raises(ConfigError, match="depth"):
            md.potential_from_config(cfg)

    @pytest.mark.parametrize("cfg", [{"depth": 1, "default": 0.0, "overrides": {"2": 3.0}},
                                     {"default": 0.0, "overrides": {"2": 3.0}}])
    def test_depth_one_or_absent_loads(self, cfg):
        p = md.potential_from_config(cfg)
        assert p.value(2) == 3.0 and p.value(1) == 0.0

    def test_word_override_rejected(self):
        with pytest.raises(ConfigError, match="'1,2' is not a single symbol"):
            md.potential_from_config({"default": 0.0, "overrides": {"1,2": 3.0}})
        with pytest.raises(DomainError):
            md.TablePotential({(1, 2): 3.0}, default=0.0)

    def test_bad_key_reported(self):
        from markovdim.potentials import validate_potential_config
        out = validate_potential_config({"depth": 1, "default": 0.0,
                                         "overrides": {"x": 1.0}})
        assert out and "x" in out[0]

    def test_no_values(self):
        from markovdim.potentials import validate_potential_config
        assert validate_potential_config({"depth": 1}) != []

    @pytest.mark.parametrize("key", ["1_0", " 3 ", "01", "+2", "\u0661", "1.0", ""])
    def test_override_key_must_be_plain_decimal(self, key):
        cfg = {"default": 0.0, "overrides": {key: 3.0}}
        assert validate_potential_config(cfg) == [f"override key {key!r} is not a single symbol"]
        with pytest.raises(ConfigError, match="is not a single symbol"):
            md.potential_from_config(cfg)

    @pytest.mark.parametrize("key", ["1000000000000", "99999999999999999999999"])
    def test_override_key_beyond_cap_is_violation(self, key):
        with pytest.raises(ConfigError, match="exceeds") as exc:
            md.potential_from_config({"default": 0.0, "overrides": {key: 3.0}})
        assert exc.value.violations == [f"override symbol {key} exceeds {MAX_OVERRIDE_SYMBOL}"]

    @pytest.mark.parametrize("cfg,field", [
        ({"default": True}, "default"),
        ({"default": 1.0, "positivity_floor": False}, "positivity_floor"),
        ({"default": 1.0, "overrides": {"1": True}}, "'1'"),
        ({"default": 1.0, "overrides": [1.0]}, "overrides"),
        ({"depth": True, "default": 1.0}, "depth"),
        (3.5, "JSON object"),
        (None, "JSON object"),
    ])
    def test_wrong_types_are_violations(self, cfg, field):
        from markovdim.potentials import validate_potential_config
        out = validate_potential_config(cfg)
        assert len(out) == 1 and field in out[0]
        with pytest.raises(ConfigError):
            md.potential_from_config(cfg)
