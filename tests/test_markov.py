"""Model construction, branch lookup, truncation, and primitivity."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import markovdim as md
import markovdim.markov as mk
from markovdim.errors import BoundaryError, ConfigError, DomainError, MixingError

# frozen by direct arithmetic on the branch formulas
LOG_SLOPE_1_09 = 2.302585092994046      # -log(0.1)
LOG_SLOPE_N_09 = 2.4079456086518722     # -log(0.09)


def image_interval(model, i):
    """Image of branch ``i``: the union of its target branch intervals (an
    oracle).  A tail row's targets run on past the explicit ones down to 0."""
    tailed = model.tail is not None
    last = len(model.explicit) + i + 1 if tailed else model.alphabet_size
    hits = [model.edges(j)[:2] for j in range(1, last + 1) if model.transition(i, j)]
    return (0.0 if tailed else min(lo for lo, _ in hits)), max(hi for _, hi in hits)


class TestSvMap:
    def test_branch_1(self):
        m = md.build_sv_map(0.9)
        b = m.branch(1)
        assert b.interval == pytest.approx((0.9, 1.0), rel=1e-14)
        assert b.log_slope == pytest.approx(LOG_SLOPE_1_09, rel=1e-13)

    def test_branch_3(self):
        m = md.build_sv_map(0.9)
        b = m.branch(3)
        assert b.interval == pytest.approx((0.729, 0.81), rel=1e-12)
        assert b.log_slope == pytest.approx(LOG_SLOPE_N_09, rel=1e-13)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 0.3, 1.2])
    def test_lambda_domain(self, lam):
        with pytest.raises(DomainError):
            md.build_sv_map(lam)

    def test_transitions(self):
        m = md.build_sv_map(0.8)
        assert m.transition(2, 1) and not m.transition(3, 1)
        assert all(m.transition(1, j) for j in range(1, 30))
        for n in range(2, 8):
            for j in range(1, 12):
                assert m.transition(n, j) == (j >= n - 1)

    @pytest.mark.parametrize("transitions", ["staircase", np.ones((2, 2), dtype=bool)],
                             ids=["staircase", "matrix"])
    def test_transition_indices_stay_in_the_alphabet(self, transitions):
        # a finite map answers only for symbols of its alphabet, whatever its shape
        m = md.build_custom_map([md.make_branch(1, 0.5, 0.75, 2.0),
                                 md.make_branch(2, 0.75, 1.0, 2.0)], transitions)
        assert all(m.transition(i, j) for i in (1, 2) for j in (1, 2))
        for i, j in ((1, 5), (3, 1), (0, 1), (1, 0), (-1, 2)):
            with pytest.raises(DomainError, match="out of range"):
                m.transition(i, j)
        with pytest.raises(DomainError, match="out of range"):
            md.build_sv_map(0.8).transition(0, 1)

    def test_image_intervals(self):
        # branch n >= 2 maps onto (0, lambda^(n-2)]
        m = md.build_sv_map(0.9)
        assert image_interval(m, 1) == pytest.approx((0.0, 1.0))
        assert image_interval(m, 4) == pytest.approx((0.0, 0.9 ** 2), rel=1e-12)
        # a finite staircase's rows start at their targets' least left end
        cm = md.build_custom_map([md.make_branch(1, 0.5, 0.75, 2.0),
                                  md.make_branch(2, 0.75, 1.0, 2.0)], "staircase")
        assert [image_interval(cm, i) for i in (1, 2)] == [(0.5, 1.0)] * 2
        assert cm.image_lo == (0.5, 0.5)

    def test_one_log_slope_table(self):
        # the scalar orbit, the branch and the batch's log|T'| read one table, and
        # the staircase config with SV's branch 1 and tail has SV's endpoints
        for lam in (round(0.51 + 0.01 * k, 2) for k in range(49)):
            m = md.build_sv_map(lam)
            logt = md.builtin_log_derivative(m)
            for i in (1, 2, 3, 400):
                assert m.branch(i).log_slope == logt.value(i)
            copy = md.build_custom_map([md.make_branch(1, lam, 1.0, 1.0 / (1.0 - lam))],
                                       "staircase", tail={"from_index": 2, "ratio": lam,
                                                          "slope": 1.0 / (lam * (1.0 - lam))})
            assert all(m.edges(i)[:2] == copy.edges(i)[:2] for i in range(1, 401))

    def test_expansion_floor(self):
        m = md.build_sv_map(0.9)
        assert m.expansion_floor > 1.0
        # every branch slope is at least min(1/(1-lam), 1/(lam(1-lam)))
        for i in range(1, 20):
            assert m.branch(i).slope >= m.expansion_floor - 1e-12


class TestApplyMap:
    def test_branch1_point(self):
        m = md.build_sv_map(0.9)
        y, idx = m.apply(0.95)
        assert idx == 1
        assert y == pytest.approx(0.5, abs=1e-12)

    def test_endpoint_rejected(self):
        m = md.build_sv_map(0.9)
        with pytest.raises(BoundaryError):
            m.apply(0.9)
        with pytest.raises(BoundaryError):
            m.apply(1.0)

    def test_branch2_point(self):
        m = md.build_sv_map(0.9)
        y, idx = m.apply(0.85)
        assert idx == 2
        assert y == pytest.approx((0.85 - 0.81) / 0.09, rel=1e-12)
        assert 0.0 < y <= 1.0

    def test_outside_domain(self):
        m = md.build_sv_map(0.9)
        for x in (0.0, -0.5, 1.5):
            with pytest.raises(BoundaryError):
                m.apply(x)

    def test_relative_endpoint_tolerance(self):
        m = md.build_sv_map(0.9)
        edge = 0.9 ** 40
        with pytest.raises(BoundaryError):
            m.apply(edge * (1.0 + 2e-13))
        y, idx = m.apply(edge * (1.0 + 1e-9))
        assert idx == 40

    def test_coding_shift(self):
        # itinerary of T(x) is the shifted itinerary of x
        m = md.build_sv_map(0.75)
        rng = np.random.default_rng(5)
        for x0 in 1.0 - rng.random(10):
            rec = md.simulate_orbit(m, float(x0), 30)
            if rec.steps < 30:
                continue
            rec2 = md.simulate_orbit(m, float(rec.points[1]), 29)
            assert (rec.itinerary[1:] == rec2.itinerary).all()


class TestTruncation:
    def test_full_2_shift(self):
        sub = md.truncate(md.build_sv_map(0.7), 2)
        assert sub.matrix.all()

    def test_staircase_rows(self):
        sub = md.truncate(md.build_sv_map(0.7), 5)
        mat = sub.matrix
        assert mat[0].all()
        for n in range(2, 6):
            expect = np.array([j >= n - 1 for j in range(1, 6)])
            assert (mat[n - 1] == expect).all()

    def test_nesting(self):
        m = md.build_sv_map(0.9)
        for n in (2, 3, 7):
            small = md.truncate(m, n).matrix
            big = md.truncate(m, n + 1).matrix
            assert (big[:n, :n] == small).all()

    def test_level_precondition(self):
        with pytest.raises(DomainError):
            md.truncate(md.build_sv_map(0.9), 1)

    def test_beyond_alphabet(self):
        branches = [md.make_branch(1, 0.0, 0.5, 2.0), md.make_branch(2, 0.5, 1.0, 2.0)]
        cm = md.build_custom_map(branches, np.ones((2, 2), dtype=bool))
        with pytest.raises(DomainError):
            md.truncate(cm, 3)

    @pytest.mark.parametrize("name", ["sv", "staircase"])
    def test_rule_matrix_matches_transitions(self, name):
        branches = [md.make_branch(1, 0.5, 1.0, 2.0), md.make_branch(2, 0.25, 0.5, 4.0)]
        tail = {"from_index": 3, "ratio": 0.5}
        m = (md.build_sv_map(0.8) if name == "sv"
             else md.build_custom_map(branches, name, tail=tail))
        for n in range(2, 65):
            want = np.array([[m.transition(i, j) for j in range(1, n + 1)]
                             for i in range(1, n + 1)])
            sub = md.truncate(m, n)
            assert np.array_equal(sub.matrix, want), n
            assert np.array_equal(sub.self_loops, np.diagonal(want)), n

    @pytest.mark.parametrize("kwargs", [{"rule": "suffix"}, {},
                                        {"rule": "full", "dense": np.ones((2, 2), dtype=bool)},
                                        {"rule": "full"}])
    def test_subsystem_needs_one_known_shape(self, kwargs):
        with pytest.raises(DomainError):
            md.TruncatedSubsystem(size=2, **kwargs)


def _primitive_by_powers(mat: np.ndarray) -> bool:
    # literal definition: some power m <= N^2 strictly positive
    n = mat.shape[0]
    b = mat.copy()
    for _ in range(n * n):
        if b.all():
            return True
        b = (b.astype(np.int64) @ mat.astype(np.int64)) > 0
    return b.all()


@st.composite
def primitivity_graph(draw):
    """A boolean n x n adjacency matrix, n <= 8, from one of five families:
    arbitrary, reducible (no edge from a set T back to its complement),
    block-cyclic of period 2 or 3 with or without a period-breaking chord,
    and Wielandt-type (one n-cycle plus one chord closing an (n-1)-cycle,
    primitive only through the long cycles, exponent (n-1)^2 + 1)."""
    kind = draw(st.sampled_from(["random", "reducible", "cyclic", "cyclic_chord", "long_cycle"]))
    lo = {"random": 1, "reducible": 2, "long_cycle": 2}.get(kind, 3)
    n = draw(st.integers(lo, 8))
    perm = np.array(draw(st.permutations(range(n))))
    bits = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)),
                    dtype=bool).reshape(n, n)
    if kind == "random":
        return bits
    if kind == "reducible":
        k = draw(st.integers(1, n - 1))
        t = perm[:k]                       # no edge leaves T, so T never reaches the rest
        mat = bits.copy()
        mat[np.ix_(t, perm[k:])] = False
        return mat
    if kind == "long_cycle":
        mat = np.zeros((n, n), dtype=bool)
        mat[perm, np.roll(perm, -1)] = True
        mat[perm[-1], perm[1]] = True
        return mat
    period = draw(st.integers(2, min(3, n)))
    cls = np.empty(n, dtype=np.int64)
    cls[perm] = np.arange(n) % period      # every class non-empty
    mat = bits & ((cls[:, None] + 1) % period == cls[None, :])
    members = [perm[c::period] for c in range(period)]
    size = max(len(x) for x in members)
    walk = np.array([members[k % period][(k // period) % len(members[k % period])]
                     for k in range(size * period)])
    mat[walk, np.roll(walk, -1)] = True    # a closed walk through every node, all steps c -> c+1
    if kind == "cyclic_chord":
        u = draw(st.integers(0, n - 1))
        v = draw(st.sampled_from([w for w in range(n) if cls[w] != (cls[u] + 1) % period]))
        mat[u, v] = True
    return mat


class TestPrimitivity:
    def test_full_shift(self):
        sub = md.TruncatedSubsystem(size=2, dense=np.ones((2, 2), dtype=bool))
        assert md.is_primitive(sub)

    def test_pure_cycle(self):
        mat = np.array([[False, True], [True, False]])
        assert not md.is_primitive(md.TruncatedSubsystem(size=2, dense=mat))

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
    def test_sv_truncations(self, n):
        assert md.is_primitive(md.truncate(md.build_sv_map(0.8), n))

    @pytest.mark.parametrize("rule", ["staircase"])
    def test_rule_subsystems_primitive_as_dense(self, rule):
        # the rule shortcut agrees with the graph criterion on the same matrix
        for n in range(1, 65):
            sub = md.TruncatedSubsystem(size=n, rule=rule)
            assert md.is_primitive(sub)
            assert md.is_primitive(md.TruncatedSubsystem(size=n, dense=sub.matrix)), n

    def test_against_power_oracle(self):
        rng = np.random.default_rng(1234)
        checked = 0
        while checked < 40:
            n = int(rng.integers(2, 7))
            mat = rng.random((n, n)) < 0.4
            if not (mat.any(axis=0).all() and mat.any(axis=1).all()):
                continue
            sub = md.TruncatedSubsystem(size=n, dense=mat)
            assert md.is_primitive(sub) == _primitive_by_powers(mat)
            checked += 1

    @settings(max_examples=400, deadline=None)
    @given(mat=primitivity_graph())
    def test_against_power_oracle_hypothesis(self, mat):
        sub = md.TruncatedSubsystem(size=mat.shape[0], dense=mat)
        assert md.is_primitive(sub) == _primitive_by_powers(mat)


class TestCustomModels:
    def test_two_branch_doubling(self):
        branches = [md.make_branch(1, 0.0, 0.5, 2.0), md.make_branch(2, 0.5, 1.0, 2.0)]
        cm = md.build_custom_map(branches, np.ones((2, 2), dtype=bool))
        y, idx = cm.apply(0.3)
        assert (y, idx) == (pytest.approx(0.6), 1)
        y, idx = cm.apply(0.75)
        assert (y, idx) == (pytest.approx(0.5), 2)

    def test_overlapping_interiors_rejected(self):
        branches = [md.make_branch(1, 0.0, 0.6, 2.0), md.make_branch(2, 0.5, 1.0, 2.5)]
        out = md.validate_custom_branches(branches, np.ones((2, 2), dtype=bool))
        assert any("overlap" in v for v in out)
        assert any("1" in v and "2" in v for v in out)

    def test_image_mismatch_rejected(self):
        # branch 1 image has length 1.5, no contiguous target union matches
        branches = [md.make_branch(1, 0.0, 0.5, 3.0), md.make_branch(2, 0.5, 1.0, 2.0)]
        out = md.validate_custom_branches(branches, np.ones((2, 2), dtype=bool))
        assert any("image length" in v for v in out)

    def test_markov_consistency_tolerance(self):
        # sub-ulp slope error passes the 1e-9 image check
        eps = 1e-12
        branches = [md.make_branch(1, 0.0, 0.5, 2.0 + eps), md.make_branch(2, 0.5, 1.0, 2.0)]
        assert md.validate_custom_branches(branches, np.ones((2, 2), dtype=bool)) == []

    def test_json_roundtrip(self, tmp_path):
        cfg = {"branches": [{"index": 1, "left": 0.0, "right": 0.5, "slope": 2.0},
                            {"index": 2, "left": 0.5, "right": 1.0, "slope": 2.0}],
               "transitions": [[True, True], [True, True]]}
        p = tmp_path / "map.json"
        p.write_text(json.dumps(cfg))
        cm = md.load_map_config(str(p))
        assert cm.alphabet_size == 2
        assert cm.apply(0.25) == (pytest.approx(0.5), 1)

    def test_sv_config(self, tmp_path):
        p = tmp_path / "sv.json"
        p.write_text(json.dumps({"sv_lambda": 0.75}))
        m = md.load_map_config(str(p))
        assert m.lam == 0.75 and repr(m) == "MarkovMapModel(SV, lambda=0.75)"

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            md.load_map_config(str(p))

    def test_tail_rule(self):
        # explicit branches on (1/4, 1], geometric tail below with ratio 1/2
        branches = [md.make_branch(1, 0.5, 1.0, 2.0), md.make_branch(2, 0.25, 0.5, 4.0)]
        cm = md.build_custom_map(branches, "staircase",
                                 tail={"from_index": 3, "ratio": 0.5, "slope": 4.0})
        b5 = cm.branch(5)
        assert b5.interval == pytest.approx((0.25 * 0.5 ** 3, 0.25 * 0.5 ** 2), rel=1e-12)
        assert cm.locate(0.05) == 5  # 0.05 sits inside the n=5 tail branch
        sub = md.truncate(cm, 16)
        assert md.is_primitive(sub)

    @pytest.mark.parametrize("tail,word", [({"from_index": 4, "ratio": 0.5}, "from_index"),
                                           ({"from_index": 3, "ratio": 1.5}, "ratio"),
                                           ({"from_index": 3, "ratio": 0.5, "slope": 0.5}, "slope")])
    def test_tail_checks(self, tail, word):
        branches = [md.make_branch(1, 0.5, 1.0, 2.0), md.make_branch(2, 0.25, 0.5, 4.0)]
        with pytest.raises(ConfigError, match=word) as exc:
            md.build_custom_map(branches, "staircase", tail=tail)
        assert len(exc.value.violations) == 1

    def test_load_collects_every_violation(self):
        cfg = {"branches": [{"index": 1, "left": 0.0, "right": 0.5},
                            {"index": 2, "left": 0.6, "right": 0.5, "slope": 2.0}],
               "transitions": "full", "tail": [3, 0.5]}
        with pytest.raises(ConfigError) as exc:
            md.load_map_config(cfg)
        assert exc.value.violations == ["branch 1: slope must be a number, got nothing",
                                        "branch 2: right must exceed left",
                                        "tail must be a JSON object, got [3, 0.5]"]

    def test_consistency_checked_once_per_load(self, monkeypatch):
        calls = []
        check = mk.validate_custom_branches
        monkeypatch.setattr(mk, "validate_custom_branches",
                            lambda *args: calls.append(args) or check(*args))
        md.load_map_config({"branches": [{"index": 1, "left": 0.0, "right": 0.5, "slope": 2.0},
                                         {"index": 2, "left": 0.5, "right": 1.0, "slope": 2.0}],
                            "transitions": [[True, True], [True, True]]})
        assert len(calls) == 1

    @pytest.mark.parametrize("rule,bad", [("staircase", [3, 4]), ("full", [])])
    def test_rule_images_checked(self, rule, bad):
        # four slope-4 quarter branches, left to right: each image has length 1,
        # but under "staircase" branch i >= 3 covers only (1/4 (i - 2), 1]
        branches = [md.make_branch(i, (i - 1) / 4, i / 4, 4.0) for i in range(1, 5)]
        out = md.validate_custom_branches(branches, rule)
        assert [int(v.split(":")[0].split()[1]) for v in out] == bad
        assert all("image length" in v for v in out)
        if not bad:
            assert md.build_custom_map(branches, rule).apply(0.9) == (pytest.approx(0.6), 4)

    @pytest.mark.parametrize("rule", ["staircase"])
    def test_tail_is_a_rule_target(self, rule):
        # (0.5, 1] and (0.25, 0.5] map onto (0, 1] only with the tail below them
        branches = [md.make_branch(1, 0.5, 1.0, 2.0), md.make_branch(2, 0.25, 0.5, 4.0)]
        tail = {"from_index": 3, "ratio": 0.5, "slope": 4.0}
        assert md.validate_custom_branches(branches, rule, tail) == []
        without = md.validate_custom_branches(branches, rule)
        assert len(without) == 2 and all("image length 1 != target union length 0.75" in v
                                         for v in without)
        short = [branches[0], md.make_branch(2, 0.25, 0.5, 2.0)]
        assert md.validate_custom_branches(short, rule, tail) == [
            "branch 2: image length 0.5 != target union length 1"]

    def test_tail_needs_rule_transitions(self):
        branches = [md.make_branch(1, 0.5, 1.0, 2.0), md.make_branch(2, 0.25, 0.5, 4.0)]
        with pytest.raises(ConfigError):
            md.build_custom_map(branches, np.ones((2, 2), dtype=bool),
                                tail={"from_index": 3, "ratio": 0.5, "slope": 4.0})


@st.composite
def tailed_configs(draw):
    """A staircase config with a geometric tail of ratio r.  Branch i is
    (c_i, c_(i-1)] with 1 = c_0 > c_1 > ... > c_K, and maps onto (0, c_(i-2)]
    (branch 1 onto (0, 1]); the last explicit branch is (a, a/r)."""
    r = draw(st.floats(0.05, 0.95))
    k = draw(st.integers(1, 5))
    ends = [1.0]
    if k >= 2:
        top = draw(st.floats(0.1, 0.9))
        cuts = draw(st.lists(st.integers(1, 99), min_size=k - 2, max_size=k - 2, unique=True))
        ends += sorted((top + (1.0 - top) * u / 100 for u in cuts), reverse=True) + [top]
    ends.append(ends[-1] * r)
    branches = [{"index": i, "left": ends[i], "right": ends[i - 1],
                 "slope": (ends[i - 2] if i >= 2 else 1.0) / (ends[i - 1] - ends[i])}
                for i in range(1, k + 1)]
    tail = {"from_index": k + 1, "ratio": r}
    if draw(st.booleans()):
        tail["slope"] = 1.0 / (r * (1.0 - r))
    return {"branches": branches, "transitions": "staircase", "tail": tail}


class TestTailSlope:
    @settings(max_examples=150, deadline=None)
    @given(cfg=tailed_configs(), lam=st.floats(0.51, 0.99))
    def test_every_tail_is_markov(self, cfg, lam):
        # slope x length of every tail branch is the length of its image, the
        # union of its targets: on the config path and for sv:LAMBDA
        for model in (md.load_map_config(cfg), md.build_sv_map(lam)):
            t = model.tail
            for n in range(t.from_index, t.from_index + 40):
                left, right, slope = model.edges(n)
                lo, hi = image_interval(model, n)
                assert (right - left) * slope == pytest.approx(hi - lo, rel=mk.IMAGE_TOL), n
            assert model.image_lo == (0.0,) * len(model.explicit)

    def test_slope_key_sets_nothing(self):
        # the tail's slope and log-slope come from its ratio alone, with SV's
        # expressions
        cfg = {"branches": [{"index": 1, "left": 0.8, "right": 1.0, "slope": 5.0}],
               "transitions": "staircase", "tail": {"from_index": 2, "ratio": 0.8}}
        sv = md.build_sv_map(0.8).tail
        for slope in (None, 1.0 / (0.8 * 0.2), 6.25):
            tail = cfg["tail"] if slope is None else {**cfg["tail"], "slope": slope}
            t = md.load_map_config({**cfg, "tail": tail}).tail
            assert (t.slope, t.log_slope) == (sv.slope, sv.log_slope)


class TestBranchSpec:
    def test_log_slope_consistency(self):
        with pytest.raises(DomainError):
            md.BranchSpec(1, 0.0, 0.5, 2.0, math.log(2.0) + 1e-9)

    def test_expansion_required(self):
        with pytest.raises(DomainError):
            md.make_branch(1, 0.0, 0.5, 0.9)

    def test_interval_orientation(self):
        with pytest.raises(DomainError):
            md.make_branch(1, 0.6, 0.5, 2.0)
