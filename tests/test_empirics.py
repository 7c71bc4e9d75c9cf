"""Orbit simulation, escape statistics, and box counting."""
import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import markovdim as md
from markovdim import empirics
from markovdim.empirics import (BOUNDARY_ABORT, DEEP_FLOOR, ESCAPE_THRESHOLD, ESCAPING,
                                RECURRENT_WINDOW, BatchStats, _branch_table, orbit_rng,
                                simulate_batch)
from markovdim.errors import BoundaryError, DomainError, InsufficientSampleError
from markovdim.markov import ENDPOINT_TOL

ALPHA_MAX_09 = 2.4079456086518722


class TestSimulateOrbit:
    def test_single_step(self):
        rec = md.simulate_orbit(md.build_sv_map(0.9), 0.95, 1)
        assert rec.itinerary.tolist() == [1]
        assert rec.points[1] == pytest.approx(0.5, abs=1e-12)

    def test_zero_horizon_rejected(self):
        with pytest.raises(DomainError):
            md.simulate_orbit(md.build_sv_map(0.9), 0.95, 0)

    def test_start_domain(self):
        with pytest.raises(DomainError):
            md.simulate_orbit(md.build_sv_map(0.9), 0.0, 5)

    def test_endpoint_abort_recorded(self):
        rec = md.simulate_orbit(md.build_sv_map(0.9), 0.9, 10)
        assert rec.classification == BOUNDARY_ABORT
        assert rec.steps == 0

    def test_coding_consistency(self):
        m = md.build_sv_map(0.82)
        rng = np.random.default_rng(12)
        for x0 in 1.0 - rng.random(15):
            rec = md.simulate_orbit(m, float(x0), 25)
            if rec.steps < 25:
                continue
            again = md.simulate_orbit(m, float(rec.points[3]), 22)
            assert (rec.itinerary[3:] == again.itinerary).all()
            assert (rec.points[3:] == again.points).all()  # bitwise resimulation

    def test_birkhoff_additivity(self):
        # S_{m+n}(x) = S_m(x) + S_n(T^m x) on recorded per-step values
        m = md.build_sv_map(0.75)
        rec = md.simulate_orbit(m, 0.437, 40)
        assert rec.steps == 40
        sums = rec.birkhoff_sums["logT"]
        rec2 = md.simulate_orbit(m, float(rec.points[15]), 25)
        assert (rec2.logt_steps == rec.logt_steps[15:]).all()
        assert sums[40] - sums[15] == pytest.approx(rec2.birkhoff_sums["logT"][25],
                                                    rel=1e-12)

    def test_dense_step_reads_stored_image_ends(self):
        # an explicit row's image lower end is stored at assembly: the least
        # left end among its targets
        cm = dense_custom_map(np.random.default_rng(3))
        recs = [md.simulate_orbit(cm, x0, 50) for x0 in (0.123, 0.456, 0.789)]
        assert sum(rec.steps for rec in recs) > 100
        assert all(cm.image_lo[i - 1] == min(cm.branch(j).left for j in range(1, 65)
                                             if cm.transition(i, j)) for i in range(1, 65))

    def test_deep_orbit_certified_escaping(self):
        rec = md.simulate_orbit(md.build_sv_map(0.9), 0.5, 2000)
        assert rec.classification == ESCAPING

    def test_deep_orbits_keep_no_branches(self):
        # branches past a model's explicit ones are closed forms, never cached,
        # so deep orbits leave nothing behind on the model
        m = md.build_sv_map(0.9)
        md.simulate_orbit(m, 0.5, 10)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            recs = [md.simulate_orbit(m, x0, 2000) for x0 in (0.5, 0.3, 0.7)]
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(rec.itinerary.max() > 6000 for rec in recs)
        assert kept < sum(rec.points.nbytes + rec.itinerary.nbytes + rec.logt_steps.nbytes
                          for rec in recs) + 20_000


def birkhoff_quotient(rec, phi, psi, window):
    """Oracle: S_w(phi) / S_w(psi) over the final ``window`` steps of an orbit
    record, refusing a window beyond its steps and a psi with no positivity floor."""
    if psi.positivity_floor is None:
        raise DomainError("denominator potential must carry a positivity floor")
    if window < 1 or window > rec.steps:
        raise DomainError(f"window {window} exceeds recorded steps {rec.steps}")
    tail = rec.itinerary[rec.steps - window:]
    return float(np.sum(phi.eval_symbols(tail))) / float(np.sum(psi.eval_symbols(tail)))


class TestBirkhoffQuotient:
    def setup_method(self):
        self.m = md.build_sv_map(0.9)
        self.logt = md.builtin_log_derivative(self.m)
        self.one = md.constant_potential(1.0)

    def test_equal_potentials(self):
        rec = md.simulate_orbit(self.m, 0.77, 30)
        for w in (5, 17, 30):
            assert birkhoff_quotient(rec, self.logt, self.logt, w) == \
                pytest.approx(1.0, rel=1e-13)

    def test_unit_denominator_is_plain_average(self):
        rec = md.simulate_orbit(self.m, 0.77, 30)
        got = birkhoff_quotient(rec, self.logt, self.one, 12)
        want = float(np.mean(rec.logt_steps[-12:]))
        assert got == pytest.approx(want, rel=1e-13)

    def test_escaping_tail_near_alpha_max(self):
        rec = md.simulate_orbit(self.m, 0.437, 200)
        assert rec.steps == 200
        window = 100
        tail = rec.itinerary[-window:]
        assert (tail >= 2).all()  # orbit long gone from branch 1
        got = birkhoff_quotient(rec, self.logt, self.one, window)
        assert abs(got - ALPHA_MAX_09) < 0.01

    def test_window_validation(self):
        rec = md.simulate_orbit(self.m, 0.77, 10)
        with pytest.raises(DomainError):
            birkhoff_quotient(rec, self.logt, self.one, 11)

    def test_floor_required(self):
        rec = md.simulate_orbit(self.m, 0.77, 10)
        bare = md.TablePotential({(1,): 1.0}, default=1.0)
        with pytest.raises(DomainError):
            birkhoff_quotient(rec, self.logt, bare, 5)


def sv_copy(lam):
    """A custom staircase copy of SV(lam) with SV's slopes: branch 1 = (lam, 1],
    then a tail of ratio lam from index 2."""
    return md.build_custom_map([md.make_branch(1, lam, 1.0, 1.0 / (1.0 - lam))], "staircase",
                               tail={"from_index": 2, "ratio": lam,
                                     "slope": 1.0 / (lam * (1.0 - lam))})


def two_branch_head_map():
    """Staircase with branches (0.5, 1] and (0.4, 0.5], then a tail of ratio
    0.8 from index 3: its branch index drifts up by 3 per step on average."""
    return md.build_custom_map([md.make_branch(1, 0.5, 1.0, 2.0),
                                md.make_branch(2, 0.4, 0.5, 10.0)], "staircase",
                               tail={"from_index": 3, "ratio": 0.8, "slope": 6.25})


#: maps whose kernel edges the hypothesis test probes: SV at several ratios and
#: two custom staircases
EDGE_MODELS = {**{f"sv-{r}": md.build_sv_map(r) for r in (0.55, 0.6, 0.75, 0.9, 0.97, 0.99)},
               "sv-copy": sv_copy(0.9), "head-2": two_branch_head_map()}


class TestBatchVsScalar:
    @pytest.mark.parametrize("model", [md.build_sv_map(0.9), two_branch_head_map()],
                             ids=["sv", "head-2"])
    def test_endpoint_zone(self, model):
        # points on both sides of the relative ENDPOINT_TOL band around every edge
        # of branches 1..60: one scalar step aborts iff the batch step does, and
        # otherwise both take the same branch
        edges = sorted({e for i in range(1, 61) for e in model.edges(i)[:2]})
        k = np.arange(1, 21) * 1e-13
        starts = np.concatenate([e * (1.0 + sign * k) for e in edges for sign in (-1.0, 1.0)])
        starts = starts[starts <= 1.0]
        batch = simulate_batch(model, starts, 1, collect_itineraries=True)
        for i, s in enumerate(starts):
            rec = md.simulate_orbit(model, float(s), 1)
            assert (rec.classification == BOUNDARY_ABORT) == batch.aborted[i]
            assert rec.itinerary.tolist() == batch.itineraries[i, :rec.steps].tolist()
        assert 0 < batch.aborted.sum() < len(starts)

    @pytest.mark.parametrize("lam", [0.6, 0.9])
    def test_bitwise_identical(self, lam):
        m = md.build_sv_map(lam)
        starts = 1.0 - np.random.default_rng(8).random(60)
        batch = simulate_batch(m, starts, 50, collect_itineraries=True)
        for i, s in enumerate(starts):
            rec = md.simulate_orbit(m, float(s), 50)
            assert rec.steps == batch.steps[i]
            assert (rec.itinerary == batch.itineraries[i, :rec.steps]).all()

    def test_finite_custom_batch(self):
        branches = [md.make_branch(1, 0.0, 0.5, 2.0), md.make_branch(2, 0.5, 1.0, 2.0)]
        cm = md.build_custom_map(branches, np.ones((2, 2), dtype=bool))
        starts = 1.0 - np.random.default_rng(4).random(40)
        batch = simulate_batch(cm, starts, 30, collect_itineraries=True)
        for i, s in enumerate(starts):
            rec = md.simulate_orbit(cm, float(s), 30)
            assert rec.steps == batch.steps[i]
            assert (rec.itinerary == batch.itineraries[i, :rec.steps]).all()

    @pytest.mark.parametrize("model", [sv_copy(0.9), two_branch_head_map()],
                             ids=["sv-copy", "head-2"])
    def test_tail_maps(self, model):
        # both go deep within the horizon; a scalar orbit stops at its crossing,
        # where the batch continues a certified escaper with -1 steps
        starts = 1.0 - orbit_rng(6).random(40)
        n = 1500
        batch = simulate_batch(model, starts, n, collect_itineraries=True)
        cls = batch.classification()
        went_deep = 0
        for i, s in enumerate(starts):
            rec = md.simulate_orbit(model, float(s), n)
            k = rec.steps
            assert (batch.itineraries[i, :k] == rec.itinerary).all()
            if rec.classification == ESCAPING and k < n:
                went_deep += 1
                assert batch.steps[i] == n and (batch.itineraries[i, k:] == -1).all()
            else:
                assert batch.steps[i] == k
            assert cls[i] == rec.classification
        assert went_deep > 20

    def test_uncertified_crossing_aborts_as_scalar(self):
        # these SV(0.55) orbits cross the deep floor with more steps left than
        # their branch index less ESCAPE_THRESHOLD: both paths abort them at
        # the crossing, none is classified from a deep lower bound
        m = md.build_sv_map(0.55)
        starts = np.array([0.3166252626178424, 0.9506773446204659, 0.7127847152579349,
                           0.52973904675825])
        n = 6000
        batch = simulate_batch(m, starts, n, collect_itineraries=True)
        recs = [md.simulate_orbit(m, float(s), n) for s in starts]
        assert [r.steps for r in recs] == batch.steps.tolist() == [4850, 4853, 4855, 4857]
        assert ([r.classification for r in recs] == batch.classification().tolist()
                == [BOUNDARY_ABORT] * 4)
        for i, rec in enumerate(recs):
            assert rec.points[-1] < DEEP_FLOOR
            assert (batch.itineraries[i, :rec.steps] == rec.itinerary).all()
            assert not batch.itineraries[i, rec.steps:].any()

    def test_crossing_below_a_potential_head_stops(self):
        # phi leaves its tail value on symbol 20000, so no crossing of SV(0.9)
        # is certified: each lane stops where the scalar orbit does, recording
        # no branch below the floor
        m = md.build_sv_map(0.9)
        phi = md.builtin_tail_potential(1.0, {20000: 2.0})
        starts = np.array([1e-299, 3e-299, 5e-299])
        batch = simulate_batch(m, starts, 12, phi=phi, collect_itineraries=True)
        assert batch.steps.tolist() == [2, 11, 4] and batch.aborted.all()
        for i, s in enumerate(starts):
            rec = md.simulate_orbit(m, float(s), 12)
            assert batch.itineraries[i].tolist() == rec.itinerary.tolist() + [0] * (12 - rec.steps)

    def test_escape_without_crossing(self):
        # at horizon 1000 no SV(0.6) orbit reaches the deep floor: every one of
        # these escapes by its quarter minima, in both paths
        m = md.build_sv_map(0.6)
        starts = 1.0 - np.random.default_rng(2).random(50)
        batch = simulate_batch(m, starts, 1000)
        recs = [md.simulate_orbit(m, float(s), 1000) for s in starts]
        assert all(rec.points.min() >= DEEP_FLOOR for rec in recs)
        assert [rec.classification for rec in recs] == [ESCAPING] * 50
        assert (batch.classification() == ESCAPING).all()
        assert [rec.steps for rec in recs] == batch.steps.tolist() == [1000] * 50

    @pytest.mark.parametrize("rule", ["full", "staircase"])
    def test_rule_map_stays_inside_its_branches(self, rule):
        # (0.5, 0.75] and (0.75, 1] each map onto (0.5, 1]: a rule row's image
        # starts at its targets' lower end, as a matrix row's does
        branches = [md.make_branch(1, 0.5, 0.75, 2.0), md.make_branch(2, 0.75, 1.0, 2.0)]
        model = md.build_custom_map(branches, rule)
        matrix = md.build_custom_map(branches, np.ones((2, 2), dtype=bool))
        rec, want = (md.simulate_orbit(m, 0.6, 5) for m in (model, matrix))
        assert rec.itinerary.tolist() == want.itinerary.tolist() == [1, 1, 2, 2, 1]
        assert rec.points.tolist() == want.points.tolist()
        batch = simulate_batch(model, np.array([0.6]), 5, collect_itineraries=True)
        assert batch.itineraries[0].tolist() == [1, 1, 2, 2, 1] and not batch.aborted[0]

    def test_sv_copy_escapes_as_sv(self):
        # the copy with SV(0.9)'s own slopes reproduces its counts and tail mean
        want = md.escape_statistics(md.build_sv_map(0.9), 2000, 1000, seed=0)
        got = md.escape_statistics(sv_copy(0.9), 2000, 1000, seed=0)
        assert got.counts == want.counts and want.counts[ESCAPING] > 1900
        assert got.mean_tail_logt_escapers == want.mean_tail_logt_escapers

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(EDGE_MODELS)), data=st.data())
    def test_patched_lanes_match_scalar(self, name, data):
        # starts a few ulps from edges of geometric rows, from the top row down
        # to the deep floor, and just inside and outside their endpoint bands
        model = EDGE_MODELS[name]
        tab = _branch_table(model)
        deepest = int(np.flatnonzero(tab.rights >= DEEP_FLOOR)[-1])
        rows = data.draw(st.lists(st.integers(tab.first - 1, deepest), min_size=1, max_size=8))
        ulps = data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
        deltas = data.draw(st.lists(st.floats(-0.01, 0.01), min_size=1, max_size=4))
        factors = ([1.0 + j * 2.0 ** -52 for j in ulps]
                   + [1.0 + sign * ENDPOINT_TOL * (1.0 + d) for sign in (-1.0, 1.0)
                      for d in deltas])
        starts = (tab.rights[rows][:, None] * np.array(factors)).ravel()
        check_one_step(model, starts[starts <= 1.0])

    def test_a_missed_guess_is_corrected(self):
        # starts on and one ulp beside the edges of branches 1..300: the log
        # guess misses some of them (x at or below its left edge, or above its
        # right one), all inside endpoint bands
        model = md.build_sv_map(0.9)
        tab = _branch_table(model)
        edges = tab.rights[1:301]
        starts = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0)])
        guess = empirics._log_guess(starts, tab)
        missed = ~((starts > tab.rights[guess]) & (starts <= tab.rights[guess - 1]))
        assert missed.any()
        check_one_step(model, starts[missed][:1])
        check_one_step(model, starts)

    @pytest.mark.parametrize("model", [md.build_sv_map(0.9), two_branch_head_map()],
                             ids=["sv", "head-2"])
    def test_a_start_beneath_the_table_takes_its_true_branch(self, model):
        # below the last edge of the table the log guess is clamped short of
        # the start's branch; the batch steps such a start as the scalar orbit
        # does, records the same branch, and its image below the deep floor
        # makes it a certified escaper
        tab = _branch_table(model)
        last = len(tab.rights) - 1
        above = np.array([0.3, 0.7, tab.rights[-2] * 0.99])
        alone = simulate_batch(model, above, 10, collect_itineraries=True)
        for x in (tab.rights[-1] * 0.5, 2e-301, 1e-305, 1e-310):
            if not x < tab.rights[-1]:
                continue
            rec = md.simulate_orbit(model, x, 10)
            assert rec.steps == 1 and rec.itinerary[0] > last
            assert rec.classification == ESCAPING
            batch = simulate_batch(model, np.append(above, x), 10, collect_itineraries=True)
            assert batch.itineraries[3].tolist() == rec.itinerary.tolist() + [-1] * 9
            assert batch.steps[3] == 10 and not batch.aborted[3]
            deep = md.builtin_log_derivative(model).tail_limit
            assert batch.logt_sum[3] == sum([rec.logt_steps[0]] + [deep] * 9)
            # the lanes at or above the table's last edge are untouched
            for field in dataclasses.fields(alone):
                want, got = getattr(alone, field.name), getattr(batch, field.name)
                assert got is want is None or np.array_equal(want, got[:3])

    @pytest.mark.parametrize("model", [md.build_sv_map(0.9), two_branch_head_map()],
                             ids=["sv", "head-2"])
    def test_starts_outside_the_interval_abort(self, model):
        # a start outside (0, 1] raises, as in simulate_orbit
        for bad in (1.5, 1.0000000000000002, np.inf, np.nan, 0.0, -0.0, -0.5, -np.inf):
            with pytest.raises(DomainError, match="outside"):
                simulate_batch(model, np.array([0.5, bad]), 5)
            with pytest.raises(DomainError, match="outside"):
                md.simulate_orbit(model, bad, 5)


def check_one_step(model, starts):
    """One batch step and one scalar step of every start agree on aborting,
    and on the branch where neither aborts.  The kernel's index stays inside
    the branch table, and where its log guess misses a start in the
    geometric rows, the guess was one row off and the start lies in an
    endpoint band."""
    tab = _branch_table(model)
    _, n, hit = empirics._step(starts, tab)
    assert ((1 <= n) & (n < len(tab.rights))).all()
    geometric = starts <= tab.top
    guess = empirics._log_guess(starts[geometric], tab)
    assert (np.abs(guess - n[geometric]) <= 1).all()
    assert hit[geometric][guess != n[geometric]].all()
    batch = simulate_batch(model, starts, 1, collect_itineraries=True)
    assert (batch.aborted == hit).all()
    for i, s in enumerate(starts):
        rec = md.simulate_orbit(model, float(s), 1)
        assert (rec.classification == BOUNDARY_ABORT) == batch.aborted[i]
        if not batch.aborted[i]:
            assert rec.itinerary[0] == batch.itineraries[i, 0] == n[i]


class TestBatchPotentialErrors:
    """A potential with no value on a symbol the batch visits raises, as
    ``eval_symbols`` does; symbols the batch never visits stay quiet."""

    def test_visited_undefined_symbol_raises(self):
        m = md.build_sv_map(0.9)
        only_1 = md.TablePotential({1: 1.0})
        one = md.constant_potential(1.0)
        starts = 1.0 - orbit_rng(2).random(1000)
        with pytest.raises(DomainError, match="undefined"):
            simulate_batch(m, starts, 50, phi=only_1)
        with pytest.raises(DomainError, match="undefined"):
            md.box_count_level_set(m, only_1, one, 1.0, 0.5, 1000, 50, [0.1, 0.01], seed=3)
        # one step from branch 1 visits nothing else
        got = simulate_batch(m, 0.9 + 0.1 * orbit_rng(2).random(100), 1, phi=only_1)
        assert (got.phi_sum[~got.aborted] == 1.0).all()

    def test_unvisited_undefined_symbols_stay_quiet(self):
        rng = np.random.default_rng([5, 64])
        cm = dense_custom_map(rng)
        values = rng.uniform(0.5, 1.5, 32)
        half = md.TablePotential({i: float(v) for i, v in enumerate(values, start=1)})
        starts = 0.25 * (1.0 - rng.random(500))       # branches 1..16
        got = simulate_batch(cm, starts, 1, phi=half, collect_itineraries=True)
        ok = ~got.aborted
        assert ok.sum() > 400
        assert (got.phi_sum[ok] == values[got.itineraries[ok, 0] - 1]).all()
        with pytest.raises(DomainError, match="undefined"):
            simulate_batch(cm, starts, 100, phi=half)


# ---------------------------------------------------------------------------
# Reference batch: every lane is stepped on every step of the horizon, with
# masks for the lanes that stopped or went deep
# ---------------------------------------------------------------------------
def _ref_sv_step(model, x, active, tab):
    lam = model.lam
    loglam = math.log(lam)
    table = tab.rights
    kmax = len(table) - 1
    ax = np.where(active, x, 0.5)  # placeholder keeps log() quiet
    u = np.log(ax) / loglam
    k = np.clip(np.rint(u), 0, kmax).astype(np.int64)
    edge = table[k]
    hit = np.abs(ax - edge) <= ENDPOINT_TOL * edge
    n = np.clip(np.floor(u).astype(np.int64) + 1, 1, kmax - 2)
    for _ in range(2):
        n = np.where((n > 1) & (ax > table[n - 1]), n - 1, n)
        n = np.where(ax <= table[n], n + 1, n)
    aborted = active & (hit | (ax <= 0.0) | (ax > 1.0))
    stepping = active & ~aborted
    slope = np.where(n == 1, 1.0 / (1.0 - lam), 1.0 / (lam * (1.0 - lam)))
    y = (ax - table[n]) * slope
    new_x = np.where(stepping, y, x)
    idx = np.where(stepping, n, 0)
    return new_x, idx, aborted


def _ref_finite_step(model, x, active, tab, order):
    lefts_s, rights_s = tab.lefts[order], tab.rights[order]
    pos = np.searchsorted(lefts_s, x, side="right") - 1
    pos = np.clip(pos, 0, len(order) - 1)
    inside = (x > lefts_s[pos]) & (x < rights_s[pos])
    scale = np.maximum(np.abs(x), 1e-300)
    near_edge = (np.abs(x - lefts_s[pos]) <= ENDPOINT_TOL * scale) | \
                (np.abs(x - rights_s[pos]) <= ENDPOINT_TOL * scale)
    aborted = active & (~inside | near_edge)
    stepping = active & ~aborted
    branch_ids = order[pos] + 1
    y = (tab.img_lo[branch_ids - 1]
         + (x - tab.lefts[branch_ids - 1]) * tab.slopes[branch_ids - 1])
    new_x = np.where(stepping, y, x)
    idx = np.where(stepping, branch_ids, 0)
    return new_x, idx, aborted


def reference_simulate_batch(model, x0, n, phi=None, psi=None, collect_itineraries=False):
    if n < 1:
        raise DomainError(f"horizon must be >= 1, got {n}")
    x = np.asarray(x0, dtype=float).copy()
    m = len(x)
    active = np.ones(m, dtype=bool)
    deep = np.zeros(m, dtype=bool)
    deep_bound = np.zeros(m, dtype=np.int64)
    steps = np.zeros(m, dtype=np.int64)
    aborted = np.zeros(m, dtype=bool)
    q = n // 4
    fq_min = np.full(m, np.iinfo(np.int64).max)
    lq_min = np.full(m, np.iinfo(np.int64).max)
    logt_sum = np.zeros(m)
    logt_tail = np.zeros(m)
    tail_steps = np.zeros(m, dtype=np.int64)
    phi_sum = np.zeros(m) if phi is not None else None
    psi_sum = np.zeros(m) if psi is not None else None
    its = np.zeros((m, n), dtype=np.int32) if collect_itineraries else None
    tab = _branch_table(model)
    starts = x.copy()
    # deep lanes exist on infinite staircases only: a crossing lane goes deep to the
    # horizon when its bound there exceeds ESCAPE_THRESHOLD - 1 and every symbol on
    # which log|T'|, phi or psi leaves its tail value, and stops otherwise
    deep_supported = model.rule == "staircase" and model.alphabet_size is None
    if model.lam is not None:
        step_fn = _ref_sv_step
        logt_1 = -math.log(1.0 - model.lam)
        logt_deep = -math.log(model.lam * (1.0 - model.lam))
        logt_head = 1

        def logt_of(idx):
            return np.where(idx == 1, logt_1, logt_deep)
    else:
        # a sorted search over every row of the table, tail rows included
        step_fn = functools.partial(_ref_finite_step, order=np.argsort(tab.lefts))
        table = np.array([0.0] + [model.branch(i).log_slope
                                  for i in range(1, len(tab.lefts) + 1)])
        logt_deep = math.log(model.tail.slope) if model.tail is not None else 0.0
        logt_head = model.tail.from_index - 1 if model.tail is not None else None

        def logt_of(idx):
            return table[idx]
    head = max([ESCAPE_THRESHOLD - 1, logt_head if logt_head is not None else 0]
               + [p.head for p in (phi, psi) if p is not None])
    phi_deep = phi.tail_limit if phi is not None else None
    psi_deep = psi.tail_limit if psi is not None else None

    for k in range(n):
        stepping_lanes = active & ~deep
        x, idx, newly_aborted = step_fn(model, x, stepping_lanes, tab)
        if k == 0 and model.tail is not None:
            # a start beneath the table takes the scalar path's first step
            for lane in np.flatnonzero(starts < tab.rights[-1]):
                try:
                    x[lane], idx[lane] = model.apply(float(starts[lane]))
                    newly_aborted[lane] = False
                except BoundaryError:
                    newly_aborted[lane] = True
        aborted |= newly_aborted
        moved = stepping_lanes & ~newly_aborted
        idx = np.where(deep & active, deep_bound, idx)
        counted = moved | (deep & active)
        steps[counted] += 1
        if its is not None:
            its[moved, k] = idx[moved]
            its[deep & active, k] = -1
        safe_idx = np.maximum(idx, 1)
        eval_idx = np.where(deep, 1, safe_idx)
        lt = np.where(deep, logt_deep, logt_of(eval_idx))
        logt_sum[counted] += lt[counted]
        if phi_sum is not None:
            vals = np.where(deep, phi_deep if phi_deep is not None else np.nan,
                            phi.eval_symbols(eval_idx))
            phi_sum[counted] += vals[counted]
        if psi_sum is not None:
            vals = np.where(deep, psi_deep if psi_deep is not None else np.nan,
                            psi.eval_symbols(eval_idx))
            psi_sum[counted] += vals[counted]
        if q >= 1 and k < q:
            fq_min[counted] = np.minimum(fq_min[counted], idx[counted])
        if q >= 1 and k >= n - q:
            lq_min[counted] = np.minimum(lq_min[counted], idx[counted])
            logt_tail[counted] += lt[counted]
            tail_steps[counted] += 1
        crossing = moved & (x < DEEP_FLOOR) & ~deep
        if deep_supported:
            certified = crossing & (idx + k - n > head)
            deep_bound[certified] = idx[certified] - 1
            deep[certified] = True
            crossing &= ~certified
        aborted |= crossing
        moved &= ~crossing
        deep_bound[deep & active] -= 1
        active = moved | (deep & active)
    full = steps == n
    fq = np.where(full, fq_min, 0)
    lq = np.where(full, lq_min, 0)
    return BatchStats(starts=starts, steps=steps, aborted=aborted,
                      first_quarter_min=fq, last_quarter_min=lq,
                      logt_sum=logt_sum, logt_tail_sum=logt_tail,
                      tail_steps=tail_steps,
                      phi_sum=phi_sum, psi_sum=psi_sum, itineraries=its)


def assert_batches_identical(got, want, itineraries=True):
    for f in dataclasses.fields(BatchStats):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "itineraries" and not itineraries:
            assert a is None
            continue
        if b is None:
            assert a is None, f.name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        assert a.tobytes() == b.tobytes(), f.name


def sv_starts(lam, lanes, seed):
    """Uniform starts plus starts exactly on branch endpoints lam**k."""
    edges = [lam ** k for k in range(0, 12)]
    return np.concatenate([1.0 - np.random.default_rng(seed).random(lanes), edges])


def dense_custom_map(rng, m=64):
    """Explicit map on m equal branches; branch i maps onto k_i adjacent ones,
    starting at branch i (or ending at branch m), so every branch is a target."""
    k = rng.integers(2, 5, size=m)
    start = np.minimum(np.arange(m), m - k)
    adj = np.zeros((m, m), dtype=bool)
    for i in range(m):
        adj[i, start[i]:start[i] + k[i]] = True
    branches = [md.make_branch(i + 1, i / m, (i + 1) / m, float(k[i])) for i in range(m)]
    return md.build_custom_map(branches, adj)


class TestBatchAgainstReference:
    @pytest.mark.parametrize("n", [1, 3, 60, 1000, 3000])
    @pytest.mark.parametrize("lam", [0.6, 0.75, 0.9])
    def test_sv_bit_identical(self, lam, n):
        m = md.build_sv_map(lam)
        starts = sv_starts(lam, 150, seed=int(lam * 100) + n)
        want = reference_simulate_batch(m, starts, n, collect_itineraries=True)
        assert want.aborted[-12:].all()  # the endpoint starts abort at once
        assert_batches_identical(simulate_batch(m, starts, n, collect_itineraries=True), want)
        assert_batches_identical(simulate_batch(m, starts, n), want, itineraries=False)

    @pytest.mark.parametrize("lam,n,goes_deep", [(0.6, 7, False), (0.9, 400, False),
                                                 (0.9, 1000, True)])
    def test_sv_potentials_bit_identical(self, lam, n, goes_deep):
        m = md.build_sv_map(lam)
        starts = sv_starts(lam, 100, seed=5)
        logt = md.builtin_log_derivative(m)
        tail = md.builtin_tail_potential(2.0, {1: 0.5, 3: 1.25})
        no_tail = md.builtin_tail_potential(1.5, {2: 0.25})
        no_tail.tail_limit = None   # deep lanes then add NaN
        for phi, psi in ((logt, tail), (no_tail, logt), (tail, None)):
            want = reference_simulate_batch(m, starts, n, phi=phi, psi=psi,
                                            collect_itineraries=True)
            got = simulate_batch(m, starts, n, phi=phi, psi=psi, collect_itineraries=True)
            assert_batches_identical(got, want)
            if phi is no_tail:
                deep = (want.itineraries == -1).any(axis=1)
                assert (np.isnan(got.phi_sum) == deep).all()
                assert deep.any() == goes_deep

    def test_deep_lanes_exhaust(self):
        # at lambda 0.6 many lanes cross the floor with more steps left than
        # their branch index less ESCAPE_THRESHOLD: with no certificate they
        # stop aborted at the crossing, as the scalar orbit does, and never
        # step deep
        m = md.build_sv_map(0.6)
        starts = 1.0 - orbit_rng(3).random(300)
        n = 4000
        got = simulate_batch(m, starts, n, collect_itineraries=True)
        assert_batches_identical(got, reference_simulate_batch(m, starts, n,
                                                               collect_itineraries=True))
        stopped = 0
        for lane in np.flatnonzero(got.aborted):
            rec = md.simulate_orbit(m, float(starts[lane]), n)
            k = rec.steps
            assert rec.classification == BOUNDARY_ABORT and got.steps[lane] == k
            assert (got.itineraries[lane, :k] == rec.itinerary).all()
            assert not got.itineraries[lane, k:].any()
            stopped += bool(rec.points[-1] < DEEP_FLOOR)
        assert stopped > 100

    def test_deep_steps_stop_at_potential_head(self):
        # phi leaves its tail value on symbol 1000, so a crossing lane is
        # certified only while its branch bound at the horizon exceeds 1000;
        # a lane that is certified without phi but not with it stops at the
        # crossing, with the same steps up to there
        m = md.build_sv_map(0.6)
        starts = 1.0 - orbit_rng(3).random(300)
        phi = md.builtin_tail_potential(0.0, {1000: 100.0})
        n = 3000
        plain = simulate_batch(m, starts, n, collect_itineraries=True)
        got = simulate_batch(m, starts, n, phi=phi, collect_itineraries=True)
        its = plain.itineraries
        deep = np.flatnonzero((its == -1).any(axis=1))
        assert not plain.aborted[deep].any() and (plain.steps[deep] == n).all()
        stopped = 0
        for lane in deep:
            cross = int(np.argmax(its[lane] == -1)) - 1
            bound = int(its[lane, cross]) + cross - n
            assert bound > ESCAPE_THRESHOLD - 1
            if bound > 1000:
                assert (got.itineraries[lane] == its[lane]).all() and not got.aborted[lane]
                continue
            stopped += 1
            assert got.aborted[lane] and got.steps[lane] == cross + 1
            assert (got.itineraries[lane, :cross + 1] == its[lane, :cross + 1]).all()
            assert not got.itineraries[lane, cross + 1:].any()
        assert stopped > 100 and len(deep) - stopped > 100
        assert_batches_identical(got, reference_simulate_batch(m, starts, n, phi=phi,
                                                               collect_itineraries=True))

    @pytest.mark.parametrize("model", [sv_copy(0.9), two_branch_head_map()],
                             ids=["sv-copy", "head-2"])
    def test_tail_map_bit_identical(self, model):
        starts = np.concatenate([1.0 - orbit_rng(7).random(150), [0.4, 0.5, 0.9]])
        logt = md.builtin_log_derivative(model)
        phi = md.builtin_tail_potential(2.0, {1: 0.5, 3: 1.25})
        for n in (1, 60, 1500):
            want = reference_simulate_batch(model, starts, n, phi=phi, psi=logt,
                                            collect_itineraries=True)
            assert (want.itineraries == -1).any() == (n == 1500)
            assert_batches_identical(simulate_batch(model, starts, n, phi=phi, psi=logt,
                                                    collect_itineraries=True), want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_custom_bit_identical(self, seed):
        rng = np.random.default_rng([seed, 64])
        cm = dense_custom_map(rng)
        starts = np.concatenate([1.0 - rng.random(500), np.arange(1, 64) / 64,
                                 [1e-305, 3e-302, 1e-301]])
        values = md.TablePotential({(i,): float(v) for i, v in
                                    enumerate(rng.uniform(0.5, 1.5, 64), start=1)})
        for n in (1, 5, 100):
            want = reference_simulate_batch(cm, starts, n, phi=values,
                                            collect_itineraries=True)
            assert want.aborted.any()
            assert_batches_identical(simulate_batch(cm, starts, n, phi=values,
                                                    collect_itineraries=True), want)
        # the tiny starts fall below the floor on their first step
        assert want.aborted[-3:].all() and (want.steps[-3:] == 1).all()

    @settings(max_examples=50, deadline=None)
    @given(lam=st.sampled_from([0.55, 0.6, 0.75, 0.9, 0.97]),
           starts=st.lists(st.floats(min_value=1e-320, max_value=1.0), min_size=1,
                           max_size=40),
           n=st.integers(min_value=1, max_value=500))
    def test_hypothesis_bit_identical(self, lam, starts, n):
        m = md.build_sv_map(lam)
        x0 = np.asarray(starts)
        phi = md.builtin_tail_potential(1.0, {1: 3.0})
        want = reference_simulate_batch(m, x0, n, phi=phi, collect_itineraries=True)
        assert_batches_identical(simulate_batch(m, x0, n, phi=phi, collect_itineraries=True),
                                 want)

    def test_stepping_stops_after_last_live_lane(self, monkeypatch):
        m = md.build_sv_map(0.9)
        starts = 1.0 - orbit_rng(1).random(2000)
        n = 3000
        want = reference_simulate_batch(m, starts, n, collect_itineraries=True)
        # the step on which each lane leaves the live set: its crossing step
        # when it went deep, its aborting step, or the horizon
        live_steps = (want.itineraries > 0).sum(axis=1)
        deep = (want.itineraries == -1).any(axis=1)
        leave = np.where(deep, live_steps - 1,
                         np.where(want.aborted, live_steps, n - 1))
        calls = []
        real = empirics._step

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(empirics, "_step", counting)
        got = simulate_batch(m, starts, n, collect_itineraries=True)
        assert_batches_identical(got, want)
        assert len(calls) == leave.max() + 1 < n

class TestEscapeStatistics:
    def test_seed_range(self):
        for seed in (-1, 2 ** 128):
            with pytest.raises(DomainError, match="seed"):
                orbit_rng(seed)
        assert orbit_rng(0).random() != orbit_rng(2 ** 128 - 1).random()

    def test_positive_fraction_and_tail(self):
        st = md.escape_statistics(md.build_sv_map(0.9), samples=2000, n=400, seed=3)
        assert st.fraction_escaping > 0.0
        assert abs(st.mean_tail_logt_escapers - ALPHA_MAX_09) < 0.01

    def test_horizon_trend(self):
        m = md.build_sv_map(0.6)
        fracs = [md.escape_statistics(m, samples=3000, n=n, seed=3).fraction_escaping
                 for n in (12, 60, 300)]
        assert fracs[0] < fracs[-1]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            md.escape_statistics(md.build_sv_map(0.9), samples=10, n=50, seed=0)

    def test_seed_reproducible(self):
        m = md.build_sv_map(0.75)
        a = md.escape_statistics(m, samples=1500, n=200, seed=42).to_json()
        b = md.escape_statistics(m, samples=1500, n=200, seed=42).to_json()
        assert a == b

    def test_escaper_tail_exact_when_no_branch1(self):
        m = md.build_sv_map(0.9)
        starts = 1.0 - orbit_rng(17).random(2000)
        n = 200
        stats = simulate_batch(m, starts, n, collect_itineraries=True)
        cls = stats.classification()
        # deep steps are recorded as -1, never as branch 1
        tail_has_branch1 = (stats.itineraries[:, n - n // 4:] == 1).any(axis=1)
        esc = (cls == ESCAPING) & ~tail_has_branch1
        assert esc.any()
        avg = stats.logt_tail_sum[esc] / stats.tail_steps[esc]
        assert np.abs(avg - ALPHA_MAX_09).max() < 0.02


def reference_box_count(model, phi, psi, alpha, eps_window, samples, n, grid_levels, seed,
                        bootstrap=200):
    """(slope, band, counts) of box_count_level_set, counting every
    bootstrap resample's boxes with np.unique."""
    levels = [float(e) for e in grid_levels]
    starts = 1.0 - orbit_rng(seed).random(samples)
    stats = simulate_batch(model, starts, n, phi=phi, psi=psi)
    ok = (~stats.aborted) & (stats.steps == n)
    quot = np.where(ok, stats.phi_sum / np.where(ok, stats.psi_sum, 1.0), np.inf)
    retained = stats.starts[ok & (np.abs(quot - alpha) < eps_window)]

    def slope_of(points):
        cnts = [len(np.unique(np.floor(points / e).astype(np.int64))) for e in levels]
        x = np.log(1.0 / np.asarray(levels))
        y = np.log(np.asarray(cnts, dtype=float))
        return float(np.polyfit(x, y, 1)[0])

    counts = tuple(int(len(np.unique(np.floor(retained / e).astype(np.int64))))
                   for e in levels)
    boot_rng = orbit_rng(seed, stream=1)
    bs = []
    for _ in range(bootstrap):
        pick = boot_rng.integers(0, len(retained), len(retained))
        bs.append(slope_of(retained[pick]))
    lo, hi = np.percentile(bs, [2.5, 97.5])
    return slope_of(retained), (float(lo), float(hi)), counts


class TestBoxCount:
    def setup_method(self):
        self.m = md.build_sv_map(0.9)
        self.logt = md.builtin_log_derivative(self.m)
        self.one = md.constant_potential(1.0)
        self.levels = [2.0 ** -k for k in range(4, 9)]

    def test_full_level_set_slope_one(self):
        # phi = psi retains every orbit; the sample fills the interval
        res = md.box_count_level_set(self.m, self.one, self.one, alpha=1.0,
                                     eps_window=0.5, samples=2000, n=50,
                                     grid_levels=self.levels, seed=9)
        assert res.retention_rate == 1.0
        assert abs(res.slope - 1.0) < 0.15
        assert res.band[0] <= res.slope <= res.band[1]

    def test_escape_level_slope_near_one(self):
        res = md.box_count_level_set(self.m, self.logt, self.one, alpha=ALPHA_MAX_09,
                                     eps_window=0.02, samples=3000, n=400,
                                     grid_levels=self.levels, seed=11)
        assert abs(res.slope - 1.0) < 0.15

    def test_retention_decays_with_horizon(self):
        # interior level, tight window: the retained count collapses with the
        # horizon as Lebesgue-typical averages drift to the escape value
        m6 = md.build_sv_map(0.6)
        logt6 = md.builtin_log_derivative(m6)
        starts = 1.0 - orbit_rng(13).random(4000)
        rates = []
        for n in (10, 40, 160):
            stats = simulate_batch(m6, starts, n, phi=logt6, psi=self.one)
            ok = (~stats.aborted) & (stats.steps == n)
            quot = stats.phi_sum / stats.psi_sum
            rates.append(float((ok & (np.abs(quot - 1.2) < 0.06)).mean()))
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        assert rates[0] > 0.05 and rates[-1] < rates[0]
        # the box counter reports the same collapse as an explicit error
        with pytest.raises(InsufficientSampleError):
            md.box_count_level_set(m6, logt6, self.one, alpha=1.2, eps_window=0.06,
                                   samples=4000, n=160, grid_levels=self.levels[:3],
                                   seed=13)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSampleError):
            md.box_count_level_set(self.m, self.logt, self.one, alpha=2.32,
                                   eps_window=1e-6, samples=1000, n=200,
                                   grid_levels=self.levels, seed=1)

    def test_validation(self):
        with pytest.raises(DomainError):
            md.box_count_level_set(self.m, self.logt, self.one, alpha=2.35,
                                   eps_window=0.1, samples=100, n=20,
                                   grid_levels=self.levels, seed=1)
        with pytest.raises(DomainError):
            md.box_count_level_set(self.m, self.logt, self.one, alpha=2.35,
                                   eps_window=0.1, samples=1000, n=20,
                                   grid_levels=[0.1, 0.2], seed=1)

    @pytest.mark.parametrize("seed", [4, 11, 29])
    def test_bootstrap_matches_reference(self, seed):
        # boxes fine enough that resamples miss some of them
        kw = dict(eps_window=0.02, samples=4000, n=400, seed=seed,
                  grid_levels=[2.0 ** -k for k in range(6, 13)])
        got = md.box_count_level_set(self.m, self.logt, self.one, ALPHA_MAX_09, **kw)
        want = reference_box_count(self.m, self.logt, self.one, ALPHA_MAX_09, **kw)
        assert got.retained > 1000 and got.band[0] < got.band[1]
        assert (got.slope, got.band, got.counts) == want

    def test_reproducible(self):
        kw = dict(alpha=ALPHA_MAX_09, eps_window=0.05, samples=1500, n=80,
                  grid_levels=self.levels[:3], seed=21)
        a = md.box_count_level_set(self.m, self.logt, self.one, **kw)
        b = md.box_count_level_set(self.m, self.logt, self.one, **kw)
        assert a.to_dict() == b.to_dict()


class TestRngStreams:
    def test_deterministic(self):
        assert orbit_rng(5).random(4).tolist() == orbit_rng(5).random(4).tolist()

    def test_streams_differ(self):
        assert orbit_rng(5, 0).random(4).tolist() != orbit_rng(5, 1).random(4).tolist()
