"""Orbit simulation, escape statistics, and box counting."""
import json
import math

import numpy as np
import pytest

import markovdim as md
from markovdim.empirics import (BOUNDARY_ABORT, ESCAPING, RECURRENT_WINDOW,
                                orbit_rng, simulate_batch)
from markovdim.errors import DomainError, InsufficientSampleError

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

    def test_deep_orbit_certified_escaping(self):
        rec = md.simulate_orbit(md.build_sv_map(0.9), 0.5, 2000)
        assert rec.classification == ESCAPING

    def test_potentials_recorded(self):
        m = md.build_sv_map(0.9)
        logt = md.builtin_log_derivative(m)
        one = md.constant_potential(1.0)
        rec = md.simulate_orbit(m, 0.61, 20, phi=logt, psi=one)
        assert (rec.phi_steps == rec.logt_steps).all()
        assert (rec.psi_steps == 1.0).all()


class TestBirkhoffQuotient:
    def setup_method(self):
        self.m = md.build_sv_map(0.9)
        self.logt = md.builtin_log_derivative(self.m)
        self.one = md.constant_potential(1.0)

    def test_equal_potentials(self):
        rec = md.simulate_orbit(self.m, 0.77, 30)
        for w in (5, 17, 30):
            assert md.birkhoff_quotient(rec, self.logt, self.logt, w) == \
                pytest.approx(1.0, rel=1e-13)

    def test_unit_denominator_is_plain_average(self):
        rec = md.simulate_orbit(self.m, 0.77, 30)
        got = md.birkhoff_quotient(rec, self.logt, self.one, 12)
        want = float(np.mean(rec.logt_steps[-12:]))
        assert got == pytest.approx(want, rel=1e-13)

    def test_escaping_tail_near_alpha_max(self):
        rec = md.simulate_orbit(self.m, 0.437, 200)
        assert rec.steps == 200
        window = 100
        tail = rec.itinerary[-window:]
        assert (tail >= 2).all()  # orbit long gone from branch 1
        got = md.birkhoff_quotient(rec, self.logt, self.one, window)
        assert abs(got - ALPHA_MAX_09) < 0.01

    def test_window_validation(self):
        rec = md.simulate_orbit(self.m, 0.77, 10)
        with pytest.raises(DomainError):
            md.birkhoff_quotient(rec, self.logt, self.one, 11)

    def test_floor_required(self):
        rec = md.simulate_orbit(self.m, 0.77, 10)
        bare = md.TablePotential({(1,): 1.0}, default=1.0)
        with pytest.raises(DomainError):
            md.birkhoff_quotient(rec, self.logt, bare, 5)


class TestBatchVsScalar:
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


class TestEscapeStatistics:
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
        stats = simulate_batch(m, starts, 200)
        cls = stats.classification()
        esc = (cls == ESCAPING) & ~stats.tail_has_branch1
        assert esc.any()
        avg = stats.logt_tail_sum[esc] / stats.tail_steps[esc]
        assert np.abs(avg - ALPHA_MAX_09).max() < 0.02


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
