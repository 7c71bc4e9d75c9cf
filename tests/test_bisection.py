"""The plain halving of a bracket: the test-only oracle behind the package's
replayed halving (``_halving``, which the staircase Perron root and the
Bowen root run) and behind the bisection oracles of the variational search."""
import math

from hypothesis import assume, given, settings, strategies as st

from markovdim.pressure import _halving


def bisect(at_or_above, lo: float, hi: float, width) -> tuple[float, int]:
    """(midpoint, halvings) of the bracket [lo, hi] of the threshold where the
    monotone ``at_or_above`` turns True, halved until ``hi - lo <= width(hi)``
    or until the midpoint rounds onto an end (one ulp)."""
    steps = 0
    while hi - lo > width(hi):
        mid = 0.5 * lo + 0.5 * hi     # 0.5 * (lo + hi) without its overflow
        if not lo < mid < hi:
            break
        if at_or_above(mid):
            hi = mid
        else:
            lo = mid
        steps += 1
    return 0.5 * lo + 0.5 * hi, steps


class TestBisect:
    """The halving that the oracles run and the package's replays reproduce."""

    @settings(max_examples=400, deadline=None)
    @given(ends=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                         max_size=2, unique=True),
           frac=st.floats(0.0, 1.0), strict=st.booleans(), w=st.floats(0.0, 1.0),
           relative=st.booleans())
    def test_returns_inside_its_bracket(self, ends, frac, strict, w, relative):
        lo, hi = sorted(ends)
        t = min(max((1.0 - frac) * lo + frac * hi, lo), hi)
        assume(lo <= t < hi if strict else lo < t <= hi)   # False at lo, True at hi

        def threshold(x):
            return x > t if strict else x >= t

        probes = []

        def at_or_above(x):
            probes.append((x, threshold(x)))
            return probes[-1][1]

        width = (lambda h: w * abs(h)) if relative else (lambda h: w)
        mid, steps = bisect(at_or_above, lo, hi, width)
        a, b = lo, hi
        for x, above in probes:   # every probe splits the current bracket
            assert a < x < b
            a, b = (a, x) if above else (x, b)
        assert not threshold(a) and threshold(b)
        assert mid == 0.5 * a + 0.5 * b and a <= mid <= b
        assert b - a <= width(b) or mid in (a, b)
        # the width halves from below 2^1025 until it is one ulp, at least 2^-1074
        assert steps == len(probes) <= 2100

    def test_zero_width_stops_at_one_ulp(self):
        mid, steps = bisect(lambda x: x >= 5e-324, 0.0, 1.0, lambda h: 0.0)
        assert mid in (0.0, 5e-324) and steps <= 1075
        mid, steps = bisect(lambda x: x >= 0.7, 0.0, 1.0, lambda h: 0.0)
        assert mid == 0.7 and steps <= 53


class TestHalving:
    """The package's halving, told where the predicate is already settled,
    returns the oracle's bracket and tests only the midpoints in between."""

    @settings(max_examples=400, deadline=None)
    @given(ends=st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2, unique=True),
           frac=st.floats(0.0, 1.0), strict=st.booleans(), w=st.floats(0.0, 1.0),
           relative=st.booleans(), settled=st.tuples(st.floats(-0.5, 1.0), st.floats(-0.5, 1.0)),
           infinite=st.tuples(st.booleans(), st.booleans()))
    def test_returns_the_oracle_bracket(self, ends, frac, strict, w, relative, settled,
                                        infinite):
        lo, hi = sorted(ends)
        t = min(max((1.0 - frac) * lo + frac * hi, lo), hi)
        assume(lo <= t < hi if strict else lo < t <= hi)   # False at lo, True at hi

        def threshold(x):
            return x > t if strict else x >= t

        # ends settled on either side of the threshold, up to half the bracket
        # beyond lo and hi, or none
        false_to = -math.inf if infinite[0] else t - settled[0] * (t - lo)
        true_from = math.inf if infinite[1] else t + settled[1] * (hi - t)
        assume(not threshold(false_to) and threshold(true_from))

        probes, tested = [], []

        def oracle(x):
            probes.append(x)
            return threshold(x)

        def at_or_above(x):
            tested.append(x)
            return threshold(x)

        width = (0.0, w) if relative else (w, 0.0)
        bisect(oracle, lo, hi, lambda h: width[0] + width[1] * h)
        a, b = lo, hi
        for x in probes:
            a, b = (a, x) if threshold(x) else (x, b)
        assert _halving(lo, hi, width, false_to, true_from, at_or_above) == (a, b)
        assert tested == [x for x in probes if false_to < x < true_from]
