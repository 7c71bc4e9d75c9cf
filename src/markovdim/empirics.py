"""Monte-Carlo cross-checks: orbits, orbit batches, escape, box counts.

Everything here is an empirical surrogate for infinite-time quantities and
is labeled as such: "escaping" is a finite-horizon branch-index drift test,
and box-count slopes are upward-biased estimates of level-set dimensions
(the finite-horizon membership window strictly contains the true level
set).  Nothing in this module feeds back into the analytic spectrum.

Randomness comes from a counter-based generator (Philox) keyed by an
explicit seed; per-stream derivation uses jumps, so results are bit-for-bit
reproducible.

Every model steps through the one vectorized loop of :func:`simulate_batch`
and its one kernel over the model's branch table, built on the first batch
and kept with the model.  In the geometric rows of a tail (every row, for
SV) the kernel guesses a lane's branch from log x, gathers the guessed
branch's two edges and its slope, and corrects only the lanes the guess
misses; the explicit branches above the tail take a sorted search.  A step
then adds each potential's value on the lane's branch with one gather from
a table over the rows.

An orbit that falls below :data:`DEEP_FLOOR` has one way out, in the batch
as in :func:`simulate_orbit`: it is a certified escaper that runs to the
horizon on the tail values, or it stops where it crossed, aborted.
"""
from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, DomainError, InsufficientSampleError
from .markov import ENDPOINT_TOL, MarkovMapModel, _near
from .potentials import TablePotential, builtin_log_derivative

#: an orbit escapes when the minimum of its final-quarter branch indices
#: exceeds that of its first quarter and is at least this
ESCAPE_THRESHOLD = 5

#: bootstrap resamples behind the percentile band of a box-count slope
BOX_COUNT_BOOTSTRAP = 200

#: below this the position is no longer resolvable in doubles.  On an
#: infinite staircase (a map with a tail) the branch index drops by at most 1
#: per step, so an orbit of horizon n that crosses it in branch i at step k
#: (counted from 0) sits in a branch >= i + k - n at every later step.  While
#: that bound exceeds ESCAPE_THRESHOLD - 1 the orbit is a certified escaper;
#: every other orbit, and every orbit of a finite map, aborts at the crossing.
DEEP_FLOOR = 1e-300

RECURRENT_WINDOW = "RECURRENT_WINDOW"
ESCAPING = "ESCAPING"
BOUNDARY_ABORT = "BOUNDARY_ABORT"


def orbit_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream); streams are independent.
    The seed is the Philox key, an integer in [0, 2^128)."""
    if not 0 <= seed < 1 << 128:
        raise DomainError(f"seed must lie in [0, 2^128), got {seed}")
    bg = np.random.Philox(key=seed)
    if stream:
        bg = bg.jumped(stream)
    return np.random.Generator(bg)


# ---------------------------------------------------------------------------
# Single-orbit simulation
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class OrbitRecord:
    """One simulated orbit with its itinerary and running Birkhoff sums."""

    start: float
    itinerary: np.ndarray            # branch index per successful step
    points: np.ndarray               # x_0 .. x_k (one longer than itinerary)
    logt_steps: np.ndarray           # log|T'| at each step
    classification: str

    @property
    def steps(self) -> int:
        return len(self.itinerary)

    @property
    def birkhoff_sums(self) -> dict:
        """Running sums S_k of log|T'| (index k = steps)."""
        return {"logT": np.concatenate([[0.0], np.cumsum(self.logt_steps)])}


def _classify(first_min, last_min, aborted) -> np.ndarray:
    """Classes of orbits from their first- and final-quarter least branch
    indices and abort flags: ESCAPING when the final quarter's exceeds the
    first's and is at least ESCAPE_THRESHOLD.  An aborted orbit's minima are
    not read."""
    esc = (last_min > first_min) & (last_min >= ESCAPE_THRESHOLD)
    return np.where(aborted, BOUNDARY_ABORT, np.where(esc, ESCAPING, RECURRENT_WINDOW))


def simulate_orbit(model: MarkovMapModel, x0: float, n: int) -> OrbitRecord:
    """Apply the map up to ``n`` times from ``x0``.

    An endpoint hit aborts the orbit with classification BOUNDARY_ABORT
    (recorded on the result, not raised).  An orbit that drops below
    :data:`DEEP_FLOOR` stops there: on an infinite staircase it is a
    certified escaper (ESCAPING) while the remaining horizon is shorter than
    its branch index less the escape threshold; otherwise, and always on a
    finite map, it is BOUNDARY_ABORT.  Any other orbit is classified from
    its quarter minima, as a batch lane is.
    Log|T'| (:func:`builtin_log_derivative`, as in the batch) is evaluated
    along the itinerary and its per-step values recorded.
    """
    if n < 1:
        raise DomainError(f"horizon must be >= 1, got {n}")
    if not (0.0 < x0 <= 1.0):
        raise DomainError(f"start point {x0} outside (0, 1]")
    xs = [x0]
    itinerary: list[int] = []
    aborted = False
    went_deep = False
    x = x0
    for _ in range(n):
        try:
            x, idx = model.apply(x)
        except BoundaryError:
            aborted = True
            break
        itinerary.append(idx)
        xs.append(x)
        if x < DEEP_FLOOR:
            went_deep = True
            break
    it = np.asarray(itinerary, dtype=np.int64)
    logt = builtin_log_derivative(model).eval_symbols(it)
    if went_deep:
        # escape is certified only on an infinite staircase (a tail implies the
        # rule, whose branch index drops by at most 1 per step), and only while
        # the remaining horizon cannot bring the branch index back down
        certified = (model.tail is not None
                     and n - len(itinerary) < int(itinerary[-1]) - ESCAPE_THRESHOLD)
        cls = ESCAPING if certified else BOUNDARY_ABORT
    else:
        q = n // 4
        mins = (it[:q].min(), it[n - q:].min()) if q and not aborted else (0, 0)
        cls = str(_classify(*mins, aborted))
    return OrbitRecord(start=x0, itinerary=it, points=np.asarray(xs),
                       logt_steps=logt, classification=cls)


# ---------------------------------------------------------------------------
# Vectorized batches
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _BranchTable:
    """Branches 1..K of a model as read-only arrays, row n - 1 for branch n;
    the explicit rows in the order of their left endpoints; and the
    geometric rows ``first``.. at or below ``top`` (-inf without a tail),
    where row k of ``rights`` is the left end of branch k.  A lane at x in
    the geometric rows guesses its branch as the integer part of
    ``log(x) * u_scale + u_shift``, which is the tail position u plus 1."""

    lefts: np.ndarray
    rights: np.ndarray
    slopes: np.ndarray
    img_lo: np.ndarray
    order: np.ndarray
    lefts_s: np.ndarray
    rights_s: np.ndarray
    first: int
    top: float
    u_scale: float
    u_shift: float


#: each model's branch table, built by its first batch: a model is immutable,
#: so the table is a pure function of it, and weak keys let it go with the model
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _branch_table(model: MarkovMapModel) -> _BranchTable:
    """The branch table of ``model``, built once and kept while the model lives."""
    tab = _TABLES.get(model)
    if tab is None:
        tab = _TABLES[model] = _build_branch_table(model)
    return tab


def _build_branch_table(model: MarkovMapModel) -> _BranchTable:
    """Rows of branches 1..K from ``model.edges``, the scalar path's own
    expressions, so batch and scalar orbits see bitwise-identical endpoints.
    K is a finite model's alphabet; a tail runs nine rows past the first
    branch whose left end is below the deep floor.  The geometric rows are
    the tail's and every explicit row just above it whose edges the tail's
    formula gives bitwise (for SV all of them, from branch 1)."""
    t = model.tail
    if t is None:
        count = model.alphabet_size
    else:
        count = t.base + int(math.log(DEEP_FLOOR / t.scale) / math.log(t.ratio)) + 10
    rows = np.fromiter((v for i in range(1, count + 1) for v in model.edges(i)),
                       dtype=float, count=3 * count).reshape(count, 3)
    lefts, rights, slopes = (np.ascontiguousarray(col) for col in rows.T)
    img_lo = np.pad(model.image_lo, (0, count - len(model.image_lo)))
    order = np.argsort(lefts[:len(model.explicit)])
    first, top, u_scale, u_shift = count + 1, -math.inf, math.nan, math.nan
    if t is not None:
        first = t.from_index
        while first > 1 and (lefts[first - 2], rights[first - 2]) == (t.left(first - 1),
                                                                     t.left(first - 2)):
            first -= 1
        top = rights[first - 1]
        u_scale = 1.0 / math.log(t.ratio)
        u_shift = 1.0 + t.position(0.0)
    arrays = (lefts, rights, slopes, img_lo, order, lefts[order], rights[order])
    for arr in arrays:
        arr.setflags(write=False)
    return _BranchTable(*arrays, first, top, u_scale, u_shift)


def _step(x: np.ndarray, tab: _BranchTable):
    """One vectorized map step of every lane of ``x``.

    Returns (new x, branch indices, aborted mask); the new x of an aborted
    lane means nothing, and its index is some row of the table.  When the
    geometric rows cover (0, 1], as for SV, every lane takes
    :func:`_guess_rows`.  Otherwise lanes above ``tab.top`` take a sorted
    search of the explicit rows, the others :func:`_guess_rows`.  Both
    compare ``x`` with the floats of ``model.edges`` by the endpoint test of
    ``MarkovMapModel.locate``, so decisions match the scalar path exactly.
    """
    if tab.top == 1.0:
        return _guess_rows(x, tab)
    low = x <= tab.top
    if low.all():
        return _guess_rows(x, tab)
    pos = np.maximum(np.searchsorted(tab.lefts_s, x, side="right") - 1, 0)
    left, right = tab.lefts_s[pos], tab.rights_s[pos]
    near_edge = _near(x, left) | _near(x, right)
    rows = tab.order[pos]
    y = tab.img_lo[rows] + (x - left) * tab.slopes[rows]
    n, hit = rows + 1, ~((x > left) & (x < right)) | near_edge
    if low.any():
        y[low], n[low], hit[low] = _guess_rows(x[low], tab)
    return y, n, hit


def _log_guess(x: np.ndarray, tab: _BranchTable) -> np.ndarray:
    """Each lane's branch guessed from log x: the integer part of the tail
    position plus 1, clamped to rows ``tab.first``..K - 2."""
    u = np.log(x)
    u *= tab.u_scale
    u += tab.u_shift
    n = u.astype(np.int64)
    np.maximum(n, tab.first, out=n)
    return np.minimum(n, len(tab.rights) - 3, out=n)


def _guess_rows(x: np.ndarray, tab: _BranchTable):
    """Lanes in the geometric rows: the log guess n of each lane's branch,
    checked against its two edges, ``tab.rights[n]`` < x <= ``tab.rights[n - 1]``.

    Three gathers per step (the two edges and the slope).  A lane inside
    its guessed branch takes the endpoint test on those two edges and steps.
    The vectorized log differs from libm in the last ulp, so the guess is
    off by at most one row, and for x from ``tab.top`` down to the deep
    floor only inside an endpoint band, where the lane aborts.  The lanes
    that miss are the only ones corrected, by up to two moves of one row,
    and take the endpoint test on the edges of the branch they end in.
    Misses outside a band are a start beneath the table, whose clamped
    guess moves to the last row (:func:`simulate_batch` steps such a start
    through ``model.apply`` instead), and x outside (0, ``tab.top``] or NaN,
    which reach here when the geometric rows cover (0, 1] and abort.
    """
    table = tab.rights
    n = _log_guess(x, tab)
    below = n - 1
    left, right = table.take(n), table.take(below)
    inside = (x > left) & (x <= right)
    # inside its branch, x - left > 0 and right - x >= 0 are the distances of
    # the endpoint test, bit for bit
    d = x - left
    hit = (d <= ENDPOINT_TOL * left) | (right - x <= ENDPOINT_TOL * right)
    if not inside.all():
        miss = np.flatnonzero(~inside)
        xm, nm = x[miss], n[miss]
        for _ in range(2):
            nm = np.where((nm > tab.first) & (xm > table[nm - 1]), nm - 1, nm)
            nm = np.where(xm <= table[nm], nm + 1, nm)
        edge = table[nm]
        n[miss], below[miss], d[miss] = nm, nm - 1, xm - edge
        hit[miss] = (_near(xm, edge) | _near(xm, table[nm - 1])
                     | ~((xm > 0.0) & (xm <= tab.top)))
    # same arithmetic as the scalar path (slope multiply; a geometric row's
    # image starts at 0), so batch and scalar orbits agree bitwise
    d *= tab.slopes.take(below)
    return d, n, hit


@dataclass
class BatchStats:
    """Aggregates of a batch of simulated orbits (one entry per orbit)."""

    starts: np.ndarray
    steps: np.ndarray
    aborted: np.ndarray
    first_quarter_min: np.ndarray
    last_quarter_min: np.ndarray
    logt_sum: np.ndarray
    logt_tail_sum: np.ndarray
    tail_steps: np.ndarray
    phi_sum: np.ndarray | None = None
    psi_sum: np.ndarray | None = None
    itineraries: np.ndarray | None = None

    def classification(self) -> np.ndarray:
        return _classify(self.first_quarter_min, self.last_quarter_min, self.aborted)


def _mapped_zeros(m: int, n: int) -> np.ndarray:
    """Zeroed (m, n) int32 array; from 1 MiB up in a memory map of its own.

    From ``np.zeros`` a large array comes from the malloc heap once one of
    its size has been freed (glibc then raises its mmap threshold).  Small
    blocks that numpy caches for reuse can split the hole the freed array
    left, and the heap then grows by the array's size again: the
    itineraries of a 2000 x 3000 batch raised the peak RSS of a run by
    24 MB that way.  A map of its own goes back to the system on release.
    """
    if m * n * 4 < 1 << 20:
        return np.zeros((m, n), dtype=np.int32)
    import mmap  # here, so that imports which never map pay nothing for it
    buf = mmap.mmap(-1, m * n * 4, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=np.int32).reshape(m, n)


def _compact(state: dict, keep: np.ndarray) -> dict:
    return {key: arr[keep] for key, arr in state.items()}


def _add_repeatedly(sums: np.ndarray, lanes: np.ndarray, counts: np.ndarray, c: float) -> None:
    """Add ``c`` to ``sums[lanes[j]]`` ``counts[j]`` times, one add at a time,
    since in IEEE arithmetic ``s + r*c`` is not r repeated adds.  Counts
    never increase along ``lanes``, so the lanes of each round are a prefix."""
    s = sums[lanes]
    # round r adds to the lanes with more than r adds
    for end in np.searchsorted(-counts, -np.arange(counts.max(initial=0))):
        s[:end] += c
    sums[lanes] = s


def _scalar_steps(model: MarkovMapModel, xs: np.ndarray):
    """(images, branch indices, endpoint hits) of one ``model.apply`` step
    from each x, as :func:`_step` returns them for its lanes."""
    y, idx, hit = np.zeros(len(xs)), np.ones(len(xs), dtype=np.int64), np.zeros(len(xs), bool)
    for j, x in enumerate(xs.tolist()):
        try:
            y[j], idx[j] = model.apply(x)
        except BoundaryError:
            hit[j] = True
    return y, idx, hit


def simulate_batch(model: MarkovMapModel, x0: np.ndarray, n: int,
                   phi: TablePotential | None = None, psi: TablePotential | None = None,
                   collect_itineraries: bool = False) -> BatchStats:
    """Vectorized orbit batch; semantics per-orbit match simulate_orbit, and a
    start outside (0, 1], or NaN, raises DomainError as it does there.

    Every model takes the same setup and kernel: its branch table (built
    once per model), and :func:`_step`, a log guess over the geometric rows
    and a sorted search over the explicit ones.  Log|T'| (from
    :func:`builtin_log_derivative`), phi and psi are read once, on every
    branch the table can return, and a step gathers each one's values on
    the lanes' branches.  A visited branch on which one of them has no value
    raises DomainError, as ``eval_symbols`` does; branches no lane visits
    are never checked.

    Only live lanes are stepped.  Their lane indices and running state
    (position, Birkhoff sums, quarter minima) sit in
    compact arrays; a lane writes its state back to the output only when it
    leaves, by a boundary abort, a deep crossing or the horizon.  A live
    lane's step count is the step number, so it needs no update per step.
    Stepping stops once no live lane is left.

    A lane that crosses :data:`DEEP_FLOOR` in branch i at step k leaves at
    once.  On an infinite staircase (a map with a tail, as SV) every later
    step sits in a branch >= i + k - n (the index drops by at most 1 per
    step).  When that bound exceeds ESCAPE_THRESHOLD - 1 and the head of
    every table the batch reads (log|T'|, phi, psi), the lane is certified:
    each deep step to the horizon takes every table's tail value exactly
    (NaN without one), is recorded in itineraries as -1, and bounds the
    quarter minima.  Every other crossing lane, and every one on a finite
    map, aborts after its crossing step, as in :func:`simulate_orbit`.
    The deep steps' adds follow the loop, one add per step, so every field
    is bit-identical to stepping a certified lane to the horizon.

    A start beneath the table's last edge, far below the deep floor on a
    map with a tail, takes its first step through ``model.apply``, as in
    :func:`simulate_orbit`, and so records its true branch; its image lies
    below the floor, where the crossing rule above takes over.
    """
    if n < 1:
        raise DomainError(f"horizon must be >= 1, got {n}")
    starts = np.asarray(x0, dtype=float).copy()
    outside = ~((starts > 0.0) & (starts <= 1.0))
    if outside.any():
        raise DomainError(f"start point {starts[outside][0]} outside (0, 1]")
    m = len(starts)
    q = n // 4
    tail_start = n - q if q else n       # first step of the final quarter
    big = np.iinfo(np.int64).max
    out = BatchStats(starts=starts, steps=np.zeros(m, dtype=np.int64),
                     aborted=np.zeros(m, dtype=bool),
                     first_quarter_min=np.full(m, big), last_quarter_min=np.full(m, big),
                     logt_sum=np.zeros(m), logt_tail_sum=np.zeros(m),
                     tail_steps=np.zeros(m, dtype=np.int64),
                     phi_sum=np.zeros(m) if phi is not None else None,
                     psi_sum=np.zeros(m) if psi is not None else None,
                     itineraries=_mapped_zeros(m, n) if collect_itineraries else None)
    its = out.itineraries
    tab = _branch_table(model)
    bottom = tab.rights[-1] if model.tail is not None else 0.0
    beneath = np.flatnonzero(starts < bottom)
    first = _scalar_steps(model, starts[beneath])
    logt = builtin_log_derivative(model)
    tables = {key: pot for key, pot in (("logt", logt), ("phi", phi), ("psi", psi))
              if pot is not None}
    # each table's value on every branch a step can return, entry i for
    # branch i (entry 0 is never read); one with undefined (NaN) entries
    # is checked on the entries a step reads
    size = max(len(tab.rights), int(first[1].max(initial=0)))
    rows = {key: np.concatenate(([math.nan], pot.values_or_nan(size)))
            for key, pot in tables.items()}
    partial = {key for key, row in rows.items() if np.isnan(row[1:]).any()}
    # the bound a certified crossing exceeds; a map without a tail certifies nothing
    floor = (max(ESCAPE_THRESHOLD - 1, *(pot.head for pot in tables.values()))
             if model.tail is not None else math.inf)
    sink = {"logt": out.logt_sum, "tail": out.logt_tail_sum, "phi": out.phi_sum,
            "psi": out.psi_sum, "fqm": out.first_quarter_min,
            "lqm": out.last_quarter_min}

    def retire(state: dict, sel) -> np.ndarray:
        """Write the selected lanes' running state to the output."""
        lanes = state["lane"][sel]
        for key, arr in state.items():
            if key in sink:
                sink[key][lanes] = arr[sel]
        return lanes

    live = {"lane": np.arange(m), "x": starts.copy(), **{key: np.zeros(m) for key in tables}}
    if q:
        live["fqm"] = np.full(m, big)
    deep, crossed = [], []       # certified lanes in crossing order, their crossing steps

    for k in range(n):
        if not len(live["lane"]):
            break
        if q and k == q:
            # the first quarter is over: its minima of live lanes are final
            out.first_quarter_min[live["lane"]] = live.pop("fqm")
        if k == tail_start:
            count = len(live["lane"])
            live.update(tail=np.zeros(count), lqm=np.full(count, big))

        y, idx, hit = _step(live["x"], tab)
        if k == 0 and len(beneath):
            y[beneath], idx[beneath], hit[beneath] = first
        if hit.any():
            lanes = retire(live, hit)
            out.steps[lanes] = k
            out.aborted[lanes] = True
            keep = ~hit
            live = _compact(live, keep)
            y, idx = y[keep], idx[keep]
        live["x"] = y
        if its is not None:
            its[live["lane"], k] = idx
        vals = {key: row.take(idx) for key, row in rows.items()}
        for key, v in vals.items():
            if key in partial and np.isnan(v).any():
                tables[key].eval_symbols(idx)   # raises on the undefined symbol
            live[key] += v
        if k < q:
            live["fqm"] = np.minimum(live["fqm"], idx)
        if k >= tail_start:
            live["tail"] += vals["logt"]
            live["lqm"] = np.minimum(live["lqm"], idx)

        low = y < DEEP_FLOOR
        if not low.any():
            continue
        lanes = retire(live, low)
        bound = idx[low] + k - n        # the branch bound at the horizon
        certified = bound > floor
        out.steps[lanes] = np.where(certified, n, k + 1)
        out.aborted[lanes] = ~certified
        live = _compact(live, ~low)
        if not certified.any():
            continue
        lanes, bound = lanes[certified], bound[certified]
        deep.append(lanes)
        crossed.append(np.full(len(lanes), k))
        if its is not None:
            its[lanes, k + 1:] = -1
        # minima over the deep steps: the bound at the quarter's final step
        if k + 1 < q:
            out.first_quarter_min[lanes] = np.minimum(out.first_quarter_min[lanes],
                                                      bound + n - q)
        if q and k < n - 1:
            out.last_quarter_min[lanes] = np.minimum(out.last_quarter_min[lanes], bound)

    out.steps[retire(live, slice(None))] = n
    if deep:
        # the deep steps' adds, in the order stepping would make them
        lanes, crossed = np.concatenate(deep), np.concatenate(crossed)
        for key, pot in tables.items():
            c = math.nan if pot.tail_limit is None else pot.tail_limit
            _add_repeatedly(sink[key], lanes, n - 1 - crossed, c)
        _add_repeatedly(out.logt_tail_sum, lanes, n - np.maximum(crossed + 1, tail_start),
                        logt.tail_limit)
    full = out.steps == n
    out.first_quarter_min = np.where(full, out.first_quarter_min, 0)
    out.last_quarter_min = np.where(full, out.last_quarter_min, 0)
    # a lane's steps are a prefix of the horizon
    out.tail_steps = np.maximum(out.steps - tail_start, 0)
    return out


# ---------------------------------------------------------------------------
# Escape statistics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EscapeStats:
    samples: int
    horizon: int
    seed: int
    fraction_escaping: float
    mean_tail_logt_escapers: float | None
    counts: dict

    def to_dict(self) -> dict:
        return {"samples": self.samples, "horizon": self.horizon, "seed": self.seed,
                "fraction_escaping": self.fraction_escaping,
                "mean_tail_logt_escapers": self.mean_tail_logt_escapers,
                "counts": self.counts}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _uniform_starts(rng: np.random.Generator, samples: int) -> np.ndarray:
    return 1.0 - rng.random(samples)  # uniform on (0, 1]


def escape_statistics(model: MarkovMapModel, samples: int, n: int, seed: int) -> EscapeStats:
    """Classify uniformly sampled orbits and report the escaping fraction
    plus the mean final-window Lyapunov average among escapers."""
    if samples < 1000:
        raise DomainError(f"need >= 1000 samples, got {samples}")
    starts = _uniform_starts(orbit_rng(seed), samples)
    stats = simulate_batch(model, starts, n)
    cls = stats.classification()
    esc = cls == ESCAPING
    counts = {RECURRENT_WINDOW: int((cls == RECURRENT_WINDOW).sum()),
              ESCAPING: int(esc.sum()),
              BOUNDARY_ABORT: int((cls == BOUNDARY_ABORT).sum())}
    mean_tail = None
    if esc.any():
        avg = stats.logt_tail_sum[esc] / np.maximum(stats.tail_steps[esc], 1)
        mean_tail = float(avg.mean())
    return EscapeStats(samples=samples, horizon=n, seed=seed,
                       fraction_escaping=float(esc.mean()),
                       mean_tail_logt_escapers=mean_tail, counts=counts)


def orbit_summaries_csv(model: MarkovMapModel, samples: int, n: int, seed: int,
                        header_lines: list[str] | None = None) -> str:
    """Per-orbit CSV: start,classification,steps,avg_logT_tail,quotient."""
    if samples < 1:
        raise DomainError(f"need >= 1 samples, got {samples}")
    starts = _uniform_starts(orbit_rng(seed), samples)
    stats = simulate_batch(model, starts, n)
    cls = stats.classification()
    out = [f"# {line}" for line in header_lines or []]
    out.append("start,classification,steps,avg_logT_tail,quotient")
    tail_avg = stats.logt_tail_sum / np.maximum(stats.tail_steps, 1)
    quot = stats.logt_sum / np.maximum(stats.steps, 1)
    # Python floats and ints, so the cells are plain numbers, not numpy reprs
    cols = (stats.starts.tolist(), cls.tolist(), stats.steps.tolist(),
            tail_avg.tolist(), quot.tolist())
    out += [f"{x!r},{c},{k},{t!r},{v!r}" for x, c, k, t, v in zip(*cols)]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Box counting
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BoxCountResult:
    slope: float
    band: tuple[float, float]
    retained: int
    samples: int
    horizon: int
    seed: int
    level_sizes: tuple[float, ...]
    counts: tuple[int, ...]
    retention_rate: float

    def to_dict(self) -> dict:
        return {"slope": self.slope, "band": list(self.band), "retained": self.retained,
                "samples": self.samples, "horizon": self.horizon, "seed": self.seed,
                "level_sizes": list(self.level_sizes), "counts": list(self.counts),
                "retention_rate": self.retention_rate}


def box_count_level_set(model: MarkovMapModel, phi: TablePotential, psi: TablePotential,
                        alpha: float, eps_window: float, samples: int, n: int,
                        grid_levels, seed: int) -> BoxCountResult:
    """Crude (upward-biased) dimension estimate of a level set.

    Uniform start points whose horizon-n Birkhoff quotient lies within
    ``eps_window`` of ``alpha`` are retained; occupied boxes are counted at
    each level size and the log-log regression slope reported, with a
    percentile band over ``BOX_COUNT_BOOTSTRAP`` bootstrap resamples.  The retained set strictly contains the true
    level set's sample, so the slope is an upper-level surrogate only.
    """
    if samples < 1000:
        raise DomainError(f"need >= 1000 samples, got {samples}")
    levels = [float(e) for e in grid_levels]
    if len(levels) < 2:
        raise DomainError("need at least two box sizes")
    if any(b >= a for a, b in zip(levels, levels[1:])):
        raise DomainError("grid levels must be strictly decreasing box sizes")
    if psi.positivity_floor is None:
        raise DomainError("denominator potential must carry a positivity floor")
    starts = _uniform_starts(orbit_rng(seed), samples)
    stats = simulate_batch(model, starts, n, phi=phi, psi=psi)
    ok = (~stats.aborted) & (stats.steps == n)
    quot = np.where(ok, stats.phi_sum / np.where(ok, stats.psi_sum, 1.0), np.inf)
    keep = ok & (np.abs(quot - alpha) < eps_window)
    retained = stats.starts[keep]
    if len(retained) < 50:
        raise InsufficientSampleError(
            f"only {len(retained)} points retained (need >= 50); widen eps_window "
            f"or raise samples")

    # box ids of the retained points, once per level; a resample occupies
    # the distinct ids of its picks
    box_ids = [np.unique(np.floor(retained / e).astype(np.int64), return_inverse=True)[1]
               for e in levels]
    log_inv_size = np.log(1.0 / np.asarray(levels))

    def slope_of(cnts) -> float:
        return float(np.polyfit(log_inv_size, np.log(np.asarray(cnts, dtype=float)), 1)[0])

    counts = tuple(int(ids.max()) + 1 for ids in box_ids)
    slope = slope_of(counts)
    boot_rng = orbit_rng(seed, stream=1)
    bs = []
    for _ in range(BOX_COUNT_BOOTSTRAP):
        pick = boot_rng.integers(0, len(retained), len(retained))
        bs.append(slope_of([np.count_nonzero(np.bincount(ids[pick])) for ids in box_ids]))
    lo, hi = np.percentile(bs, [2.5, 97.5])
    return BoxCountResult(slope=slope, band=(float(lo), float(hi)),
                          retained=int(len(retained)), samples=samples, horizon=n,
                          seed=seed, level_sizes=tuple(levels), counts=counts,
                          retention_rate=float(keep.mean()))
