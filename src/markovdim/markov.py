"""Countable-Markov expanding interval maps and their finite truncations.

A model is a countable collection of disjoint open branch intervals inside
(0,1], an affine expanding map on each branch, and a 0-1 transition
structure recording which branches each branch image covers.  Every model
is finitely many explicit branches plus an optional geometric tail, whose
branch n has interval (s r^(n-b), s r^(n-b-1)) and one slope.  The
built-in ``SV(lambda)`` family, for lambda in (1/2, 1), is the staircase
config with branch 1 = (lambda, 1] and a tail of ratio lambda from index 2
(s = 1, b = 0): it partitions (0,1] into X_n = (lambda^n, lambda^(n-1)) and
maps

    x in X_1  ->  (x - lambda) / (1 - lambda),
    x in X_n  ->  (x - lambda^n) / (lambda (1 - lambda)),   n >= 2,

so branch 1 covers everything and branch n covers exactly the branches
j >= n - 1.  Only its log-slopes, -log(1 - lambda) and
-log(lambda (1 - lambda)), are closed forms.

The transitions are the "staircase" rule (row 1 covers every branch, row
n the branches j >= n - 1) or a boolean matrix over the explicit branches;
a config's "full" is spelt out at load as the all-true matrix.  Only the
staircase takes a tail, whose slope it forces: branch n must map onto
(0, right end of branch n - 1], so the slope is 1/(r (1 - r)).

Finite truncations to the sub-alphabet {1..N} are the compact mixing
subsystems on which all pressure computations run.  A staircase truncation
is the rule's name, which fixes its matrix at every N with no storage; a
truncation of an explicit model holds a dense boolean matrix.
"""
from __future__ import annotations

import json
import math
import reprlib
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BoundaryError, ConfigError, DomainError, MixingError

#: orbits abort when |x - branch endpoint| <= ENDPOINT_TOL * endpoint; the
#: tolerance is relative because branch lengths shrink geometrically toward 0
#: and an absolute cutoff would swallow every deep branch whole
ENDPOINT_TOL = 1e-12

#: tolerance for the Markov image-consistency check on custom models
IMAGE_TOL = 1e-9

# ---------------------------------------------------------------------------
# Branches
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BranchSpec:
    """One affine expanding branch.

    Attributes
    ----------
    index : int
        1-based symbol of the branch.
    left, right : float
        Open interval (left, right), a subinterval of (0, 1].
    slope : float
        Magnitude of the derivative on the branch; must exceed 1.
    log_slope : float
        Natural log of ``slope`` (stored so downstream weights are exact).
    """

    index: int
    left: float
    right: float
    slope: float
    log_slope: float

    def __post_init__(self):
        if self.index < 1:
            raise DomainError(f"branch index must be >= 1, got {self.index}")
        if not (self.right > self.left):
            raise DomainError(f"branch {self.index}: right must exceed left")
        if self.left < 0.0 or self.right > 1.0:
            raise DomainError(f"branch {self.index}: interval must lie in (0, 1]")
        if not (self.slope > 1.0):
            raise DomainError(f"branch {self.index}: slope must exceed 1 (uniform expansion)")
        # log_slope must agree with log(slope) to ulp scale
        if not math.isclose(self.log_slope, math.log(self.slope), rel_tol=1e-12, abs_tol=1e-300):
            raise DomainError(f"branch {self.index}: log_slope inconsistent with slope")

    @property
    def interval(self) -> tuple[float, float]:
        return (self.left, self.right)

    @property
    def length(self) -> float:
        return self.right - self.left


def make_branch(index: int, left: float, right: float, slope: float) -> BranchSpec:
    """Build a branch, deriving ``log_slope`` from ``slope`` (NaN for the slopes <= 0
    that BranchSpec rejects)."""
    return BranchSpec(index, left, right, slope, math.log(slope) if slope > 0 else math.nan)


# ---------------------------------------------------------------------------
# Geometric tail
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TailRule:
    """Geometric continuation of a model beyond its explicit branches.

    Branch n >= ``from_index`` has interval (scale * ratio^(n - base),
    scale * ratio^(n - base - 1)], slope ``slope`` = 1/(ratio (1 - ratio))
    and log-slope ``log_slope``.
    """

    from_index: int
    ratio: float
    slope: float
    log_slope: float
    scale: float
    base: int

    def left(self, n: int) -> float:
        """Left end of branch ``n``, the right end of branch n + 1."""
        return self.scale * self.ratio ** (n - self.base)

    def position(self, log_x):
        """u = log(x / (scale ratio^-base)) / log(ratio) from log x (a float or
        an array): u is the integer k at the left end of branch k and lies in
        (n - 1, n) on branch n.  With scale 1 and base 0 it is log x / log r."""
        log_r = math.log(self.ratio)
        return (log_x - (math.log(self.scale) - self.base * log_r)) / log_r


def _near(x, edge):
    """The endpoint test: ``x`` within relative ENDPOINT_TOL of ``edge`` (floats,
    or arrays elementwise)."""
    return abs(x - edge) <= ENDPOINT_TOL * edge


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------
class MarkovMapModel:
    """An expanding Markov interval map: explicit affine branches 1..K,
    then an optional geometric tail, which makes the alphabet infinite.

    ``transitions`` is the rule name "staircase" or a boolean matrix over
    the explicit branches; only the rule takes a tail.  ``image_lo`` holds
    the lower end of each explicit row's image, the least left end among its
    targets, and 0 on every row of a model with a tail.  Log|T'| is one
    table: the explicit branches' ``log_slope`` and the tail's.  ``lam`` is
    the SV parameter (None for other maps).  Immutable after construction.

    Use :func:`build_sv_map` or :func:`build_custom_map` instead of calling
    this constructor directly.
    """

    def __init__(self, explicit: Sequence[BranchSpec], transitions: np.ndarray | str,
                 tail: TailRule | None = None, lam: float | None = None):
        self.explicit = tuple(explicit)         # branches 1..K, in index order
        self.tail = tail
        self.lam = lam
        self.rule = transitions if isinstance(transitions, str) else None  # "staircase"
        self._explicit_matrix = None if self.rule else np.asarray(transitions, dtype=bool)
        k = len(self.explicit)
        self.image_lo = (0.0,) * k if tail else tuple(np.where(
            _staircase_matrix(k) if self.rule else self._explicit_matrix,
            [b.left for b in self.explicit], math.inf).min(axis=1).tolist())
        self.alphabet_size = None if tail is not None else k
        # xi > 1, uniform lower slope bound
        self.expansion_floor = min(b.slope for b in self.explicit + ((tail,) if tail else ()))
        if self.expansion_floor <= 1.0:
            raise DomainError("expansion floor must exceed 1")

    # -- alphabet ---------------------------------------------------------
    def edges(self, i: int) -> tuple[float, float, float]:
        """(left, right, slope) of branch ``i``, the floats :meth:`branch` holds,
        without building a BranchSpec."""
        if i < 1:
            raise DomainError(f"branch index must be >= 1, got {i}")
        if i <= len(self.explicit):
            b = self.explicit[i - 1]
            return b.left, b.right, b.slope
        t = self.tail
        if t is None:
            raise DomainError(f"branch {i} beyond alphabet of size {self.alphabet_size}")
        return t.left(i), t.left(i - 1), t.slope

    def branch(self, i: int) -> BranchSpec:
        """Branch ``i``: a stored explicit branch, or one built from the tail."""
        if 1 <= i <= len(self.explicit):
            return self.explicit[i - 1]
        return BranchSpec(i, *self.edges(i), self.tail.log_slope)

    # -- transition structure ---------------------------------------------
    def transition(self, i: int, j: int) -> bool:
        """Whether the image of branch ``i`` covers branch ``j``."""
        size = self.alphabet_size
        if min(i, j) < 1 or (size is not None and max(i, j) > size):
            raise DomainError(f"transition index ({i},{j}) out of range")
        if self.rule is not None:
            return j >= i - 1
        return bool(self._explicit_matrix[i - 1, j - 1])

    # -- dynamics ----------------------------------------------------------
    def locate(self, x: float) -> int:
        """Branch index containing ``x``; BoundaryError at endpoints.  Above
        the tail, which fills (0, left end of the last explicit branch), the
        explicit branches are scanned; in the tail a log guess finds it."""
        if not (0.0 < x <= 1.0):
            raise BoundaryError(f"point {x!r} outside (0, 1]")
        t = self.tail
        if t is None or x >= self.explicit[-1].left:
            for b in self.explicit:
                if _near(x, b.left) or _near(x, b.right):
                    raise BoundaryError(f"point {x!r} within relative {ENDPOINT_TOL} of a "
                                        f"branch endpoint")
                if b.left < x < b.right:
                    return b.index
            raise BoundaryError(f"point {x!r} not interior to any branch")
        u = t.position(math.log(x))
        k = max(round(u), t.from_index - 1)
        if _near(x, t.left(k)):
            raise BoundaryError(f"point {x!r} within relative {ENDPOINT_TOL} of the left "
                                f"endpoint of branch {k}")
        n = max(math.floor(u) + 1, t.from_index)
        # float-guard: correct off-by-one from the log
        while n > t.from_index and x > t.left(n - 1):
            n -= 1
        while x <= t.left(n):
            n += 1
        return n

    def apply(self, x: float) -> tuple[float, int]:
        """One step of the map: returns (image, branch index).  The image
        starts at the row's ``image_lo`` (0 on a tail row, as on every row of a
        model with a tail).  BoundaryError (from :meth:`locate`) at endpoints
        and outside (0,1]."""
        n = self.locate(x)
        left, _, slope = self.edges(n)
        return self.image_lo[min(n, len(self.image_lo)) - 1] + (x - left) * slope, n

    def __repr__(self) -> str:
        if self.lam is not None:
            return f"MarkovMapModel(SV, lambda={self.lam})"
        size = "inf" if self.alphabet_size is None else self.alphabet_size
        return f"MarkovMapModel(CUSTOM, branches={size})"


def build_sv_map(lam: float) -> MarkovMapModel:
    """Built-in dissipative family on (0,1] with parameter lambda in (1/2, 1).

    Branch n has interval (lambda^n, lambda^(n-1)); the slope is
    1/(1-lambda) on branch 1 and 1/(lambda(1-lambda)) on branches n >= 2.
    Branch 1 maps onto (0,1]; branch n >= 2 maps onto (0, lambda^(n-2)],
    so the transition structure is t(1,j) = 1 for all j and
    t(n,j) = 1 iff j >= n-1: the staircase config with branch 1 and a tail
    of ratio lambda from index 2, assembled as one, with closed-form log-slopes.
    """
    if not (0.5 < lam < 1.0):
        raise DomainError(f"lambda must lie in (1/2, 1), got {lam}")
    branch_1 = BranchSpec(1, lam, 1.0, 1.0 / (1.0 - lam), -math.log(1.0 - lam))
    return _assemble([branch_1], "staircase", {"from_index": 2, "ratio": lam}, lam)


def build_custom_map(branches: Sequence[BranchSpec],
                     transitions: np.ndarray | str,
                     tail: dict | None = None) -> MarkovMapModel:
    """Assemble a custom model from explicit branches.

    ``transitions`` is either an explicit boolean matrix over the explicit
    branches, "full" (shorthand for the all-true matrix), or the rule
    "staircase" (row 1 full, row n covers columns >= n-1).  A tail dict
    {"from_index": n0, "ratio": r} appends the geometric continuation under
    the staircase rule, with the slope 1/(r (1 - r)) the rule forces; a
    "slope" key, if given, must equal it.

    The Markov image-consistency check runs on all explicit branches and on
    the first tail branch: the image interval implied by slope and branch
    length must coincide (within ``IMAGE_TOL``) with the union of the
    transition targets (under the rule with a tail, the tail's (0, anchor]
    among them), and that union must be a contiguous interval.  The
    violations of :func:`validate_custom_branches` raise one ConfigError.
    """
    transitions = _spell_out(transitions, len(branches))
    violations = validate_custom_branches(branches, transitions, tail)
    if violations:
        raise ConfigError("invalid custom model: " + "; ".join(violations),
                          violations=violations)
    return _assemble(branches, transitions, tail)


def _spell_out(transitions, n: int):
    """``transitions`` with "full" spelt out as the all-true n x n matrix."""
    full = isinstance(transitions, str) and transitions == "full"
    return np.ones((n, n), dtype=bool) if full else transitions


def _tail_slope(ratio: float) -> float:
    """The slope that makes a staircase tail of ratio ``ratio`` Markov."""
    return 1.0 / (ratio * (1.0 - ratio))


def _assemble(branches, transitions, tail_cfg, lam: float | None = None) -> MarkovMapModel:
    """The model of a configuration that passed :func:`validate_custom_branches`.
    The tail's anchor is the left end of branch ``from_index - 1``; if it is
    exactly ratio^(from_index - 1), (scale, base) = (1, 0), else (anchor,
    from_index - 1).  The tail's slope and log-slope come from its ratio."""
    branches = sorted(branches, key=lambda b: b.index)
    tail = None
    if tail_cfg is not None:
        n0, ratio = int(tail_cfg["from_index"]), float(tail_cfg["ratio"])
        anchor = branches[n0 - 2].left
        scale, base = (1.0, 0) if anchor == ratio ** (n0 - 1) else (anchor, n0 - 1)
        tail = TailRule(n0, ratio, _tail_slope(ratio), -math.log(ratio * (1.0 - ratio)),
                        scale, base)
    return MarkovMapModel(branches, transitions, tail, lam)


def validate_custom_branches(branches: Sequence[BranchSpec],
                             transitions: np.ndarray | str | None,
                             tail: dict | None = None) -> list[str]:
    """Run all consistency checks (``transitions=None`` skips those of the
    transitions); return human-readable violations (empty = OK)."""
    if not branches:
        return ["a custom model needs at least one branch"]
    branches = sorted(branches, key=lambda b: b.index)
    n = len(branches)
    transitions = _spell_out(transitions, n)
    indices = [b.index for b in branches]
    if indices != list(range(1, n + 1)):
        return ([f"branch indices must be 1..{n} without gaps, got {indices}"]
                + _layout_violations(n, transitions, tail))
    out: list[str] = []

    # pairwise disjoint interiors
    by_pos = sorted(branches, key=lambda b: b.left)
    for a, b in zip(by_pos, by_pos[1:]):
        if b.left < a.right - IMAGE_TOL:
            out.append(f"branches {a.index} and {b.index} have overlapping interiors")
    out += _layout_violations(n, transitions, tail)
    if out or transitions is None:
        return out
    # Markov consistency: image of each branch == union of its targets; the
    # rule's matrix over the explicit branches, each row also covering a tail's
    # (0, anchor]
    targets = [(b.left, b.right) for b in branches]
    if not isinstance(transitions, str):
        m = np.asarray(transitions, dtype=bool)
    else:
        m = _staircase_matrix(n)
        if tail is not None:
            targets.append((0.0, branches[-1].left))
            m = np.hstack([m, np.ones((n, 1), dtype=bool)])
    for b, row in zip(branches, m):
        union = sorted(t for t, hit in zip(targets, row) if hit)
        for (_, u_right), (v_left, _) in zip(union, union[1:]):
            if abs(v_left - u_right) > IMAGE_TOL:
                out.append(f"branch {b.index}: targets do not form a contiguous interval")
                break
        lo, hi = union[0][0], union[-1][1]
        implied = b.length * b.slope
        if abs((hi - lo) - implied) > IMAGE_TOL:
            out.append(f"branch {b.index}: image length {implied:.12g} != target union "
                       f"length {hi - lo:.12g}")
    if tail is not None:
        # the first tail branch, (a r, a) for the anchor a, maps onto (0, right end
        # of branch n]; the later ones then map onto theirs
        a, ratio = branches[-1].left, float(tail["ratio"])
        implied = (a - a * ratio) * _tail_slope(ratio)
        if abs(branches[-1].right - implied) > IMAGE_TOL:
            out.append(f"branch {n + 1}: image length {implied:.12g} != target union "
                       f"length {branches[-1].right:.12g}")
    return out


def _layout_violations(n: int, transitions: np.ndarray | str | None,
                       tail: dict | None) -> list[str]:
    """The checks of the transitions and the tail, which need only the count
    ``n`` of explicit branches (``transitions=None`` skips the former; "full"
    comes spelt out).  A tail's ``slope`` sets nothing, and must equal the
    one its ratio forces when given."""
    out: list[str] = []
    explicit = transitions is not None and not isinstance(transitions, str)
    if isinstance(transitions, str) and transitions != "staircase":
        out.append(f"unknown transition rule {transitions!r}")
    if tail is not None:
        n0, ratio, slope = (tail.get(key) for key in ("from_index", "ratio", "slope"))
        if not (type(n0) is int and n0 == n + 1):
            out.append(f"tail from_index must be the integer {n + 1}, one past the last "
                       f"branch, got {reprlib.repr(n0)}")
        if not (is_json_number(ratio) and 0.0 < ratio < 1.0):
            out.append(f"tail ratio must be a number in (0, 1), got {reprlib.repr(ratio)}")
        elif "slope" in tail and not (is_json_number(slope)
                                      and abs(slope - _tail_slope(ratio)) <= IMAGE_TOL):
            out.append(f"tail slope must be 1/(ratio (1 - ratio)) = {_tail_slope(ratio):.12g}, "
                       f"got {reprlib.repr(slope)}")
        if explicit:
            out.append("a tail rule requires rule-based transitions ('staircase')")
    if explicit:
        m = np.asarray(transitions, dtype=bool)
        if m.shape != (n, n):
            return out + [f"transition matrix shape {m.shape} != ({n},{n})"]
        if not m.any(axis=1).all():
            out.append("transition matrix has an all-zero row")
        if not m.any(axis=0).all():
            out.append("transition matrix has an all-zero column")
    return out


def _staircase_matrix(n: int) -> np.ndarray:
    """The n x n boolean matrix of the staircase rule."""
    return np.triu(np.ones((n, n), dtype=bool), -1)


def read_config(path: str):
    """The parsed JSON document at ``path``; ConfigError if it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                          path=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}", path=path)


def is_json_number(v) -> bool:
    """A finite JSON number: an int or a float, but not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _field(obj: dict, key: str, out: list[str], where: str = "", want: str = "a number",
           ok: Callable = is_json_number):
    """``obj[key]`` if ``ok`` accepts it, else None with a violation appended to ``out``."""
    v = obj.get(key)
    if ok(v):
        return v
    out.append(f"{where}{key} must be {want}, got {reprlib.repr(v) if key in obj else 'nothing'}")
    return None


def _is_transitions(v) -> bool:
    return isinstance(v, str) or isinstance(v, list) and all(
        isinstance(row, list) and len(row) == len(v) and all(isinstance(x, bool) for x in row)
        for row in v)


def load_map_config(source) -> MarkovMapModel:
    """Build the model of a JSON map config, given by path or already parsed.

    Schema::

        {"sv_lambda": 0.9}                                  # built-in family
        {"branches": [{"index": 1, "left": .., "right": .., "slope": ..}, ...],
         "transitions": "full" | "staircase" | [[true, false], ...],
         "tail": {"from_index": n0, "ratio": r}}  # optional; "staircase" only

    One pass collects every violation into one ConfigError (``violations``):
    the config is a JSON object; ``sv_lambda`` and each ``index``, ``left``,
    ``right``, ``slope`` and tail ``ratio`` is a finite JSON number (not a
    bool or a string), and ``index`` and ``from_index`` are integers;
    ``transitions`` is "full" (the all-true matrix), "staircase" or a square
    list of lists of JSON booleans; a ``tail`` needs the "staircase" rule,
    ``from_index`` = len(branches) + 1 and, if it gives a ``slope``, the
    slope 1/(r (1 - r)) its ratio forces, checked even when a branch fails;
    then :func:`validate_custom_branches` and the branch and SV range checks.
    """
    path = source if isinstance(source, str) else None
    cfg = read_config(path) if path is not None else source
    out: list[str] = []
    model = None
    if not isinstance(cfg, dict):
        out.append(f"map config must be a JSON object, got {type(cfg).__name__}")
    elif "sv_lambda" in cfg:
        lam = _field(cfg, "sv_lambda", out)
        try:
            model = None if lam is None else build_sv_map(float(lam))
        except DomainError as exc:
            out.append(str(exc))
    else:
        model = _custom_from_config(cfg, out)
    if out:
        raise ConfigError("invalid map config: " + "; ".join(out), path=path, violations=out)
    return model


def _custom_from_config(cfg: dict, out: list[str]) -> MarkovMapModel | None:
    """The custom model of ``cfg``, or None with violations in the empty list ``out``."""
    branches = []
    specs = _field(cfg, "branches", out, want="a JSON list", ok=lambda v: isinstance(v, list))
    for k, spec in enumerate(specs or [], 1):
        if not isinstance(spec, dict):
            out.append(f"branch {k} must be a JSON object, got {reprlib.repr(spec)}")
            continue
        index = _field(spec, "index", out, f"branch {k}: ", "an integer", lambda v: type(v) is int)
        vals = [_field(spec, key, out, f"branch {k}: ") for key in ("left", "right", "slope")]
        try:
            if index is not None and None not in vals:
                branches.append(make_branch(index, *map(float, vals)))
        except DomainError as exc:
            out.append(str(exc))
    branches_ok = not out
    transitions = _spell_out(_field(cfg, "transitions", out, want="'full', 'staircase' or a "
                                    "square list of lists of JSON booleans", ok=_is_transitions),
                             len(specs or []))
    if isinstance(transitions, list):
        transitions = np.array(transitions, dtype=bool)
    tail = _field(cfg, "tail", out, want="a JSON object",
                  ok=lambda v: v is None or isinstance(v, dict))
    if branches_ok:
        out += validate_custom_branches(branches, transitions, tail)
    elif specs:
        # the branch count is known even where a branch failed
        out += _layout_violations(len(specs), transitions, tail)
    return None if out else _assemble(branches, transitions, tail)


# ---------------------------------------------------------------------------
# Finite truncations
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class TruncatedSubsystem:
    """Compact mixing subsystem on the sub-alphabet {1..size}.

    Either ``rule`` ("staircase", which fixes the matrix at every size and
    needs no storage) or ``dense`` (a boolean matrix) is set.
    """

    size: int
    rule: str | None = None
    dense: np.ndarray | None = None

    def __post_init__(self):
        if self.size < 1:
            raise DomainError("subsystem size must be >= 1")
        if (self.rule is None) == (self.dense is None):
            raise DomainError("exactly one of rule/dense must be given")
        if self.rule not in (None, "staircase"):
            raise DomainError(f"unknown transition rule {self.rule!r}")

    @property
    def matrix(self) -> np.ndarray:
        """Materialized boolean transition matrix (small N only)."""
        if self.dense is not None:
            return self.dense
        if self.size > 4096:
            raise DomainError("refusing to densify a matrix with N > 4096")
        return _staircase_matrix(self.size)

    @cached_property
    def primitive(self) -> bool:
        """:func:`is_primitive` of this subsystem, computed once."""
        return is_primitive(self)

    @property
    def self_loops(self) -> np.ndarray:
        """Boolean mask of the symbols whose row covers their own column."""
        if self.dense is not None:
            return np.diagonal(self.dense).astype(bool)
        return np.ones(self.size, dtype=bool)


def truncate(model: MarkovMapModel, N: int) -> TruncatedSubsystem:
    """Restrict the model to symbols {1..N} with the induced transitions.

    The induced matrix of the N-truncation is always the top-left block of
    the (N+1)-truncation.  Non-primitive truncations are rejected because
    they are useless for pressure.
    """
    if N < 2:
        raise DomainError(f"truncation level must be >= 2, got {N}")
    if model.alphabet_size is not None and N > model.alphabet_size:
        raise DomainError(f"truncation level {N} exceeds alphabet size {model.alphabet_size}")
    if model.rule is not None:
        sub = TruncatedSubsystem(size=N, rule=model.rule)
    else:
        m = model._explicit_matrix[:N, :N]
        sub = TruncatedSubsystem(size=N, dense=np.ascontiguousarray(m))
    if not sub.primitive:
        raise MixingError(f"truncation at N={N} is not primitive")
    return sub


# ---------------------------------------------------------------------------
# Primitivity
# ---------------------------------------------------------------------------
def is_primitive(sub: TruncatedSubsystem) -> bool:
    """True iff some boolean matrix power A^m (m <= N^2) is strictly positive.

    A staircase subsystem is primitive at every size: row 1 covers every
    column, so symbol 1 has a self-loop and reaches every symbol, and every
    symbol reaches symbol 1 by stepping down i -> i - 1.  For a dense
    subsystem the equivalent graph criterion is used: the digraph is
    strongly connected and the gcd of its cycle lengths is 1.  Strong
    connectivity is a breadth-first search from symbol 1 that reaches every
    symbol, run once on A and once on its transpose; the levels of the
    forward search then give the period (:func:`_graph_period`).
    """
    if sub.rule is not None:
        return True
    m = sub.dense
    n = m.shape[0]
    if n == 1:
        return bool(m[0, 0])
    level = _bfs_levels(m)
    if (level < 0).any() or (_bfs_levels(m.T) < 0).any():
        return False
    return _graph_period(m, level) == 1


def _bfs_levels(m: np.ndarray) -> np.ndarray:
    """Distance from node 0 along the edges of ``m`` (-1 where unreachable).

    Level-synchronous: each step takes the union of the frontier's rows.
    """
    level = np.full(m.shape[0], -1, dtype=np.int64)
    frontier = np.zeros(m.shape[0], dtype=bool)
    frontier[0] = True
    d = 0
    while frontier.any():
        level[frontier] = d
        d += 1
        frontier = m[frontier].any(axis=0) & (level < 0)
    return level


def _graph_period(m: np.ndarray, level: np.ndarray) -> int:
    """Gcd of cycle lengths of a strongly connected digraph.

    With ``level`` the BFS distances from one node, every edge u -> v
    satisfies level[v] <= level[u] + 1, and the period is the gcd of
    level[u] + 1 - level[v] over all edges.
    """
    u, v = np.nonzero(m)
    return int(np.gcd.reduce(level[u] + 1 - level[v]))
