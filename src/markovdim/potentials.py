"""Branch potentials: real functions on the symbolic space that depend on
the leading symbol only.

A potential is constant on every 1-cylinder, so it is a table from symbols
to reals: finitely many head values plus a default, which doubles as the
tail limit (the value on words whose leading symbol is large).
:class:`TablePotential` is the one potential type, and :func:`combine`
forms q*(phi - alpha*psi) - delta*log|T'| as another table.  The
pressures, Bowen roots and Birkhoff quotients the package computes are
all taken of such tables.

:func:`builtin_log_derivative` reads log|T'| off the model's one log-slope
table: the explicit branches, then the tail value, which is the default.
For the built-in family that is -log(1-lambda) on symbol 1 and
-log(lambda(1-lambda)) everywhere else.  Every symbol of a staircase
truncation has a self-loop, so with psi = 1 these two values are the exact
Lyapunov bounds that ``alpha_bounds`` reads off the extreme node ratios.

A potential asserted to be bounded below by a positive constant carries
``positivity_floor``; the spectrum operations require it of every
denominator potential.
"""
from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import ConfigError, DomainError
from .markov import MarkovMapModel, is_json_number, read_config

#: largest symbol a :class:`TablePotential` may override; the head array is
#: sized by the largest override, so this caps it at 8 MiB
MAX_OVERRIDE_SYMBOL = 1 << 20


class TablePotential:
    """Finitely many overrides on symbols, plus an optional default value.

    Override keys are symbols, or one-symbol tuples.  Stored as one float
    array: the values on symbols 1..K, where K is the largest overridden
    symbol (at most ``MAX_OVERRIDE_SYMBOL``), followed by the default.  The
    default is the value on every non-overridden symbol and is kept as the
    ``tail_limit`` (the value on words whose leading symbol is large).
    ``default=None`` restricts the potential to the overridden symbols
    (finite custom models); undefined symbols are NaN in the array.  Every
    given value must be finite.

    Attributes
    ----------
    tail_limit : float or None
        The default, as the limit of the value as the leading symbol grows.
    positivity_floor : float or None
        Present iff every value is asserted to be >= this positive bound.
    """

    def __init__(self, overrides: Mapping, default: float | None = None, *,
                 positivity_floor: float | None = None):
        values = {}
        for key, v in overrides.items():
            if isinstance(key, tuple):
                if len(key) != 1:
                    raise DomainError(f"override word {key} is not a single symbol")
                key = key[0]
            s = int(key)
            if s < 1:
                raise DomainError(f"override symbol {s} is below 1")
            if s > MAX_OVERRIDE_SYMBOL:
                raise DomainError(f"override symbol {s} exceeds {MAX_OVERRIDE_SYMBOL}")
            values[s] = float(v)
        self.tail_limit = None if default is None else float(default)
        given = list(values.values()) + ([] if self.tail_limit is None else [self.tail_limit])
        for v in given:
            if not math.isfinite(v):
                raise DomainError(f"potential value {v} is not finite")
        self._values = np.full(max(values, default=0) + 1,
                               math.nan if self.tail_limit is None else self.tail_limit)
        for s, v in values.items():
            self._values[s - 1] = v
        self.positivity_floor = positivity_floor
        if positivity_floor is not None:
            if positivity_floor <= 0:
                raise DomainError("positivity_floor must be > 0")
            bad = [v for v in given if v < positivity_floor - 1e-15]
            if bad:
                raise DomainError(
                    f"potential claims floor {positivity_floor} but takes value {min(bad)}")

    @property
    def head(self) -> int:
        """Largest symbol whose value may differ from the default (0 for a constant)."""
        return self._values.size - 1

    def value(self, symbol: int) -> float:
        """The value on ``symbol``."""
        return float(self.eval_symbols(np.array([symbol]))[0])

    def eval_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of leading symbols."""
        symbols = np.asarray(symbols)
        if symbols.size and symbols.min() < 1:
            raise DomainError("potential evaluated on a symbol < 1")
        out = self._values.take(symbols - 1, mode="clip")
        if self.tail_limit is None and np.isnan(out).any():
            raise DomainError("potential undefined on some requested symbols (no default)")
        return out

    def values_vector(self, n: int) -> np.ndarray:
        """Values on symbols 1..n."""
        return self.eval_symbols(np.arange(1, n + 1))

    def values_or_nan(self, n: int) -> np.ndarray:
        """Values on symbols 1..n, NaN on a symbol without one: :meth:`values_vector`
        without its check, for a caller that checks the entries it reads."""
        return self._values.take(np.arange(n), mode="clip")

    def is_constant(self) -> bool:
        vals = self._values[~np.isnan(self._values)]
        return vals.size > 0 and bool((vals == vals[0]).all())

    def __repr__(self) -> str:
        return f"TablePotential(head={self.head}, tail_limit={self.tail_limit})"


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------
def builtin_log_derivative(model: MarkovMapModel) -> TablePotential:
    """The potential log|T'|: value ``model.branch(i).log_slope`` on symbol i.

    The explicit branches' log-slopes are the overrides, and the tail's is
    the default and tail limit (a finite model has none; for the built-in
    SV family they are -log(1-lambda) on symbol 1 and -log(lambda(1-lambda))
    on every other symbol).  The positivity floor is log of the uniform
    expansion bound.
    """
    t = model.tail
    return TablePotential({b.index: b.log_slope for b in model.explicit},
                          default=None if t is None else t.log_slope,
                          positivity_floor=math.log(model.expansion_floor))


def builtin_tail_potential(a: float, overrides: Mapping[int, float] | None = None) -> TablePotential:
    """Potential equal to ``a`` except on finitely many leading symbols.

    The tail limit is ``a``.  When every value is strictly positive the
    minimum is recorded as the positivity floor, so the result is usable
    as a denominator potential.
    """
    overrides = dict(overrides or {})
    vals = [float(a)] + [float(v) for v in overrides.values()]
    floor = min(vals) if min(vals) > 0 else None
    return TablePotential({int(k): float(v) for k, v in overrides.items()},
                          default=float(a), positivity_floor=floor)


def constant_potential(c: float) -> TablePotential:
    return builtin_tail_potential(c, {})


def combine(q: float, phi: TablePotential, alpha: float, psi: TablePotential,
            delta: float, log_deriv: TablePotential) -> TablePotential:
    """The table of q*(phi - alpha*psi) - delta*log_deriv, formed once on the
    head values and on the defaults.

    A symbol undefined in any input is undefined in the result, which has
    no positivity floor.  A value that overflows raises DomainError.
    """
    pots = (phi, psi, log_deriv)
    cols = np.arange(max(p._values.size for p in pots))
    a, b, c = (p._values.take(cols, mode="clip") for p in pots)
    with np.errstate(over="ignore", invalid="ignore"):
        values = float(q) * (a - float(alpha) * b) - float(delta) * c
    defined = ~(np.isnan(a) | np.isnan(b) | np.isnan(c))
    head = {s + 1: float(v) for s, v in enumerate(values[:-1]) if defined[s]}
    return TablePotential(head, default=float(values[-1]) if defined[-1] else None)


# ---------------------------------------------------------------------------
# Config ingestion
# ---------------------------------------------------------------------------
def potential_from_config(source) -> TablePotential:
    """Read the JSON potential schema.

    Schema::

        {"depth": 1, "default": a, "overrides": {"1": v1, "2": v2, ...},
         "positivity_floor": eps}       # depth and floor optional

    Override keys are single symbols, plain decimals from 1 to
    ``MAX_OVERRIDE_SYMBOL``.  ``depth`` may only be 1: potentials
    are constant on 1-cylinders, and any other value is a violation.  The
    violations of :func:`validate_potential_config`, or else of the
    :class:`TablePotential` range checks, raise one ConfigError that lists them.
    """
    path = source if isinstance(source, str) else None
    cfg = read_config(path) if path is not None else source
    violations = validate_potential_config(cfg)
    if not violations:
        try:
            return TablePotential({int(k): float(v) for k, v in cfg.get("overrides", {}).items()},
                                  default=cfg.get("default"),
                                  positivity_floor=cfg.get("positivity_floor"))
        except DomainError as exc:
            violations = [str(exc)]
    raise ConfigError("invalid potential config: " + "; ".join(violations), path=path,
                      violations=violations)


def validate_potential_config(cfg) -> list[str]:
    """Schema checks; returns human-readable violations."""
    if not isinstance(cfg, dict):
        return [f"potential config must be a JSON object, got {type(cfg).__name__}"]
    out: list[str] = []
    depth = cfg.get("depth", 1)
    if type(depth) is not int or depth != 1:
        out.append(f"depth must be 1 (potentials are constant on 1-cylinders), got {depth!r}")
    overrides = cfg.get("overrides", {})
    if not isinstance(overrides, dict):
        out.append(f"overrides must be a JSON object, got {type(overrides).__name__}")
        overrides = {}
    for k, v in overrides.items():
        if not (isinstance(k, str) and k.isascii() and k.isdigit() and str(int(k)) == k):
            out.append(f"override key {k!r} is not a single symbol")
            continue
        if not is_json_number(v):
            out.append(f"override value for {k!r} is not numeric")
    for key in ("default", "positivity_floor"):
        if cfg.get(key) is not None and not is_json_number(cfg[key]):
            out.append(f"{key} must be a number, got {cfg[key]!r}")
    if cfg.get("default") is None and not overrides:
        out.append("potential defines no values (no default, no overrides)")
    return out
