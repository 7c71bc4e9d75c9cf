"""Branch potentials: real functions on the symbolic space that depend on
the leading symbol only.

A potential is constant on every 1-cylinder, so it is a table from symbols
to reals.  Over the countable alphabet the table is a finite set of
overrides plus a default value; the default doubles as the tail limit (the
value on words whose leading symbol is large).  The pressures, Bowen roots
and Birkhoff quotients the package computes are all taken of such
potentials.

A potential asserted to be bounded below by a positive constant carries
``positivity_floor``; the spectrum operations require it of every
denominator potential.
"""
from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import CompositionError, ConfigError, DomainError
from .markov import MarkovMapModel, is_json_number, read_config

Word = tuple[int, ...]


def _as_word(w) -> Word:
    if isinstance(w, int):
        return (w,)
    return tuple(int(s) for s in w)


class Potential:
    """Base class; see :class:`TablePotential` and :class:`CombinedPotential`.

    Attributes
    ----------
    tail_limit : float or None
        Declared limit of the value as the leading symbol index grows.
        Metadata: verified only on materialized symbols.
    positivity_floor : float or None
        Present iff every value is asserted to be >= this positive bound.
    model_key : tuple or None
        Identity of the model the potential was built from, when any;
        used to reject combinations across different models.
    """

    tail_limit: float | None = None
    positivity_floor: float | None = None
    model_key: tuple | None = None
    name: str = "potential"

    def value(self, word) -> float:
        raise NotImplementedError

    def eval_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of leading symbols."""
        raise NotImplementedError

    def values_vector(self, n: int) -> np.ndarray:
        """Values on symbols 1..n."""
        return self.eval_symbols(np.arange(1, n + 1))

    def is_constant(self) -> bool:
        return False

    def _validate_floor(self, values) -> None:
        if self.positivity_floor is not None:
            if self.positivity_floor <= 0:
                raise DomainError("positivity_floor must be > 0")
            bad = [v for v in values if v < self.positivity_floor - 1e-15]
            if bad:
                raise DomainError(
                    f"potential claims floor {self.positivity_floor} but takes value {min(bad)}")


class TablePotential(Potential):
    """Finitely many overrides on symbols, plus an optional default value.

    The default is the value on every non-overridden symbol; over an infinite
    alphabet it is also the tail limit.  ``default=None`` restricts the
    potential to the overridden symbols (finite custom models).
    """

    def __init__(self, overrides: Mapping, default: float | None = None, *,
                 positivity_floor: float | None = None,
                 tail_limit: float | None = None, model_key: tuple | None = None,
                 name: str = "table"):
        self.overrides = {_as_word(k): float(v) for k, v in overrides.items()}
        for w in self.overrides:
            if len(w) != 1:
                raise DomainError(f"override word {w} is not a single symbol")
            if any(s < 1 for s in w):
                raise DomainError(f"override word {w} contains a symbol < 1")
        self.default = None if default is None else float(default)
        self.positivity_floor = positivity_floor
        if tail_limit is None and self.default is not None:
            tail_limit = self.default
        self.tail_limit = tail_limit
        self.model_key = model_key
        self.name = name
        vals = list(self.overrides.values()) + ([] if self.default is None else [self.default])
        self._validate_floor(vals)

    def value(self, word) -> float:
        w = _as_word(word)[:1]
        if not w:
            raise DomainError("potential evaluated on the empty word")
        v = self.overrides.get(w, self.default)
        if v is None:
            raise DomainError(f"potential undefined on word {w} (no default)")
        return v

    def eval_symbols(self, symbols: np.ndarray) -> np.ndarray:
        symbols = np.asarray(symbols)
        if self.default is None:
            out = np.empty(symbols.shape, dtype=float)
            out.fill(np.nan)
        else:
            out = np.full(symbols.shape, self.default, dtype=float)
        for (s,), v in self.overrides.items():
            out[symbols == s] = v
        if np.isnan(out).any():
            raise DomainError("potential undefined on some requested symbols (no default)")
        return out

    def is_constant(self) -> bool:
        vals = set(self.overrides.values())
        if self.default is not None:
            vals.add(self.default)
        return len(vals) == 1

    def __repr__(self) -> str:
        return (f"TablePotential({self.name}, "
                f"overrides={len(self.overrides)}, default={self.default})")


class CombinedPotential(Potential):
    """Lazy pointwise combination q*(phi - alpha*psi) - delta*log_deriv."""

    def __init__(self, q: float, phi: Potential, alpha: float, psi: Potential,
                 delta: float, log_deriv: Potential):
        keys = {p.model_key for p in (phi, psi, log_deriv) if p.model_key is not None}
        if len(keys) > 1:
            raise CompositionError(f"potentials come from different models: {sorted(keys)}")
        self.q = float(q)
        self.alpha = float(alpha)
        self.delta = float(delta)
        self.phi, self.psi, self.log_deriv = phi, psi, log_deriv
        self.model_key = keys.pop() if keys else None
        self.name = "combined"
        tails = (phi.tail_limit, psi.tail_limit, log_deriv.tail_limit)
        if all(t is not None for t in tails):
            self.tail_limit = self.q * (tails[0] - self.alpha * tails[1]) - self.delta * tails[2]
        else:
            self.tail_limit = None
        self.positivity_floor = None

    def value(self, word) -> float:
        w = _as_word(word)
        return (self.q * (self.phi.value(w) - self.alpha * self.psi.value(w))
                - self.delta * self.log_deriv.value(w))

    def eval_symbols(self, symbols: np.ndarray) -> np.ndarray:
        return (self.q * (self.phi.eval_symbols(symbols)
                          - self.alpha * self.psi.eval_symbols(symbols))
                - self.delta * self.log_deriv.eval_symbols(symbols))

    def is_constant(self) -> bool:
        return (self.phi.is_constant() and self.psi.is_constant()
                and (self.delta == 0.0 or self.log_deriv.is_constant()))


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------
def builtin_log_derivative(model: MarkovMapModel) -> TablePotential:
    """The potential log|T'|: value log_slope(i) on symbol i.

    For the built-in SV family the value is -log(1-lambda) on symbol 1 and
    -log(lambda(1-lambda)) on every other symbol, which is also the tail
    limit.  The positivity floor is log of the uniform expansion bound.
    """
    floor = math.log(model.expansion_floor)
    if model.family == "SV":
        lam = model.lam
        v1 = -math.log(1.0 - lam)
        vtail = -math.log(lam * (1.0 - lam))
        return TablePotential({(1,): v1}, default=vtail, positivity_floor=floor,
                              model_key=("SV", lam), name="log|T'|")
    n = model.alphabet_size
    if n is None:
        overrides = {(i,): model.log_slope(i) for i in range(1, model.tail.from_index)}
        default = math.log(model.tail.slope)
    else:
        overrides = {(i,): model.log_slope(i) for i in range(1, n + 1)}
        default = None
    return TablePotential(overrides, default=default, positivity_floor=floor,
                          model_key=("CUSTOM", id(model)), name="log|T'|")


def builtin_tail_potential(a: float, overrides: Mapping[int, float] | None = None) -> TablePotential:
    """Potential equal to ``a`` except on finitely many leading symbols.

    The tail limit is ``a``.  When every value is strictly positive the
    minimum is recorded as the positivity floor, so the result is usable
    as a denominator potential.
    """
    overrides = dict(overrides or {})
    vals = [float(a)] + [float(v) for v in overrides.values()]
    floor = min(vals) if min(vals) > 0 else None
    return TablePotential({(int(k),): float(v) for k, v in overrides.items()},
                          default=float(a), positivity_floor=floor, name="tail")


def constant_potential(c: float) -> TablePotential:
    return builtin_tail_potential(c, {})


def combine(q: float, phi: Potential, alpha: float, psi: Potential,
            delta: float, log_deriv: Potential) -> CombinedPotential:
    """Pointwise q*(phi - alpha*psi) - delta*log_deriv, exact in the coefficients."""
    return CombinedPotential(q, phi, alpha, psi, delta, log_deriv)


# ---------------------------------------------------------------------------
# Config ingestion
# ---------------------------------------------------------------------------
def potential_from_config(source) -> TablePotential:
    """Read the JSON potential schema.

    Schema::

        {"depth": 1, "default": a, "overrides": {"1": v1, "2": v2, ...},
         "positivity_floor": eps}       # depth and floor optional

    Override keys are single symbols.  ``depth`` may only be 1: potentials
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
                                  positivity_floor=cfg.get("positivity_floor"), name="config")
        except DomainError as exc:
            violations = [str(exc)]
    raise ConfigError("invalid potential config: " + "; ".join(violations), path=path,
                      violations=violations)


def validate_potential_config(cfg) -> list[str]:
    """Schema checks; returns human-readable violations."""
    if not isinstance(cfg, dict):
        return [f"potential config must be a JSON object, got {type(cfg).__name__}"]
    depth = cfg.get("depth", 1)
    if type(depth) is not int or depth != 1:
        return [f"depth must be 1 (potentials are constant on 1-cylinders), got {depth!r}"]
    out: list[str] = []
    overrides = cfg.get("overrides", {})
    if not isinstance(overrides, dict):
        out.append(f"overrides must be a JSON object, got {type(overrides).__name__}")
        overrides = {}
    for k, v in overrides.items():
        try:
            int(k)
        except ValueError:
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
