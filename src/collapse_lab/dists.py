"""One-dimensional parameter distributions.

Three kinds cover every distribution used by the lab: ``Uniform``,
``Normal``, and ``PointMass``. A point mass is a formal Dirac: it has no
density and is only legal where an expectation collapses to evaluation at
the point. All sampling goes through a caller-supplied
``numpy.random.Generator`` so that every consumer stays seed-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["ScalarDist", "Uniform", "Normal", "PointMass", "parse_dist"]


@dataclass(frozen=True)
class ScalarDist:
    """Common interface; use the Uniform / Normal / PointMass constructors."""

    def density(self, z):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def sd(self) -> float:
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def shifted(self, a: float) -> "ScalarDist":
        """The distribution of z + a."""
        raise NotImplementedError

    @property
    def is_even(self) -> bool:
        """True when the distribution is symmetric about zero."""
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(ScalarDist):
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError("uniform bounds must be finite")
        if not self.lo < self.hi:
            raise ConfigError(f"uniform requires lo < hi, got [{self.lo}, {self.hi}]")

    def density(self, z):
        z = np.asarray(z, dtype=np.float64)
        inside = (z >= self.lo) & (z <= self.hi)
        out = np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        return out if out.ndim else float(out)

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def sd(self):
        return (self.hi - self.lo) / math.sqrt(12.0)

    def support(self):
        return (self.lo, self.hi)

    def shifted(self, a):
        return Uniform(self.lo + a, self.hi + a)

    @property
    def is_even(self):
        return self.lo == -self.hi

    def __str__(self):
        return f"uniform:{self.lo:g}:{self.hi:g}"


@dataclass(frozen=True)
class Normal(ScalarDist):
    loc: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.loc) and math.isfinite(self.scale)):
            raise ConfigError("normal parameters must be finite")
        if not self.scale > 0:
            raise ConfigError(f"normal requires sd > 0, got {self.scale}")

    def density(self, z):
        z = np.asarray(z, dtype=np.float64)
        u = (z - self.loc) / self.scale
        out = np.exp(-0.5 * u * u) / (self.scale * math.sqrt(2.0 * math.pi))
        return out if out.ndim else float(out)

    def sample(self, rng, size):
        return rng.normal(self.loc, self.scale, size)

    def mean(self):
        return self.loc

    def sd(self):
        return self.scale

    def support(self):
        return (-math.inf, math.inf)

    def shifted(self, a):
        return Normal(self.loc + a, self.scale)

    @property
    def is_even(self):
        return self.loc == 0.0

    def __str__(self):
        return f"normal:{self.loc:g}:{self.scale:g}"


@dataclass(frozen=True)
class PointMass(ScalarDist):
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConfigError("point mass value must be finite")

    def density(self, z):
        raise DomainError("PointMass is a formal Dirac and has no density")

    def sample(self, rng, size):
        return np.full(size, self.value, dtype=np.float64)

    def mean(self):
        return self.value

    def sd(self):
        return 0.0

    def support(self):
        return (self.value, self.value)

    def shifted(self, a):
        return PointMass(self.value + a)

    @property
    def is_even(self):
        return self.value == 0.0

    def __str__(self):
        return f"point:{self.value:g}"


def parse_dist(text: str) -> ScalarDist:
    """Parse the ``kind:param[:param]`` mini-grammar.

    ``uniform:-1:1`` -> Uniform(-1, 1), ``normal:0:0.5`` -> Normal(0, 0.5),
    ``point:0`` -> PointMass(0).
    """
    parts = text.strip().split(":")
    kind = parts[0].lower()
    try:
        args = [float(p) for p in parts[1:]]
    except ValueError:
        raise ConfigError(f"non-numeric distribution parameter in {text!r}") from None
    if kind == "uniform":
        if len(args) != 2:
            raise ConfigError(f"uniform takes 2 parameters, got {text!r}")
        return Uniform(*args)
    if kind == "normal":
        if len(args) != 2:
            raise ConfigError(f"normal takes 2 parameters, got {text!r}")
        return Normal(*args)
    if kind == "point":
        if len(args) != 1:
            raise ConfigError(f"point takes 1 parameter, got {text!r}")
        return PointMass(args[0])
    raise ConfigError(f"unknown distribution kind {kind!r} in {text!r}")
