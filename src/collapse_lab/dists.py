"""One-dimensional parameter distributions.

Three kinds cover every distribution used by the lab: ``Uniform``,
``Normal``, and ``PointMass``. A point mass is a formal Dirac, legal only
where an expectation collapses to evaluation at the point. All sampling
goes through a caller-supplied ``numpy.random.Generator`` so that every
consumer stays seed-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["ScalarDist", "Uniform", "Normal", "PointMass", "parse_dist"]


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError("uniform bounds must be finite")
        if not self.lo < self.hi:
            raise ConfigError(f"uniform requires lo < hi, got [{self.lo}, {self.hi}]")

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size)

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
class Normal:
    loc: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.loc) and math.isfinite(self.scale)):
            raise ConfigError("normal parameters must be finite")
        if not self.scale > 0:
            raise ConfigError(f"normal requires sd > 0, got {self.scale}")

    def sample(self, rng, size):
        return rng.normal(self.loc, self.scale, size)

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
class PointMass:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConfigError("point mass value must be finite")

    def sample(self, rng, size):
        return np.full(size, self.value, dtype=np.float64)

    def support(self):
        return (self.value, self.value)

    def shifted(self, a):
        return PointMass(self.value + a)

    @property
    def is_even(self):
        return self.value == 0.0

    def __str__(self):
        return f"point:{self.value:g}"


# each kind has sample, support, shifted (the law of z + a) and is_even (symmetric about zero)
ScalarDist = Uniform | Normal | PointMass


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
