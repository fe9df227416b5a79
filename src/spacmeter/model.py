"""Domain types and qubit-side formulas for a postselected pointer measurement.

Conventions used consistently across the package (hbar = 1):

    X = sigma * (adag + a)
    P = (i / (2 sigma)) * (adag - a)

The two-level system is prepared as cos(phi/2)|0> + exp(i delta) sin(phi/2)|1>
and the kept readout outcome is |0>.  The pointer is a photon-added coherent
state gamma * adag |alpha> with alpha = r exp(i theta) and beam width sigma.
The dimensionless interaction strength equals g / sigma, and the evolution
splits into two pointer displacements D(+strength/2), D(-strength/2) weighted
by the sigma_x eigenprojections of the system.

All types are immutable after validation and safe to share across threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

TWO_PI = 2.0 * math.pi

# Selections closer to orthogonal than this have no usable weak value.
ORTHOGONALITY_GUARD = 1e-12

# Slack for float noise on the phi domain boundary.
ANGLE_SLACK = 1e-12


class OrthogonalSelection(ValueError):
    """Kept outcome is (numerically) orthogonal to the prepared qubit state."""


class _once:
    """A read kept in the instance's __dict__ on first access (cached_property takes a lock there on Python 3.11)."""

    def __init__(self, read) -> None:
        self.read, self.name, self.__doc__ = read, read.__name__, read.__doc__

    def __get__(self, instance, owner=None):
        return self if instance is None else instance.__dict__.setdefault(self.name, self.read(instance))


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _wrap_angle(value: float) -> float:
    """Map an angle into [0, 2*pi)."""
    wrapped = math.fmod(value, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    if wrapped >= TWO_PI:  # fmod edge when value is a tiny negative
        wrapped -= TWO_PI
    return wrapped


@dataclass(frozen=True)
class SelectionParams:
    """Qubit preparation and kept-outcome geometry.

    phi : float
        Polar angle of the prepared state, must lie in [0, pi].
    delta : float
        Relative phase of the prepared state; wrapped into [0, 2*pi).
    """

    phi: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        phi = _require_finite("phi", self.phi)
        delta = _require_finite("delta", self.delta)
        if -ANGLE_SLACK <= phi < 0.0:
            phi = 0.0
        if math.pi < phi <= math.pi + ANGLE_SLACK:
            phi = math.pi
        if not 0.0 <= phi <= math.pi:
            raise ValueError(f"phi must lie in [0, pi], got {phi}")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "delta", _wrap_angle(delta))
        # hashed once, not a field: the branch-sum cache hashes a selection on every lookup
        object.__setattr__(self, "_hash", hash((phi, self.delta)))

    def __hash__(self) -> int:
        return self._hash

    @_once
    def _weak(self) -> complex:
        """weak_value's value, evaluated on first use and kept: a selection is immutable."""
        if postselection_probability(self) < ORTHOGONALITY_GUARD:
            raise OrthogonalSelection(
                f"kept outcome nearly orthogonal to preparation (phi={self.phi})"
            )
        return cmath.exp(1j * self.delta) * math.tan(self.phi / 2.0)


@dataclass(frozen=True)
class PointerParams:
    """Photon-added coherent pointer: amplitude r*exp(i*theta), width sigma."""

    r: float
    theta: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        r = _require_finite("r", self.r)
        theta = _require_finite("theta", self.theta)
        sigma = _require_finite("sigma", self.sigma)
        if r < 0.0:
            raise ValueError(f"r must be nonnegative, got {r}")
        if sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", _wrap_angle(theta))
        object.__setattr__(self, "sigma", sigma)
        # hashed once, not a field: the rung and kernel caches hash a pointer on every lookup
        object.__setattr__(self, "_hash", hash((r, self.theta, sigma)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def alpha(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)

    @property
    def norm_factor_sq(self) -> float:
        """Squared normalization of the added-photon state: 1 / (1 + r^2)."""
        return 1.0 / (1.0 + self.r * self.r)


@dataclass(frozen=True)
class Coupling:
    """Dimensionless interaction strength (the pulse area g / sigma)."""

    strength: float

    def __post_init__(self) -> None:
        strength = _require_finite("strength", self.strength)
        if strength < 0.0:
            raise ValueError(f"strength must be nonnegative, got {strength}")
        object.__setattr__(self, "strength", strength)
        object.__setattr__(self, "_hash", hash((strength,)))  # as for a selection

    def __hash__(self) -> int:
        return self._hash

    def coupling_constant(self, pointer: PointerParams) -> float:
        """Dimensionful interaction constant g for the given pointer width."""
        return self.strength * pointer.sigma


# one memo per part of a point, keyed on that part's own numbers, so parts
# built from equal numbers are one object and the caches match them by
# identity (0.0 and -0.0 are equal keys: whichever came first is kept)
_selection = lru_cache(maxsize=1024)(SelectionParams)
_pointer = lru_cache(maxsize=1024)(PointerParams)
_coupling = lru_cache(maxsize=1024)(Coupling)


class Point(NamedTuple):
    """One parameter point: the six numbers its selection, pointer and coupling are built from."""

    phi: float
    delta: float
    r: float
    theta: float
    sigma: float
    strength: float

    def label(self) -> str:
        return (
            f"phi={self.phi:.6g} delta={self.delta:.6g} r={self.r:.6g} "
            f"theta={self.theta:.6g} sigma={self.sigma:.6g} strength={self.strength:.6g}"
        )

    def split(self) -> tuple[SelectionParams, PointerParams, Coupling]:
        """The point's selection, pointer and coupling; an invalid part raises as its constructor does."""
        return _selection(self.phi, self.delta), _pointer(self.r, self.theta, self.sigma), _coupling(self.strength)


@dataclass(frozen=True)
class PointerMoments:
    """First and second quadrature statistics of a pointer state."""

    position_mean: float
    momentum_mean: float
    position_variance: float
    momentum_variance: float
    mean_excitation: float


def postselection_probability(sel: SelectionParams) -> float:
    """Squared overlap of the prepared qubit with the kept outcome: cos^2(phi/2)."""
    c = math.cos(sel.phi / 2.0)
    return c * c


def weak_value(sel: SelectionParams) -> complex:
    """Weak expectation of the measured observable: exp(i delta) * tan(phi/2).

    Diverges as the selection approaches orthogonality, so selections with
    cos^2(phi/2) below the guard threshold are rejected.  Evaluated once per
    selection, whichever engine asks first.
    """
    return sel._weak


def strong_conditional_value(sel: SelectionParams) -> float:
    """Conditional expectation in the projective regime: sin(phi) * cos(delta).

    Equal to 2 Re[weak_value] / (1 + |weak_value|^2) wherever the weak value
    exists; well defined for every selection, including phi = pi.
    """
    return math.sin(sel.phi) * math.cos(sel.delta)
