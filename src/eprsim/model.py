"""Local probabilistic model of one photon-pair detection.

Each emitted pair carries a hidden polarization angle pair (s1, s2) with
s2 = s1 + pi/2.  A station with polarizer orientation ``a`` sees the local
misalignment angle zeta = a - s and produces

* an outcome x in {-1, +1} with the Malus-law probability
  p(x | zeta) = (1 + x cos 2 zeta) / 2, and
* a detection delay drawn uniformly from [0, T(zeta)], where the delay
  timescale is T(zeta) = t0 * |sin 2 zeta|**d.

Everything here is an elementary function of zeta; the station machinery
and the coincidence bookkeeping live in :mod:`eprsim.events` and
:mod:`eprsim.coincidence`.  All angles are radians, all times are in the
same unit as ``t0`` (nanoseconds by convention).

Randomness enters only through the ``*_from_uniform`` maps, each a
deterministic function of a uniform variate in [0, 1).  The event
generator applies them to pre-allocated variate blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "ModelParams",
    "Setting",
    "normalize_angle",
    "outcome_prob",
    "outcome_from_uniform",
    "misalignments",
    "delay_timescale",
    "delay_from_uniform",
    "hidden_from_uniform",
]

# A polarizer setting is a plain angle in radians.  Every quantity derived
# from it depends on the value mod pi only (polarization is axis-like).
Setting = float


@dataclass(frozen=True)
class ModelParams:
    """The three knobs of the model.

    d       dimensionless exponent of the delay timescale (>= 0)
    t0      maximum delay timescale, time units (finite, > 0)
    window  coincidence window W, same time units (>= 0)
    """

    d: float = 4.0
    t0: float = 1000.0
    window: float = 10.0

    def __post_init__(self):
        if not (0 < self.t0 < np.inf):
            raise ValidationError(f"t0 must be finite and > 0, got {self.t0}")
        if not (self.window >= 0):
            raise ValidationError(f"window must be >= 0, got {self.window}")
        if not (self.d >= 0):
            raise ValidationError(f"d must be >= 0, got {self.d}")


def normalize_angle(angle):
    """Reduce an angle to the fundamental polarization domain [0, pi).

    Only needed for reporting; the trigonometric kernels below use 2*zeta
    and are pi-periodic automatically.
    """
    return np.mod(angle, np.pi)


def outcome_prob(x: int, zeta):
    """Malus-law probability of outcome ``x`` at misalignment ``zeta``.

    p(x | zeta) = (1 + x cos 2 zeta) / 2.  The two outcome probabilities
    sum to 1.0 exactly in floating point (see tests).
    """
    if x not in (-1, 1):
        raise ValidationError(f"outcome must be -1 or +1, got {x!r}")
    return (1.0 + x * np.cos(2.0 * np.asarray(zeta, dtype=float))) * 0.5


def outcome_from_uniform(u, zeta):
    """Map a uniform variate to an outcome: +1 iff u < p(+1 | zeta)."""
    return np.where(u < outcome_prob(+1, zeta), 1, -1).astype(np.int8)


def misalignments(a1, a2, s1):
    """Misalignments (zeta1, zeta2) of a pair with hidden angle s1.

    zeta1 = a1 - s1 and zeta2 = a2 - s2 with s2 = s1 + pi/2: the one
    statement of the pair geometry, shared by the event generator and the
    oracle's integrand.
    """
    return a1 - s1, a2 - (s1 + 0.5 * np.pi)


def delay_timescale(zeta, params: ModelParams):
    """Delay timescale T(zeta) = t0 * |sin 2 zeta|**d, in [0, t0].

    d = 0 means no delay dependence at all: T == t0 everywhere, including
    the points where sin 2 zeta = 0 or is NaN, since pow(x, 0) = 1 for
    every x in IEEE arithmetic.
    """
    zeta = np.asarray(zeta, dtype=float)
    return params.t0 * np.abs(np.sin(2.0 * zeta)) ** params.d


def delay_from_uniform(u, zeta, params: ModelParams):
    """Map a uniform variate to a delay, uniform on [0, T(zeta)].

    Where T(zeta) = 0 the density degenerates to a point mass and the
    delay is exactly 0 for every u.
    """
    return np.asarray(u, dtype=float) * delay_timescale(zeta, params)


def hidden_from_uniform(u):
    """Map a uniform variate to the hidden angle s1, uniform on [0, 2 pi)."""
    return np.asarray(u, dtype=float) * (2.0 * np.pi)
