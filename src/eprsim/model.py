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

The kernels that the generator calls per block (``outcome_prob``,
``outcome_from_uniform``, ``delay_timescale``, ``delay_from_uniform``)
build one float array, 2 zeta, and update it in place, one elementary
operation at a time in the order of the formulas above, so their bits
are those of the one-line expressions; ``outcome_from_uniform`` turns
its comparison into int8 outcomes in place too.  For a scalar zeta that
array is 0-d, and ``delay_timescale`` makes it a scalar before the
power, which numpy computes differently for scalars and arrays.
"""

from __future__ import annotations

import numbers
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

# Maximal-violation geometry for the singlet correlation:
# (a, a', b, b') = (0, pi/4, pi/8, 3 pi/8).
DEFAULT_QUADRUPLE = (0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8)


def is_real(value) -> bool:
    """A real number: an int or a float, numpy's included; a bool or a string is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_settings(angles) -> None:
    """Raise ValidationError unless every angle, and twice it, is finite: the kernels take sin and cos of 2 zeta."""
    if not np.all(np.abs(np.asarray(angles, dtype=float)) <= np.finfo(float).max / 2):
        raise ValidationError(f"settings must be finite angles with a finite double, got {angles}")


@dataclass(frozen=True)
class ModelParams:
    """The three knobs of the model.

    d       dimensionless exponent of the delay timescale (finite, >= 0)
    t0      maximum delay timescale, time units (finite, > 0)
    window  coincidence window W, same time units (finite, >= 0)

    Each is a real number (see ``is_real``): a bool or a string is rejected.
    """

    d: float = 4.0
    t0: float = 1000.0
    window: float = 10.0

    def __post_init__(self):
        if not (is_real(self.t0) and 0 < self.t0 < np.inf):
            raise ValidationError(f"t0 must be finite and > 0, got {self.t0!r}")
        if not (is_real(self.window) and 0 <= self.window < np.inf):
            raise ValidationError(f"window must be finite and >= 0, got {self.window!r}")
        if not (is_real(self.d) and 0 <= self.d < np.inf):
            raise ValidationError(f"d must be finite and >= 0, got {self.d!r}")


def normalize_angle(angle):
    """Reduce an angle to the fundamental polarization domain [0, pi).

    Only needed for reporting; the trigonometric kernels below use 2*zeta
    and are pi-periodic automatically.
    """
    return np.mod(angle, np.pi)


def _twice(zeta) -> np.ndarray:
    """2 zeta as a new float array, 0-d for a scalar: the one array a kernel allocates."""
    return np.asarray(2.0 * np.asarray(zeta, dtype=float))


def outcome_prob(x: int, zeta):
    """Malus-law probability of outcome ``x`` at misalignment ``zeta``.

    p(x | zeta) = (1 + x cos 2 zeta) / 2.  The two outcome probabilities
    sum to 1.0 exactly in floating point (see tests).
    """
    if x not in (-1, 1):
        raise ValidationError(f"outcome must be -1 or +1, got {x!r}")
    p = _twice(zeta)
    np.cos(p, out=p)
    p *= x
    p += 1.0
    p *= 0.5
    return p[()]


def outcome_from_uniform(u, zeta):
    """Map a uniform variate to an outcome: +1 iff u < p(+1 | zeta)."""
    x = np.asarray(u < outcome_prob(+1, zeta)).view(np.int8)  # 1 for +1, 0 for -1
    x *= 2
    x -= 1
    return x


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
    t = _twice(zeta)
    np.sin(t, out=t)
    np.abs(t, out=t)
    t = t[()]  # numpy's scalar power differs from its array power in the last bit
    t **= params.d
    t *= params.t0
    return t


def delay_from_uniform(u, zeta, params: ModelParams):
    """Map a uniform variate to a delay, uniform on [0, T(zeta)].

    Where T(zeta) = 0 the density degenerates to a point mass and the
    delay is exactly 0 for every u.
    """
    t = delay_timescale(zeta, params)
    t *= np.asarray(u, dtype=float)
    return t


def hidden_from_uniform(u):
    """Map a uniform variate to the hidden angle s1, uniform on [0, 2 pi)."""
    return np.asarray(u, dtype=float) * (2.0 * np.pi)
