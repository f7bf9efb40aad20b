"""Exact model predictions by deterministic numerical integration.

Every oracle quantity at settings (a1, a2) follows from four integrals
over the hidden angle s on [0, pi):

    D = int w ds,  C1 = int c1 w ds,  C2 = int c2 w ds,  C12 = int c1 c2 w ds

with c_k = cos 2 zeta_k, zeta1 = a1 - s, zeta2 = a2 - (s + pi/2), and w
the probability that two independent uniform delays on [0, T1] x [0, T2]
land within W of each other.  Then

    p(x1, x2 | a1, a2) = (D + x1 C1 + x2 C2 + x1 x2 C12) / (4 D)
    E(a1, a2) = C12 / D,   coincidence rate = D / pi.

``weight_exact`` evaluates w in closed form (band-overlap geometry);
``weight_approx`` is the small-W linearization 2W / max(T1, T2).

The four integrals come from one adaptive Gauss-Kronrod (G7/K15) pass
over the vector integrand (QUADPACK QAG applied to a vector, as in
scipy's ``quad_vec``).  Panels are split by their largest component
error until the summed error is at most tol * D / 4, which keeps every
returned ratio within tol.  The pass is seeded at the kinks of w: where a
delay timescale vanishes, where it crosses W, and where |T1 - T2| = W.
Closed-form quantum references for the two rotationally invariant states
are provided for comparison curves.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .analysis import DEFAULT_QUADRUPLE, chsh_combination
from .errors import QuadratureError, ValidationError
from .model import ModelParams, Setting, delay_timescale, misalignments

__all__ = [
    "QuadratureSpec",
    "weight_exact",
    "weight_approx",
    "joint_prob",
    "correlation_exact",
    "correlation_curve",
    "coincidence_rate_exact",
    "chsh_exact",
    "singlet_correlation",
    "mixed_correlation",
]

_PI = math.pi


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings for the adaptive pass that computes D, C1, C2 and C12.

    tol    absolute error target on returned probabilities and
           correlations; each of the four integrals is held to tol * D / 4
    limit  maximum number of subintervals on [0, pi)
    """

    tol: float = 1e-8
    limit: int = 4000

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValidationError(f"tolerance must be > 0, got {self.tol}")
        if self.limit < 1:
            raise ValidationError("limit must be >= 1")


DEFAULT_QUAD = QuadratureSpec()


# ---------------------------------------------------------------------------
# Quantum reference correlations (closed forms).

def singlet_correlation(a1: Setting, a2: Setting) -> float:
    """E(a1, a2) = -cos 2(a1 - a2) for the rotationally invariant pure state."""
    return -math.cos(2.0 * (a1 - a2))


def mixed_correlation(a1: Setting, a2: Setting) -> float:
    """E(a1, a2) = -cos(2(a1 - a2)) / 2 for the rotationally invariant mixture."""
    return -0.5 * math.cos(2.0 * (a1 - a2))


# ---------------------------------------------------------------------------
# Coincidence weight function.

def _corner_fraction(c, span, side):
    """Corner area cut off by a diagonal at offset c, clipped to width span,
    as a fraction of the rectangle span x side (c <= side).

    The area is m (c - m/2) with m = min(c, span): 0.5 c^2, or
    0.5 span (2c - span) once the corner is clipped.  This product form
    avoids the cancellation of 0.5 c^2 - 0.5 (c - span)^2 when span is many
    orders below c, noise that would stall the adaptive integrator near
    the timescale zeros.  Each factor divides by one side, both ratios in
    [0, 1], because span * side underflows for subnormal timescales.
    """
    c = np.clip(c, 0.0, None)
    m = np.minimum(c, span)
    return (m / span) * ((c - 0.5 * m) / side)


def _weight_arr(t1, t2, window):
    """Vectorized band-overlap weight; inputs broadcast, all >= 0."""
    t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
    out = np.empty(t1.shape)
    zero1 = t1 == 0.0
    zero2 = t2 == 0.0
    both = zero1 & zero2
    only1 = zero1 & ~both
    only2 = zero2 & ~both
    regular = ~(zero1 | zero2)
    # Degenerate point masses: a zero timescale pins that delay at 0.
    out[both] = 1.0
    if only1.any():
        out[only1] = np.minimum(window, t2[only1]) / t2[only1]
    if only2.any():
        out[only2] = np.minimum(window, t1[only2]) / t1[only2]
    if window == 0.0:
        out[regular] = 0.0  # a band of zero width; the two corners below cancel only to 1 ulp
    elif regular.any():
        a, b = t1[regular], t2[regular]
        out[regular] = 1.0 - _corner_fraction(b - window, a, b) - _corner_fraction(a - window, b, a)
    return np.clip(out, 0.0, 1.0)


def weight_exact(t1, t2, window):
    """Probability that two uniform delays on [0,t1] x [0,t2] differ by <= window.

    Closed form: the band {|x - y| <= window} clipped to the rectangle,
    divided by the rectangle area.  Degenerate zero timescales are point
    masses at 0; two of them always coincide.
    """
    scalar = np.ndim(t1) == 0 and np.ndim(t2) == 0
    t1a, t2a = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    if np.any(t1a < 0) or np.any(t2a < 0) or window < 0:
        raise ValidationError("timescales and window must be >= 0")
    out = _weight_arr(t1a, t2a, float(window))
    return float(out) if scalar else out


def weight_approx(t1: float, t2: float, window: float) -> float:
    """Small-window linearization of the weight: 2W / max(t1, t2), capped at 1."""
    if t1 < 0 or t2 < 0 or window < 0:
        raise ValidationError("timescales and window must be >= 0")
    m = max(t1, t2)
    if m == 0.0:
        raise ValidationError("weight_approx undefined when both timescales are zero")
    return min(1.0, 2.0 * window / m)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod integration on [0, pi).

_GK_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691, -0.7415311855993944,
    -0.5860872354676911, -0.4058451513773972, -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911, 0.7415311855993944,
    0.8648644233597691, 0.9491079123427585, 0.9914553711208126,
])
_GK_WEIGHTS = np.array([
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502, 0.1406532597155259,
    0.1690047266392679, 0.1903505780647854, 0.2044329400752989, 0.2094821410847278,
    0.2044329400752989, 0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.06309209262997855, 0.02293532201052922,
])
_G_WEIGHTS = np.array([
    0.0, 0.1294849661688697, 0.0, 0.2797053914892767, 0.0, 0.3818300505051189, 0.0,
    0.4179591836734694,
    0.0, 0.3818300505051189, 0.0, 0.2797053914892767, 0.0, 0.1294849661688697, 0.0,
])

_EPS50 = 50.0 * np.finfo(float).eps


def _gk15(f, a: float, b: float):
    """One G7/K15 panel: Kronrod value and QUADPACK-style error estimate.

    f maps the 15 nodes to 15 values, or to a (k, 15) array for k
    integrands at once; the value then has length k and the error is the
    largest component error.
    """
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fx = f(c + h * _GK_NODES)
    resk = fx @ _GK_WEIGHTS
    resg = fx @ _G_WEIGHTS
    resabs = np.abs(fx) @ _GK_WEIGHTS * h
    resasc = np.abs(fx - 0.5 * resk[..., None]) @ _GK_WEIGHTS * h
    err = np.abs(resk - resg) * h
    # QUADPACK's rescaling, skipped where resasc = 0 (a constant integrand).
    ratio = np.minimum(1.0, 200.0 * err / np.where(resasc > 0.0, resasc, 1.0))
    err = np.where(resasc > 0.0, resasc * ratio**1.5, err)
    return resk * h, float(np.max(np.maximum(err, _EPS50 * resabs)))


def _adaptive_integrate(f, points, tol, limit: int):
    """Integrate f over the union of [points_k, points_k+1] segments.

    Splits the current worst segment until the summed error estimate
    drops below ``tol`` or ``limit`` segments exist.  ``tol`` is a number
    or a function of the running value estimate.  For a vector integrand
    (see ``_gk15``) the error estimate bounds every component.  Returns
    (value, error_estimate, n_segments).
    """
    budget = tol if callable(tol) else lambda _: tol
    heap = []
    tie = 0
    total_val = 0.0
    total_err = 0.0
    for a, b in zip(points[:-1], points[1:]):
        if not b > a:
            continue
        val, err = _gk15(f, a, b)
        heapq.heappush(heap, (-err, tie, a, b, val))
        tie += 1
        total_val += val
        total_err += err
    frozen = []  # (err, val) of unsplittable segments
    while total_err > budget(total_val) and len(heap) + len(frozen) < limit and heap:
        neg_err, _, a, b, val = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if not (a < m < b) or neg_err >= 0.0:
            frozen.append((-neg_err, val))
            continue
        v1, e1 = _gk15(f, a, m)
        v2, e2 = _gk15(f, m, b)
        total_val += v1 + v2 - val
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, tie, a, m, v1))
        heapq.heappush(heap, (-e2, tie + 1, m, b, v2))
        tie += 2
    vals = [seg[4] for seg in heap] + [v for _, v in frozen]
    errs = [-seg[0] for seg in heap] + [e for e, _ in frozen]
    return np.sum(vals, axis=0), math.fsum(errs), len(vals)


# Cells of the grid on [0, pi] scanned for sign changes of T1 - T2 -+ W,
# and bisection steps to refine each (pi / 4096 / 2**52 is below one ulp).
_KINK_GRID = 4096
_KINK_STEPS = 52


def _anchor_points(a1: float, a2: float, params: ModelParams) -> tuple[float, ...]:
    """Subdivision seeds on [0, pi]: the kinks of the weight along s.

    T1 vanishes at s = a1 (mod pi/2) and T2 at s = a2 (mod pi/2); when
    0 < W < t0 each timescale also crosses W at offsets +-z0 from its
    zeros, with |sin 2 z0| = (W/t0)**(1/d).  The clipped-corner case of the
    weight switches where |T1 - T2| = W; those points are found by a sign
    scan on a fixed grid and bisection.  Two crossings inside one grid
    cell are missed and left to the adaptive refinement.
    """
    pts = {0.0, _PI}
    offsets = [0.0]
    if params.d > 0 and 0.0 < params.window < params.t0:
        z0 = 0.5 * math.asin(min(1.0, (params.window / params.t0) ** (1.0 / params.d)))
        offsets += [z0, -z0]
    for base in (a1, a2):
        for off in offsets:
            for k in range(4):
                pts.add((base + off + k * _PI / 2.0) % _PI)
    if params.d > 0 and params.window > 0:

        def gap(s, target):
            z1, z2 = misalignments(a1, a2, s)
            return delay_timescale(z1, params) - delay_timescale(z2, params) - target

        grid = np.linspace(0.0, _PI, _KINK_GRID + 1)
        target = np.array([[params.window], [-params.window]])
        row, k = np.nonzero(np.diff(np.signbit(gap(grid, target)), axis=1))
        lo, hi, target = grid[k], grid[k + 1], target[row, 0]
        lo_sign = np.signbit(gap(lo, target))
        for _ in range(_KINK_STEPS):
            mid = 0.5 * (lo + hi)
            left = np.signbit(gap(mid, target)) == lo_sign
            lo = np.where(left, mid, lo)
            hi = np.where(left, hi, mid)
        pts.update((0.5 * (lo + hi)).tolist())
    ordered = sorted(pts)
    dedup = [ordered[0]]
    for p in ordered[1:]:
        if p - dedup[-1] > 1e-12:
            dedup.append(p)
    if dedup[-1] != _PI:
        dedup.append(_PI)
    return tuple(dedup)


def _integrals(a1: float, a2: float, params: ModelParams, quad: QuadratureSpec) -> np.ndarray:
    """(D, C1, C2, C12) from one adaptive pass, each within tol * D / 4.

    Raises QuadratureError when D is zero or the pass misses its budget;
    ``achieved`` is then the tol the pass did meet.
    """

    def integrand(s):
        z1, z2 = misalignments(a1, a2, s)
        w = _weight_arr(delay_timescale(z1, params), delay_timescale(z2, params), params.window)
        c1w = np.cos(2.0 * z1) * w
        c2 = np.cos(2.0 * z2)
        return np.stack((w, c1w, c2 * w, c2 * c1w))

    anchors = _anchor_points(a1, a2, params)
    val, err, _ = _adaptive_integrate(integrand, anchors, lambda v: 0.25 * quad.tol * v[0], quad.limit)
    d_val = val[0]
    if d_val <= 0.0:
        raise QuadratureError("coincidence normalization integral is zero", err)
    if err > 0.25 * quad.tol * d_val:
        achieved = 4.0 * err / d_val
        raise QuadratureError(
            f"quadrature did not converge: achieved {achieved:.3e}, requested {quad.tol:.3e}",
            achieved,
        )
    return val


def joint_prob(
    x1: int,
    x2: int,
    a1: Setting,
    a2: Setting,
    params: ModelParams,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Exact coincidence-conditioned probability p(x1, x2 | a1, a2).

    The four outcome probabilities at fixed settings sum to 1 within the
    quadrature tolerance.
    """
    if x1 not in (-1, 1) or x2 not in (-1, 1):
        raise ValidationError(f"outcomes must be -1 or +1, got {x1!r}, {x2!r}")
    d, c1, c2, c12 = _integrals(float(a1), float(a2), params, quad)
    return float((d + x1 * c1 + x2 * c2 + x1 * x2 * c12) / (4.0 * d))


def correlation_exact(
    a1: Setting,
    a2: Setting,
    params: ModelParams,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Exact correlation E(a1, a2) = sum_x1,x2 x1 x2 p(x1, x2 | a1, a2) = C12 / D.

    Depends on a1 - a2 only.
    """
    d, _, _, c12 = _integrals(float(a1), float(a2), params, quad)
    return float(c12 / d)


def correlation_curve(deltas, params: ModelParams, quad: QuadratureSpec = DEFAULT_QUAD) -> np.ndarray:
    """E(delta) over an array of setting differences."""
    return np.array([correlation_exact(float(d), 0.0, params, quad) for d in np.asarray(deltas, dtype=float)])


def coincidence_rate_exact(
    a1: Setting,
    a2: Setting,
    params: ModelParams,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Expected fraction of pairs surviving the window at these settings: D / pi."""
    return float(_integrals(float(a1), float(a2), params, quad)[0] / _PI)


def chsh_exact(
    params: ModelParams,
    quadruple: tuple[float, float, float, float] = DEFAULT_QUADRUPLE,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Exact CHSH statistic of the model at the given angle quadruple."""
    a, ap, b, bp = (float(v) for v in quadruple)
    return chsh_combination(
        correlation_exact(a, b, params, quad),
        correlation_exact(a, bp, params, quad),
        correlation_exact(ap, b, params, quad),
        correlation_exact(ap, bp, params, quad),
    )
