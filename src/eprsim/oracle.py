"""Exact model predictions by deterministic numerical integration.

Every oracle quantity at settings (a1, a2) follows from four integrals
over the hidden angle s on [0, pi):

    D = int w ds,  C1 = int c1 w ds,  C2 = int c2 w ds,  C12 = int c1 c2 w ds

with c_k = cos 2 zeta_k, zeta1 = a1 - s, zeta2 = a2 - (s + pi/2), and w
the probability that two independent uniform delays on [0, T1] x [0, T2]
land within W of each other.  Then

    p(x1, x2 | a1, a2) = (D + x1 C1 + x2 C2 + x1 x2 C12) / (4 D)
    E(a1, a2) = C12 / D,   coincidence rate = D / pi.

``weight_exact`` evaluates w in closed form (band-overlap geometry).

The four integrals come from one adaptive Gauss-Kronrod (G7/K15) pass
over the vector integrand (QUADPACK QAG applied to a vector, as in
scipy's ``quad_vec``), and one pass serves a whole batch of settings
pairs: the 64 points of a curve, or the four correlations of CHSH.

* Seeds.  Each point's panels start at the kinks of w along s: where a
  delay timescale vanishes, where it crosses W, and where
  |T1 - T2| = W.  The last are found by a sign scan and one bisection
  of every crossing of the batch.
* Budget.  A panel's error is its largest component error.  A point is
  done once its summed error is at most tol * D / 4, its own D, which
  keeps every returned ratio within tol, or once it holds ``limit``
  panels; the caller then gets a QuadratureError naming what it achieved.
* Rounds.  Each round, every point still over its budget splits its
  panels of largest error, as many as cover its error less an eighth of
  its budget (``quad_vec``'s rule), and all the new panels of the batch
  are evaluated together.  Nearly all the cost of a panel is numpy call
  overhead, so one call for many panels is what makes a curve cheap.
* Independence.  Which panels a point splits depends on its own panels
  only, and every sum runs over one panel or one point, so a point's
  result does not depend on the batch it is in.
* Memory.  Panels are evaluated ``_PANEL_BLOCK`` at a time and the kink
  scan runs ``_SCAN_POINTS`` points at a time.  A whole curve at once
  would hold (64, 2, 4097) scan arrays and raise the peak memory of an
  oracle run by almost half.

Closed-form quantum references for the two rotationally invariant states
are provided for comparison curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import DEFAULT_QUADRUPLE, chsh_combination
from .errors import QuadratureError, ValidationError
from .model import ModelParams, Setting, delay_timescale, misalignments

__all__ = [
    "QuadratureSpec",
    "weight_exact",
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
    # Written as "not >= 0" so that NaN fails too.
    if not (np.all(t1a >= 0) and np.all(t2a >= 0) and window >= 0):
        raise ValidationError("timescales and window must be >= 0")
    out = _weight_arr(t1a, t2a, float(window))
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod integration of a batch of points on [0, pi].

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

# Panels per integrand call and points per kink scan: the bounds on the
# arrays alive at once (see the module docstring).
_PANEL_BLOCK = 256
_SCAN_POINTS = 1


def _gk15(f, pt, a, b):
    """G7/K15 on the panels [a_j, b_j] of points pt_j.

    f(p, s) maps flat arrays of point indices and nodes to a (k, len(s))
    array of k integrands.  Returns the Kronrod values, shape (m, k), and
    QUADPACK-style error estimates, shape (m,), each the largest component
    error of its panel.  Sums run along each panel's own 15 nodes, so a
    panel's result does not depend on the others in its block.
    """
    vals, errs = [], []
    for lo in range(0, len(a), _PANEL_BLOCK):
        block = slice(lo, lo + _PANEL_BLOCK)
        h = 0.5 * (b[block] - a[block])
        s = (0.5 * (a[block] + b[block]))[:, None] + h[:, None] * _GK_NODES
        fx = f(np.repeat(pt[block], len(_GK_NODES)), s.ravel()).reshape(-1, *s.shape)
        resk = np.sum(fx * _GK_WEIGHTS, axis=-1)
        resg = np.sum(fx * _G_WEIGHTS, axis=-1)
        resabs = np.sum(np.abs(fx) * _GK_WEIGHTS, axis=-1) * h
        resasc = np.sum(np.abs(fx - 0.5 * resk[..., None]) * _GK_WEIGHTS, axis=-1) * h
        err = np.abs(resk - resg) * h
        # QUADPACK's rescaling, skipped where resasc = 0 (a constant integrand).
        ratio = np.minimum(1.0, 200.0 * err / np.where(resasc > 0.0, resasc, 1.0))
        err = np.where(resasc > 0.0, resasc * ratio**1.5, err)
        vals.append((resk * h).T)
        errs.append(np.max(np.maximum(err, _EPS50 * resabs), axis=0))
    return np.concatenate(vals), np.concatenate(errs)


def _integrate(f, pt, x, rtol: float, limit: int):
    """Integrate f for every point of a batch, in rounds of panel splits.

    Point p starts with the panels between its consecutive breakpoints;
    ``pt`` and ``x`` are sorted by point, then by position.  A point is
    done once its summed error is at most rtol times its first integral,
    or once it holds ``limit`` panels (see the module docstring for the
    rounds).  Returns the values (n, k), the summed errors (n,) and the
    panel counts (n,) of the n = pt[-1] + 1 points.
    """
    pt, x = np.asarray(pt), np.asarray(x, dtype=float)
    n = int(pt[-1]) + 1
    seg = (pt[1:] == pt[:-1]) & (x[1:] > x[:-1])
    pt, a, b = pt[1:][seg], x[:-1][seg], x[1:][seg]
    val, err = _gk15(f, pt, a, b)
    while True:
        total = np.stack([np.bincount(pt, v, n) for v in val.T], axis=1)
        total_err = np.bincount(pt, err, n)
        count = np.bincount(pt, minlength=n)
        budget = rtol * total[:, 0]
        mid = 0.5 * (a + b)
        unfinished = (total_err > budget) & (count < limit)
        cand = np.flatnonzero(unfinished[pt] & (err > 0.0) & (a < mid) & (mid < b))
        if len(cand) == 0:
            return total, total_err, count
        # Each unfinished point's candidates, largest error first, one row per
        # point so that no running sum crosses from one point to the next.
        cand = cand[np.lexsort((-err[cand], pt[cand]))]
        p = pt[cand]
        rank = np.arange(len(p)) - np.searchsorted(p, p)
        group = np.cumsum(rank == 0) - 1
        by_point = np.zeros((group[-1] + 1, rank.max() + 1))
        by_point[group, rank] = err[cand]
        covered = np.cumsum(by_point, axis=1)[group, rank] - err[cand]  # by the larger errors before it
        split = cand[((rank == 0) | (covered <= total_err[p] - budget[p] / 8.0)) & (rank < limit - count[p])]
        keep = np.ones(len(a), dtype=bool)
        keep[split] = False
        halves = (np.r_[pt[split], pt[split]], np.r_[a[split], mid[split]], np.r_[mid[split], b[split]])
        new_val, new_err = _gk15(f, *halves)
        pt, a, b = (np.r_[old[keep], new] for old, new in zip((pt, a, b), halves))
        val, err = np.concatenate([val[keep], new_val]), np.r_[err[keep], new_err]


# Cells of the grid on [0, pi] scanned for sign changes of T1 - T2 -+ W,
# and bisection steps to refine each (pi / 4096 / 2**52 is below one ulp).
_KINK_GRID = 4096
_KINK_STEPS = 52


def _timescale_gap(a1, a2, s, target, params: ModelParams):
    """T1 - T2 - target at hidden angle s."""
    z1, z2 = misalignments(a1, a2, s)
    return delay_timescale(z1, params) - delay_timescale(z2, params) - target


def _anchor_points(a1: np.ndarray, a2: np.ndarray, params: ModelParams):
    """Subdivision seeds on [0, pi] for every settings pair (a1[p], a2[p]).

    These are the kinks of the weight along s.  T1 vanishes at s = a1
    (mod pi/2) and T2 at s = a2 (mod pi/2); when 0 < W < t0 each
    timescale also crosses W at offsets +-z0 from its zeros, with
    |sin 2 z0| = (W/t0)**(1/d).  The clipped-corner case of the weight
    switches where |T1 - T2| = W; those points are found by a sign scan
    on a fixed grid, _SCAN_POINTS points at a time, and one bisection of
    all of them.  Two crossings inside one grid cell are missed and left
    to the adaptive refinement.  A seed within 1e-12 of the one before it
    is dropped, except pi.

    Returns (point index, seed) arrays sorted by point, then by seed.
    """
    n = len(a1)
    offsets = [0.0]
    if params.d > 0 and 0.0 < params.window < params.t0:
        z0 = 0.5 * math.asin(min(1.0, (params.window / params.t0) ** (1.0 / params.d)))
        offsets += [z0, -z0]
    seeds = [np.zeros(n), np.full(n, _PI)]
    seeds += [(base + off + k * _PI / 2.0) % _PI for base in (a1, a2) for off in offsets for k in range(4)]
    pt = [np.repeat(np.arange(n), len(seeds))]
    seeds = [np.stack(seeds, axis=1).ravel()]
    if params.d > 0 and params.window > 0:
        grid = np.linspace(0.0, _PI, _KINK_GRID + 1)
        target = np.array([[params.window], [-params.window]])
        found = []
        for lo in range(0, n, _SCAN_POINTS):
            block = slice(lo, lo + _SCAN_POINTS)
            sign = np.signbit(_timescale_gap(a1[block, None, None], a2[block, None, None], grid, target, params))
            p, row, k = np.nonzero(np.diff(sign, axis=2))
            found.append((p + lo, row, k))
        p, row, k = (np.concatenate(c) for c in zip(*found))
        lo, hi, target = grid[k], grid[k + 1], target[row, 0]
        a1p, a2p = a1[p], a2[p]
        lo_sign = np.signbit(_timescale_gap(a1p, a2p, lo, target, params))
        for _ in range(_KINK_STEPS):
            mid = 0.5 * (lo + hi)
            left = np.signbit(_timescale_gap(a1p, a2p, mid, target, params)) == lo_sign
            lo = np.where(left, mid, lo)
            hi = np.where(left, hi, mid)
        pt.append(p)
        seeds.append(0.5 * (lo + hi))
    pt, seeds = np.concatenate(pt), np.concatenate(seeds)
    order = np.lexsort((seeds, pt))
    pt, seeds = pt[order], seeds[order]
    new = np.r_[True, pt[1:] != pt[:-1]]
    keep = new | np.r_[True, np.diff(seeds) > 1e-12] | np.r_[new[1:], True]
    return pt[keep], seeds[keep]


def _integrals(a1, a2, params: ModelParams, quad: QuadratureSpec) -> np.ndarray:
    """(D, C1, C2, C12) at each settings pair (a1[p], a2[p]), shape (n, 4).

    One batched pass; each point's four integrals are within tol * D / 4.
    Raises ValidationError for a non-finite setting, and QuadratureError
    for the first point whose D is zero or whose pass misses its budget;
    ``achieved`` is then the tol that point met.
    """
    a1, a2 = np.asarray(a1, dtype=float), np.asarray(a2, dtype=float)
    if not (np.all(np.isfinite(a1)) and np.all(np.isfinite(a2))):
        raise ValidationError("settings must be finite angles")

    def integrand(p, s):
        z1, z2 = misalignments(a1[p], a2[p], s)
        w = _weight_arr(delay_timescale(z1, params), delay_timescale(z2, params), params.window)
        c1w = np.cos(2.0 * z1) * w
        c2 = np.cos(2.0 * z2)
        return np.stack((w, c1w, c2 * w, c2 * c1w))

    val, err, _ = _integrate(integrand, *_anchor_points(a1, a2, params), 0.25 * quad.tol, quad.limit)
    d_val = val[:, 0]
    failed = (d_val <= 0.0) | (err > 0.25 * quad.tol * d_val)
    if failed.any():
        p = int(np.argmax(failed))
        if d_val[p] <= 0.0:
            raise QuadratureError("coincidence normalization integral is zero", err[p])
        achieved = 4.0 * err[p] / d_val[p]
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
    d, c1, c2, c12 = _integrals([a1], [a2], params, quad)[0]
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
    d, _, _, c12 = _integrals([a1], [a2], params, quad)[0]
    return float(c12 / d)


def correlation_curve(deltas, params: ModelParams, quad: QuadratureSpec = DEFAULT_QUAD) -> np.ndarray:
    """E(delta) over an array of setting differences, all in one batch."""
    deltas = np.asarray(deltas, dtype=float)
    if len(deltas) == 0:
        return np.zeros(0)
    val = _integrals(deltas, np.zeros(len(deltas)), params, quad)
    return val[:, 3] / val[:, 0]


def coincidence_rate_exact(
    a1: Setting,
    a2: Setting,
    params: ModelParams,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Expected fraction of pairs surviving the window at these settings: D / pi."""
    return float(_integrals([a1], [a2], params, quad)[0, 0] / _PI)


def chsh_exact(
    params: ModelParams,
    quadruple: tuple[float, float, float, float] = DEFAULT_QUADRUPLE,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Exact CHSH statistic of the model at the given angle quadruple.

    The four correlations E(a, b), E(a, b'), E(a', b), E(a', b') come from
    one batch.
    """
    a, ap, b, bp = (float(v) for v in quadruple)
    val = _integrals([a, a, ap, ap], [b, bp, b, bp], params, quad)
    return chsh_combination(*(float(e) for e in val[:, 3] / val[:, 0]))
