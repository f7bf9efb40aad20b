"""Slow references for the fast paths of ``eprsim``.

* Selectors and a table count that share no code with
  ``eprsim.coincidence`` or ``eprsim.analysis._bin``, the input checks
  and angle lookup of ``eprsim.analysis.window_sweep``, and a scalar
  CHSH that shares no code with ``SweepResult``: ``test_coincidence``
  and ``test_analysis`` check both policies of the window sweep, window
  by window, against them.
* The oracle's kink seeds with every timescale row recomputed at every
  point: ``test_oracle`` checks that ``oracle._anchor_points``, which
  reuses a row while its station's setting holds, gives the same seeds.
"""

import math

import numpy as np

from eprsim import ValidationError
from eprsim.model import delay_timescale, misalignments, normalize_angle
from eprsim.oracle import _KINK_GRID, _KINK_STEPS


def scan_reference(t1: np.ndarray, t2: np.ndarray, window: float) -> tuple[np.ndarray, np.ndarray]:
    """The single-stage matcher: the union-find scan over every station-1 event.

    Kept verbatim as the reference that the walk of
    ``stream_window_index`` must reproduce exactly at every window: it
    shares no code with it.  ``t1`` and ``t2`` are sorted; returns the
    matched indices into both, in station-1 order.
    """
    n1, n2 = len(t1), len(t2)
    lo_list = np.searchsorted(t2, t1 - window, side="left").tolist()
    t1l = t1.tolist()
    t2l = t2.tolist()
    del t1, t2  # the scan reads only the lists; a caller's temporary copies can go
    # next_free[j] = smallest unmatched index >= j (path-compressed).
    next_free = list(range(n2 + 1))

    def find(j: int) -> int:
        root = j
        while next_free[root] != root:
            root = next_free[root]
        while next_free[j] != root:
            next_free[j], j = root, next_free[j]
        return root

    out1: list[int] = []
    out2: list[int] = []
    for i in range(n1):
        ti = t1l[i]
        hi = ti + window
        j = find(lo_list[i])
        best = -1
        best_d = 0.0
        while j < n2 and t2l[j] <= hi:
            d = abs(t2l[j] - ti)
            if best < 0 or d < best_d:
                best, best_d = j, d
            elif t2l[j] > ti:
                break  # farther right can only be worse
            j = find(j + 1)
        if best >= 0:
            next_free[best] = best + 1
            out1.append(i)
            out2.append(best)
    return np.asarray(out1, dtype=np.int64), np.asarray(out2, dtype=np.int64)


def stream_reference(log, window: float) -> tuple[np.ndarray, np.ndarray]:
    """``scan_reference`` on a log: each station in time order, matches mapped back to rows.

    Returns the station-1 and station-2 rows of every coincidence, in
    station-1 time order, and raises for a window that the stream policy
    rejects, with its message.
    """
    if not (window >= 0):
        raise ValidationError(f"window must be >= 0, got {window}")
    o1, o2 = log.station1.time_order(), log.station2.time_order()
    m1, m2 = scan_reference(log.station1.time_tag[o1], log.station2.time_tag[o2], window)
    return o1[m1], o2[m2]


def paired_reference(log, window: float) -> tuple[np.ndarray, np.ndarray]:
    """The per-pair rule at one window: the rows of the pairs with |dt| <= window, for both stations.

    Raises what the paired policy raises, with its messages and in its
    order.
    """
    if not (window >= 0):
        raise ValidationError(f"window must be >= 0, got {window}")
    s1, s2 = log.station1, log.station2
    if s1.pair_id is None or s2.pair_id is None:
        raise ValidationError("per-pair filtering needs pair ids in both streams")
    if not np.array_equal(s1.pair_id, s2.pair_id):
        raise ValidationError("mismatched pair_id columns between stations")
    rows = np.flatnonzero(np.abs(s2.time_tag - s1.time_tag) <= window)
    return rows, rows


def indices_reference(log, config) -> None:
    """Raise, with ``window_sweep``'s message, if any event's setting index lies outside ``config``'s lists.

    Every event of both stations is checked, one by one, whether or not
    a window keeps it.
    """
    for stream, settings in ((log.station1, config.settings1), (log.station2, config.settings2)):
        if any(not 0 <= i < len(settings) for i in stream.setting_index.tolist()):
            raise ValidationError("setting index out of range for the supplied config")


def cells_reference(config, quadruple) -> tuple[tuple[int, int], ...]:
    """The CHSH cells (a,b), (a,b'), (a',b), (a',b') of ``quadruple``, its angles found mod pi.

    Each angle is compared with its station's settings one by one.
    Raises what ``chsh_cells`` raises, with its messages and in its
    order, for an angle that matches no setting or more than one.
    """

    def find(angle, settings, station):
        target = float(normalize_angle(angle))
        found = []
        for k, setting in enumerate(settings):
            d = abs(float(normalize_angle(setting)) - target)
            if min(d, math.pi - d) <= 1e-9:
                found.append(k)
        if not found:
            raise ValidationError(f"missing combination: angle {angle!r} not among "
                                  f"station-{station} settings {settings}")
        if len(found) > 1:
            raise ValidationError(f"ambiguous combination: angle {angle!r} matches station-{station} settings "
                                  f"{' and '.join(map(str, found))} of {settings}")
        return found[0]

    a, ap, b, bp = quadruple
    ia, iap = find(a, config.settings1, 1), find(ap, config.settings1, 1)
    ib, ibp = find(b, config.settings2, 2), find(bp, config.settings2, 2)
    return (ia, ib), (ia, ibp), (iap, ib), (iap, ibp)


def table_reference(log, rows1: np.ndarray, rows2: np.ndarray, config) -> np.ndarray:
    """One window's (n1, n2, 2, 2) count table of the coincidences (row ``rows1[k]``, row ``rows2[k]``).

    The coincidences are counted one by one; their setting indices must
    lie in ``config``'s lists (see ``indices_reference``).  Raises, with
    a window's message, if there is none.
    """
    s1, s2 = log.station1, log.station2
    n1, n2 = len(config.settings1), len(config.settings2)
    i1 = s1.setting_index[rows1].astype(np.int64)
    i2 = s2.setting_index[rows2].astype(np.int64)
    if len(rows1) == 0:
        raise ValidationError("cannot tabulate an empty coincidence list")
    counts = np.zeros((n1, n2, 2, 2), dtype=np.int64)
    np.add.at(counts, (i1, i2, (s1.outcome[rows1] == -1).astype(int), (s2.outcome[rows2] == -1).astype(int)), 1)
    return counts


def chsh_reference(counts: np.ndarray, cells) -> tuple[float, float]:
    """S and its standard error from one window's count table, cell by cell in Python floats.

    The scalar CHSH that ``SweepResult.s`` and ``s_stderr`` must match
    bit for bit.  Each of the four ``cells`` (a,b), (a,b'), (a',b),
    (a',b') must have coincidences; raises what ``window_sweep`` raises,
    with its message, for the first that has none.
    """
    e, squares = [], []
    for i, j in cells:
        (npp, npm), (nmp, nmm) = counts[i, j].tolist()
        n = npp + npm + nmp + nmm
        if n == 0:
            raise ValidationError(f"missing combination: no coincidences for setting pair ({i},{j})")
        e.append((npp + nmm - npm - nmp) / n)
        err = math.sqrt(max(1.0 - e[-1] * e[-1], 0.0) / n)
        squares.append(err * err)
    return abs(e[0] - e[1] + e[2] + e[3]), math.sqrt(squares[0] + squares[1] + squares[2] + squares[3])


def anchor_points_reference(a1: np.ndarray, a2: np.ndarray, params) -> tuple[np.ndarray, np.ndarray]:
    """The kink seeds of ``oracle._anchor_points``, its sign scan one point at a time.

    Every point computes both stations' timescale rows on the scan grid
    afresh, the rows a faster scan may share between points with equal
    settings.  The seeds, the bisection and the de-duplication are the
    oracle's, step for step, so the two must agree bit for bit.  Returns
    (point index, seed) arrays sorted by point, then by seed.
    """

    def gap(x1, x2, s, target):
        z1, z2 = misalignments(x1, x2, s)
        return delay_timescale(z1, params) - delay_timescale(z2, params) - target

    n = len(a1)
    offsets = [0.0]
    if params.d > 0 and 0.0 < params.window < params.t0:
        z0 = 0.5 * math.asin(min(1.0, (params.window / params.t0) ** (1.0 / params.d)))
        offsets += [z0, -z0]
    seeds = [np.zeros(n), np.full(n, math.pi)]
    seeds += [(base + off + k * math.pi / 2.0) % math.pi for base in (a1, a2) for off in offsets for k in range(4)]
    pt = [np.repeat(np.arange(n), len(seeds))]
    seeds = [np.stack(seeds, axis=1).ravel()]
    if params.d > 0 and params.window > 0:
        grid = np.linspace(0.0, math.pi, _KINK_GRID + 1)
        target = np.array([[params.window], [-params.window]])
        found = []
        for p in range(n):
            row, k = np.nonzero(np.diff(np.signbit(gap(a1[p], a2[p], grid, target)), axis=1))
            found.append((np.full(len(k), p), row, k))
        p, row, k = (np.concatenate(c) for c in zip(*found))
        lo, hi, target = grid[k], grid[k + 1], target[row, 0]
        lo_sign = np.signbit(gap(a1[p], a2[p], lo, target))
        for _ in range(_KINK_STEPS):
            mid = 0.5 * (lo + hi)
            left = np.signbit(gap(a1[p], a2[p], mid, target)) == lo_sign
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
