"""Correlation estimates, CHSH statistics, and window sweeps.

Counting statistics over post-selected coincidences: for every pair of
settings the four outcome combinations are tallied, the
correlation is E = (N++ + N-- - N+- - N-+) / N, and its standard error is
the binomial plug-in sqrt((1 - E**2) / N).

Every selection is a window sweep, and one window is a grid of one.
Either policy of the ``coincidence`` module gives each coincidence the
first window of the grid that keeps it; ``_bin`` counts it there, so the
cumulative sum over the windows is every window's count table.
``window_sweep`` keeps those tables in ``SweepResult.counts``, a cube
of shape (n_windows, n1, n2, 2, 2), and ``SweepResult`` derives E, its
stderr, S and S's stderr from the cube as arrays over every window at
once; no per-window table exists.

``window_sweep`` has one count loop: it looks the policy up in
``coincidence.MATCH_POLICIES``, checks each segment of the log as it
arrives, and bins the policy's groups in one ``_bin`` histogram.

``window_sweep`` checks the grid, the policy, the first window, then
for each segment the policy's checks of it and every event's setting
index (and, after the first segment's, the CHSH angles through
``chsh_cells``) before it counts that segment; then that each window
keeps coincidences in every CHSH cell.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coincidence import MATCH_POLICIES, MatchPolicy
from .errors import ValidationError
from .events import EventLog, ExperimentConfig
from .model import DEFAULT_QUADRUPLE, normalize_angle

__all__ = [
    "DEFAULT_QUADRUPLE",
    "SweepResult",
    "chsh_cells",
    "chsh_combination",
    "window_sweep",
]


def chsh_combination(e_ab: float, e_abp: float, e_apb: float, e_apbp: float) -> float:
    """S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')|, of floats or elementwise of arrays."""
    return abs(e_ab - e_abp + e_apb + e_apbp)


def _bin(groups, n_windows: int, config: ExperimentConfig) -> np.ndarray:
    """Coincidence groups counted by window and cell.

    Each group is ``(rows1, rows2, start, stop, log)``: coincidence k
    pairs row ``rows1[k]`` of ``log``'s station 1 with row ``rows2[k]`` of
    its station 2 and is kept at windows ``start[k] <= j < stop``
    (``start`` may be of any integer type; it is widened to ``np.intp``,
    in place if it is one already, and overwritten; a start of
    ``n_windows`` is kept at no window).  Each group is counted at
    ``start`` and its total subtracted at ``stop``, so the cumulative sum
    of the histogram over its first axis is every window's count table.
    The histogram has shape (n_windows + 1, n1, n2, 2, 2); its last row,
    which no window reads, holds what no window keeps.  Every setting
    index must lie in ``config``'s lists, or it lands in another cell.
    """
    n1, n2 = len(config.settings1), len(config.settings2)
    shape = (n_windows + 1, n1, n2, 2, 2)
    hist = np.zeros(shape, dtype=np.int64)
    for rows1, rows2, start, stop, log in groups:
        s1, s2 = log.station1, log.station2
        code = start.astype(np.intp, copy=False)  # wide enough for a cell code
        i1, i2 = s1.setting_index[rows1], s2.setting_index[rows2]
        for size, digit in ((n1, i1), (n2, i2), (2, s1.outcome[rows1] < 0), (2, s2.outcome[rows2] < 0)):
            code *= size
            code += digit
        group = np.bincount(code, minlength=hist.size).reshape(shape)
        hist += group
        hist[stop] -= group[:stop].sum(axis=0)
        del rows1, rows2, start, code, i1, i2, log, s1, s2  # not alive while the next group is awaited
    return hist


def _find_setting(angle: float, settings: tuple[float, ...], station: int) -> int:
    target = normalize_angle(angle)
    found = []
    for k, a in enumerate(settings):
        d = abs(normalize_angle(a) - target)
        if min(d, np.pi - d) <= 1e-9:  # circular: angles just below pi are near 0
            found.append(k)
    if not found:
        raise ValidationError(f"missing combination: angle {angle!r} not among station-{station} settings {settings}")
    if len(found) > 1:
        raise ValidationError(f"ambiguous combination: angle {angle!r} matches station-{station} settings "
                              f"{' and '.join(map(str, found))} of {settings}")
    return found[0]


def chsh_cells(config: ExperimentConfig, quadruple) -> tuple[tuple[int, int], ...]:
    """The setting pairs (a, b), (a, b'), (a', b), (a', b') of a quadruple (a, a', b, b'), found mod pi."""
    a, ap, b, bp = quadruple
    ia, iap = _find_setting(a, config.settings1, 1), _find_setting(ap, config.settings1, 1)
    ib, ibp = _find_setting(b, config.settings2, 2), _find_setting(bp, config.settings2, 2)
    return (ia, ib), (ia, ibp), (iap, ib), (iap, ibp)


@dataclass(eq=False)
class SweepResult:
    """Coincidence counts, correlations and the CHSH statistic versus coincidence window.

    ``counts[k, i, j, p, q]`` counts the coincidences kept at
    ``windows[k]`` with station settings (i, j) and outcomes (x1, x2),
    where axis index 0 encodes +1 and 1 encodes -1; the ``n_pairs``
    emitted pairs are the denominator of the coincidence rate.  ``cells``
    are the quadruple's ``chsh_cells``.  Everything else derives from
    ``counts``, every window at once.
    """

    windows: np.ndarray
    counts: np.ndarray
    n_pairs: int
    cells: tuple[tuple[int, int], ...]

    @cached_property
    def n_total(self) -> np.ndarray:
        """Coincidences per window and setting pair."""
        return self.counts.sum(axis=(3, 4))

    @property
    def matched(self) -> np.ndarray:
        """Coincidences at each window."""
        return self.n_total.sum(axis=(1, 2))

    @property
    def rate(self) -> np.ndarray:
        """Coincidences per emitted pair at each window."""
        return self.matched / self.n_pairs

    @property
    def empty_cells(self) -> list[list[tuple[int, int]]]:
        """Per window, the (i, j) setting combinations with no coincidences."""
        return [[(int(i), int(j)) for i, j in zip(*np.nonzero(n_total == 0))] for n_total in self.n_total]

    @cached_property
    def correlation(self) -> np.ndarray:
        """E per window and setting pair; NaN where a cell has no coincidences."""
        c, n = self.counts, self.n_total
        return np.where(n > 0, (c[..., 0, 0] + c[..., 1, 1] - c[..., 0, 1] - c[..., 1, 0]) / np.maximum(n, 1), np.nan)

    @cached_property
    def stderr(self) -> np.ndarray:
        """The binomial standard error of ``correlation``; NaN where a cell has no coincidences."""
        e = self.correlation
        with np.errstate(invalid="ignore"):  # clip of a NaN
            return np.sqrt(np.clip(1.0 - e * e, 0.0, None) / self.n_total)

    @cached_property
    def s(self) -> np.ndarray:
        """S at each window, from the correlations of the CHSH cells."""
        return chsh_combination(*(self.correlation[:, i, j] for i, j in self.cells))

    @cached_property
    def s_stderr(self) -> np.ndarray:
        """The CHSH cells' standard errors in quadrature, their squares summed left to right."""
        return np.sqrt(sum(np.square(self.stderr[:, i, j]) for i, j in self.cells))

    def crossings(self) -> list[tuple[float, float]]:
        """Grid cells (w_lo, w_hi) where s crosses the local-realist bound 2."""
        sign = np.sign(self.s - 2.0)
        k = np.flatnonzero((sign[:-1] != sign[1:]) & (sign[:-1] != 0))
        return [(float(lo), float(hi)) for lo, hi in zip(self.windows[k], self.windows[k + 1])]


def window_sweep(
    config: ExperimentConfig,
    windows,
    quadruple: tuple[float, float, float, float] = DEFAULT_QUADRUPLE,
    policy: MatchPolicy = "paired",
    *,
    log: EventLog | Iterable[EventLog],
) -> SweepResult:
    """S(W) of one event log over a window grid; one window is a grid of one.

    Every window is analyzed on the same ``log``, generated or read from
    tags, which gives a smooth correlated-sample curve; for independent
    error bars, sweep one log per seed.  ``log`` may also be an iterable
    of the consecutive segments of one run, in pair order, as
    ``run_experiment`` generates them; a stored log is a run of one
    segment.  Each segment is checked as it arrives, the groups of the
    policy's generator in ``coincidence.MATCH_POLICIES`` are binned into
    one histogram, and ``n_pairs`` is the segments' total.

    It raises, in this order, for a grid that is not 1-D and strictly
    increasing, an unknown policy, a first window below 0 or NaN; then,
    for each segment before it is counted, for the policy's checks of it
    and an event with a setting index outside ``config`` (kept at any
    window or none), and, after
    the first segment's checks, for a ``quadruple`` angle that matches
    no setting of its station or two, mod pi; and after counting, for no
    segment at all and for the first window with no coincidence or an
    empty CHSH cell.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 1 or len(windows) == 0:
        raise ValidationError("windows must be a non-empty 1-D sequence")
    if not np.all(windows[1:] > windows[:-1]):  # "not >" so that a NaN or a repeated inf fails too
        raise ValidationError("window values must be strictly increasing")
    if policy not in MATCH_POLICIES:
        raise ValidationError(f"unknown match policy {policy!r}")
    check, groups_of = MATCH_POLICIES[policy]
    if not (windows[0] >= 0):
        raise ValidationError(f"window must be >= 0, got {windows[0]}")
    n_pairs, cells = 0, None

    def checked(segment: EventLog) -> EventLog:
        nonlocal n_pairs, cells
        check(segment)
        for s, settings in ((segment.station1, config.settings1), (segment.station2, config.settings2)):
            # min and max allocate nothing the size of the log; initial=0 lets an empty station pass
            if s.setting_index.min(initial=0) < 0 or s.setting_index.max(initial=0) >= len(settings):
                raise ValidationError("setting index out of range for the supplied config")
        cells = cells or chsh_cells(config, quadruple)
        n_pairs += segment.n_pairs
        return segment

    groups = groups_of(checked(log) if isinstance(log, EventLog) else map(checked, log), windows)
    counts = np.cumsum(_bin(groups, len(windows), config)[:-1], axis=0)
    if cells is None:
        raise ValidationError("cannot tabulate an empty coincidence list: no log segment")
    result = SweepResult(windows, counts, n_pairs, cells)
    for n_total in result.n_total:
        if not n_total.any():
            raise ValidationError("cannot tabulate an empty coincidence list")
        for i, j in cells:
            if n_total[i, j] == 0:
                raise ValidationError(f"missing combination: no coincidences for setting pair ({i},{j})")
    return result
