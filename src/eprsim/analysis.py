"""Correlation estimates, CHSH statistics, and window sweeps.

Counting statistics over post-selected coincidences: for every pair of
settings the four outcome combinations are tallied, the
correlation is E = (N++ + N-- - N+- - N-+) / N, and its standard error is
the binomial plug-in sqrt((1 - E**2) / N).

Every selection is a window sweep, and one window is a grid of one.
Either policy of the ``coincidence`` module gives each coincidence the
first window of the grid that keeps it; ``_bin`` counts it there, so the
cumulative sum over the windows is every window's count table.
``window_sweep`` keeps those tables in ``SweepResult.counts`` and
computes S at each window from them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coincidence import MatchPolicy, check_pair_filter, pair_window_index, stream_window_index
from .errors import ValidationError
from .events import EventLog, ExperimentConfig, map_ranges
from .model import DEFAULT_QUADRUPLE, normalize_angle

__all__ = [
    "DEFAULT_QUADRUPLE",
    "CorrelationTable",
    "ChshResult",
    "SweepResult",
    "chsh",
    "chsh_combination",
    "window_sweep",
]

def chsh_combination(e_ab: float, e_abp: float, e_apb: float, e_apbp: float) -> float:
    """S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')|."""
    return abs(e_ab - e_abp + e_apb + e_apbp)


@dataclass(eq=False)
class CorrelationTable:
    """Per setting-pair coincidence counts and correlation estimates.

    ``counts[i, j, p, q]`` counts coincidences with station settings
    (i, j) and outcomes (x1, x2), where axis index 0 encodes +1 and
    1 encodes -1.  ``settings1[i]`` and ``settings2[j]`` are the angles
    that label the axes; ``chsh`` finds its quadruple among them.
    ``counts`` must have shape (len(settings1), len(settings2), 2, 2).
    """

    counts: np.ndarray
    settings1: tuple[float, ...]
    settings2: tuple[float, ...]

    def __post_init__(self):
        expected = (len(self.settings1), len(self.settings2), 2, 2)
        if np.shape(self.counts) != expected:
            raise ValidationError(f"counts of shape {np.shape(self.counts)} do not fit the settings; "
                                  f"expected {expected}")

    @property
    def n_total(self) -> np.ndarray:
        return self.counts.sum(axis=(2, 3))

    @cached_property
    def correlation(self) -> np.ndarray:
        """E per setting pair; NaN where a cell has no coincidences."""
        n = self.n_total
        same = self.counts[:, :, 0, 0] + self.counts[:, :, 1, 1]
        diff = self.counts[:, :, 0, 1] + self.counts[:, :, 1, 0]
        with np.errstate(invalid="ignore", divide="ignore"):
            e = np.where(n > 0, (same - diff) / np.where(n > 0, n, 1), np.nan)
        return e

    @cached_property
    def stderr(self) -> np.ndarray:
        n = self.n_total
        e = self.correlation
        with np.errstate(invalid="ignore"):
            return np.where(n > 0, np.sqrt(np.clip(1.0 - e * e, 0.0, None) / np.where(n > 0, n, 1)), np.nan)


def _outside(index: np.ndarray, n: int) -> np.ndarray:
    """Which setting index values fall outside a list of ``n`` settings."""
    return (index < 0) | (index >= n)


def _bin(log: EventLog, groups, n_windows: int, config: ExperimentConfig) -> tuple[np.ndarray, int]:
    """Coincidence groups counted by window and cell, and the first window that keeps one outside the config.

    Each group is ``(rows1, rows2, start, stop)``: coincidence k pairs
    row ``rows1[k]`` of station 1 with row ``rows2[k]`` of station 2 and
    is kept at windows ``start[k] <= j < stop`` (``start``
    may be of any integer type; it is widened to ``np.intp``, in place if
    it is one already, and overwritten; a start of ``n_windows`` is kept
    at no window).  Each
    group is counted at ``start`` and its total subtracted at ``stop``,
    so the cumulative sum of the histogram over its first axis is every
    window's count table.  The histogram has shape (n_windows + 1, n1,
    n2, 2, 2); its last row, which no window reads, holds what no window
    keeps and every coincidence with a setting index outside the n1 x n2
    settings, which would otherwise land in another cell.  The window
    returned for those is ``n_windows`` if there are none.
    """
    s1, s2 = log.station1, log.station2
    n1, n2 = len(config.settings1), len(config.settings2)
    shape = (n_windows + 1, n1, n2, 2, 2)
    hist = np.zeros(shape, dtype=np.int64)
    raise_at = n_windows
    for rows1, rows2, start, stop in groups:
        code = start.astype(np.intp, copy=False)  # wide enough for a cell code
        i1, i2 = s1.setting_index[rows1], s2.setting_index[rows2]
        bad = np.flatnonzero(_outside(i1, n1) | _outside(i2, n2))
        raise_at = min(raise_at, int(code[bad].min(initial=n_windows)))
        for size, digit in ((n1, i1), (n2, i2), (2, s1.outcome[rows1] < 0), (2, s2.outcome[rows2] < 0)):
            code *= size
            code += digit
        code[bad] = hist.size - 1
        group = np.bincount(code, minlength=hist.size).reshape(shape)
        hist += group
        hist[stop] -= group[:stop].sum(axis=0)
    return hist, raise_at


@dataclass(frozen=True)
class ChshResult:
    """CHSH statistic with its propagated standard error."""

    s: float
    stderr: float
    e_ab: float
    e_abp: float
    e_apb: float
    e_apbp: float


def _find_setting(angle: float, settings: tuple[float, ...], station: int) -> int:
    target = normalize_angle(angle)
    for k, a in enumerate(settings):
        d = abs(normalize_angle(a) - target)
        if min(d, np.pi - d) <= 1e-9:  # circular: angles just below pi are near 0
            return k
    raise ValidationError(f"missing combination: angle {angle!r} not among station-{station} settings {settings}")


def chsh(table: CorrelationTable, quadruple: tuple[float, float, float, float] = DEFAULT_QUADRUPLE) -> ChshResult:
    """CHSH statistic from a correlation table.

    ``quadruple`` is the angle set (a, a', b, b'), found (mod pi) among
    the table's setting angles; the four correlations E(a,b), E(a,b'),
    E(a',b), E(a',b') must all have coincidences.
    """
    a, ap, b, bp = quadruple
    ia, iap = _find_setting(a, table.settings1, 1), _find_setting(ap, table.settings1, 1)
    ib, ibp = _find_setting(b, table.settings2, 2), _find_setting(bp, table.settings2, 2)
    e = table.correlation
    se = table.stderr
    cells = [(ia, ib), (ia, ibp), (iap, ib), (iap, ibp)]
    for i, j in cells:
        if table.n_total[i, j] == 0:
            raise ValidationError(f"missing combination: no coincidences for setting pair ({i},{j})")
    vals = [float(e[i, j]) for i, j in cells]
    errs = [float(se[i, j]) for i, j in cells]
    return ChshResult(
        s=chsh_combination(*vals),
        stderr=float(np.sqrt(np.sum(np.square(errs)))),
        e_ab=vals[0],
        e_abp=vals[1],
        e_apb=vals[2],
        e_apbp=vals[3],
    )


@dataclass(eq=False)
class SweepResult:
    """CHSH statistic and coincidence counts versus coincidence window.

    ``counts[k]`` is the count table at ``windows[k]``, laid out as
    ``CorrelationTable.counts``; the ``n_pairs`` emitted pairs are the
    denominator of the coincidence rate.
    """

    windows: np.ndarray
    counts: np.ndarray
    n_pairs: int
    s: np.ndarray
    s_stderr: np.ndarray

    @property
    def matched(self) -> np.ndarray:
        """Coincidences at each window."""
        return self.counts.sum(axis=(1, 2, 3, 4))

    @property
    def rate(self) -> np.ndarray:
        """Coincidences per emitted pair at each window."""
        return self.matched / self.n_pairs

    @property
    def empty_cells(self) -> list[list[tuple[int, int]]]:
        """Per window, the (i, j) setting combinations with no coincidences."""
        return [[(int(i), int(j)) for i, j in zip(*np.nonzero(n_total == 0))]
                for n_total in self.counts.sum(axis=(3, 4))]

    def crossings(self) -> list[tuple[float, float]]:
        """Grid cells (w_lo, w_hi) where s crosses the local-realist bound 2."""
        sign = np.sign(self.s - 2.0)
        out = []
        for k in range(len(self.windows) - 1):
            if sign[k] != sign[k + 1] and sign[k] != 0:
                out.append((float(self.windows[k]), float(self.windows[k + 1])))
        return out


# Pairs per block of the paired sweep: a block's temporaries, about
# 23 bytes a pair (1.5 MB), stay near a core's cache.
_BLOCK_PAIRS = 1 << 16


def _sweep_counts(log: EventLog, windows: np.ndarray, config: ExperimentConfig,
                  policy: MatchPolicy) -> tuple[np.ndarray, int]:
    """Every window's count table, from one ``_bin`` histogram, and ``_bin``'s first bad window.

    The tables have shape (len(windows), n1, n2, 2, 2).  Policy
    ``"paired"`` runs ``check_pair_filter`` once, then bins each pair
    once, at the first window that keeps it: :func:`map_ranges` splits
    the log into one contiguous, block-aligned row range per CPU, and
    each range is binned in groups of ``_BLOCK_PAIRS`` pairs into a
    histogram of its own, so no temporary grows with the log.  The
    integer histograms are summed: the tables do not depend on the
    split.  Policy ``"stream"`` bins the groups of
    ``stream_window_index``.
    """
    if policy == "paired":
        check_pair_filter(log, windows[0])

        def histogram(start: int, stop: int) -> tuple[np.ndarray, int]:
            blocks = (slice(lo, min(lo + _BLOCK_PAIRS, stop)) for lo in range(start, stop, _BLOCK_PAIRS))
            groups = ((rows, rows, pair_window_index(log, windows, rows), len(windows)) for rows in blocks)
            return _bin(log, groups, len(windows), config)

        parts = map_ranges(histogram, log.n_pairs, _BLOCK_PAIRS, os.cpu_count() or 1)
        hist, raise_at = sum(hist for hist, _ in parts), min(raise_at for _, raise_at in parts)
    elif policy == "stream":
        hist, raise_at = _bin(log, stream_window_index(log, windows), len(windows), config)
    else:
        raise ValidationError(f"unknown match policy {policy!r}")
    return np.cumsum(hist[:-1], axis=0), raise_at


def _tables(counts: np.ndarray, raise_at: int, config: ExperimentConfig):
    """Yield every window's ``CorrelationTable`` from ``_sweep_counts``'s result.

    Raises at the first window that keeps a coincidence outside the
    config (window ``raise_at``) or keeps none.
    """
    for k, window_counts in enumerate(counts):
        if k == raise_at:
            raise ValidationError("setting index out of range for the supplied config")
        if not window_counts.any():
            raise ValidationError("cannot tabulate an empty coincidence list")
        yield CorrelationTable(counts=window_counts, settings1=config.settings1, settings2=config.settings2)


def window_sweep(
    config: ExperimentConfig,
    windows,
    quadruple: tuple[float, float, float, float] = DEFAULT_QUADRUPLE,
    policy: MatchPolicy = "paired",
    *,
    log: EventLog,
) -> SweepResult:
    """S(W) of one event log over a window grid; one window is a grid of one.

    Every window is analyzed on the same ``log``, generated or read from
    tags, which gives a smooth correlated-sample curve; for independent
    error bars, sweep one log per seed.
    Either policy reads every window's table from one histogram.  Policy
    ``"paired"`` bins the log in one pass.  Policy ``"stream"`` sorts each
    station once and walks the grid from the largest window down: each
    window splits only the events still contested at the window above,
    bins the uncontested ones at the first window that keeps them, and
    scans the rest (see the ``coincidence`` module).
    The windows are checked in order: each raises as ``_tables`` does,
    then as ``chsh`` does for ``quadruple``.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 1 or len(windows) == 0:
        raise ValidationError("windows must be a non-empty 1-D sequence")
    if not np.all(windows[1:] > windows[:-1]):  # "not >" so that a NaN or a repeated inf fails too
        raise ValidationError("window values must be strictly increasing")
    counts, raise_at = _sweep_counts(log, windows, config, policy)
    results = [chsh(table, quadruple) for table in _tables(counts, raise_at, config)]
    return SweepResult(windows=windows, counts=counts, n_pairs=log.n_pairs, s=np.array([r.s for r in results]),
                       s_stderr=np.array([r.stderr for r in results]))
