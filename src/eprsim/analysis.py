"""Correlation estimates, CHSH statistics, and window sweeps.

Counting statistics over post-selected coincidences: for every pair of
settings the four outcome combinations are tallied, the
correlation is E = (N++ + N-- - N+- - N-+) / N, and its standard error is
the binomial plug-in sqrt((1 - E**2) / N).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coincidence import Coincidences, MatchPolicy, check_pair_filter, match_events, pair_window_index
from .errors import ValidationError
from .events import EventLog, ExperimentConfig, run_experiment  # noqa: F401  perfbench/spans.py hooks it here
from .model import normalize_angle

__all__ = [
    "DEFAULT_QUADRUPLE",
    "CorrelationTable",
    "ChshResult",
    "SweepResult",
    "tabulate",
    "chsh",
    "chsh_combination",
    "window_sweep",
]

# Maximal-violation geometry for the singlet correlation:
# (a, a', b, b') = (0, pi/4, pi/8, 3 pi/8).
DEFAULT_QUADRUPLE = (0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8)


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

    @property
    def empty_cells(self) -> list[tuple[int, int]]:
        """Setting combinations with zero coincidences, reported distinctly."""
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self.n_total == 0))]


_EMPTY = "cannot tabulate an empty coincidence list"
_OUT_OF_RANGE = "setting index out of range for the supplied config"


def _outside(index: np.ndarray, n: int) -> np.ndarray:
    """Which setting index values fall outside a list of ``n`` settings."""
    return (index < 0) | (index >= n)


def _cell_codes(code: np.ndarray, i1, i2, x1, x2, n1: int, n2: int) -> np.ndarray:
    """Flat cell of each coincidence in a (rows, n1, n2, 2, 2) table, computed in place.

    ``code`` holds each coincidence's index on the first axis (its window,
    or 0 for a single table) on entry; ``i1``, ``i2`` are its setting
    indices and ``x1``, ``x2`` its outcomes (+1 -> 0, -1 -> 1).
    """
    for size, digit in ((n1, i1), (n2, i2), (2, x1 < 0), (2, x2 < 0)):
        code *= size
        code += digit
    return code


def tabulate(coincidences: Coincidences, config: ExperimentConfig) -> CorrelationTable:
    """Tally coincidences into a table sized and labelled by ``config``'s settings.

    Settings and outcomes are read from the log through the selection's
    rows.  A setting index outside ``config``'s lists is an error.
    """
    if len(coincidences) == 0:
        raise ValidationError(_EMPTY)
    s1, s2, r1, r2 = coincidences.log.station1, coincidences.log.station2, coincidences.rows1, coincidences.rows2
    i1, i2 = s1.setting_index[r1], s2.setting_index[r2]
    n1, n2 = len(config.settings1), len(config.settings2)
    if _outside(i1, n1).any() or _outside(i2, n2).any():
        raise ValidationError(_OUT_OF_RANGE)
    code = _cell_codes(np.zeros(len(r1), dtype=np.intp), i1, i2, s1.outcome[r1], s2.outcome[r2], n1, n2)
    counts = np.bincount(code, minlength=n1 * n2 * 4).reshape(n1, n2, 2, 2)
    return CorrelationTable(counts=counts, settings1=config.settings1, settings2=config.settings2)


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
        if np.isclose(normalize_angle(a), target, rtol=0.0, atol=1e-9):
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
    """CHSH statistic and coincidence count versus coincidence window.

    ``empty_cells[k]`` lists the setting combinations with no
    coincidences at ``windows[k]``, as ``CorrelationTable.empty_cells``.
    """

    windows: np.ndarray
    s: np.ndarray
    s_stderr: np.ndarray
    rate: np.ndarray
    matched: np.ndarray
    empty_cells: list[list[tuple[int, int]]] = field(default_factory=list)

    def crossings(self, level: float = 2.0) -> list[tuple[float, float]]:
        """Grid cells (w_lo, w_hi) where s crosses ``level``."""
        sign = np.sign(self.s - level)
        out = []
        for k in range(len(self.windows) - 1):
            if sign[k] != sign[k + 1] and sign[k] != 0:
                out.append((float(self.windows[k]), float(self.windows[k + 1])))
        return out


# Pairs per block of the paired sweep: a block's temporaries, about
# 23 bytes a pair (1.5 MB), stay near a core's cache.
_BLOCK_PAIRS = 1 << 16


def _paired_tables(log: EventLog, windows: np.ndarray, config: ExperimentConfig):
    """Yield every window's ``tabulate(pair_filter(log, w), config)`` from one pass.

    Each pair is binned once, by the first window that keeps it and by
    its cell; the cumulative sum of that histogram over the window axis
    is every window's count table.  The log is split into contiguous row
    ranges, one per thread and up to one thread per CPU; each thread
    bins its range in blocks of ``_BLOCK_PAIRS`` pairs into a histogram
    of its own, so no temporary grows with the log.  The integer
    histograms are summed: the tables do not depend on the thread count.
    Checks raise where the per-window calls would: a pair with a setting
    index outside ``config`` is left out of the histogram and raises at
    the first window that keeps it, the minimum over all blocks.
    """
    check_pair_filter(log, windows[0])
    s1, s2 = log.station1, log.station2
    n1, n2 = len(config.settings1), len(config.settings2)
    shape = (len(windows) + 1, n1, n2, 2, 2)
    size = math.prod(shape)

    def histogram(start: int, stop: int) -> tuple[np.ndarray, int]:
        """Histogram of rows [start, stop), and the first window an out-of-range pair among them raises at."""
        hist = np.zeros(size, dtype=np.int64)
        raise_at = len(windows)
        for lo in range(start, stop, _BLOCK_PAIRS):
            rows = slice(lo, min(lo + _BLOCK_PAIRS, stop))
            i1, i2 = s1.setting_index[rows], s2.setting_index[rows]
            code = pair_window_index(log, windows, rows)
            bad = np.flatnonzero(_outside(i1, n1) | _outside(i2, n2))
            raise_at = min(raise_at, int(code[bad].min(initial=raise_at)))
            _cell_codes(code, i1, i2, s1.outcome[rows], s2.outcome[rows], n1, n2)
            code[bad] = size - 1  # a cell of the last row, which no window reads
            hist += np.bincount(code, minlength=size)
        return hist, raise_at

    n = log.n_pairs
    n_blocks = -(-n // _BLOCK_PAIRS)
    threads = max(1, min(os.cpu_count() or 1, n_blocks))
    edges = [min(n, _BLOCK_PAIRS * (n_blocks * k // threads)) for k in range(threads + 1)]
    if threads == 1:
        parts = [histogram(0, n)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(histogram, edges[:-1], edges[1:]))
    raise_at = min(raise_at for _, raise_at in parts)
    counts = np.cumsum(sum(hist for hist, _ in parts).reshape(shape)[:-1], axis=0)
    for k in range(len(windows)):
        if k == raise_at:
            raise ValidationError(_OUT_OF_RANGE)
        if k == 0 and not counts[0].any():
            raise ValidationError(_EMPTY)
        yield CorrelationTable(counts=counts[k], settings1=config.settings1, settings2=config.settings2)


def window_sweep(
    config: ExperimentConfig,
    windows,
    quadruple: tuple[float, float, float, float] = DEFAULT_QUADRUPLE,
    policy: MatchPolicy = "paired",
    *,
    log: EventLog,
) -> SweepResult:
    """S(W) of one event log over a window grid.

    Every window is analyzed on the same ``log``, generated or read from
    tags, which gives a smooth correlated-sample curve; for independent
    error bars, sweep one log per seed.
    Policy ``"paired"`` reads every window's table from one histogram
    pass over the log; ``"stream"`` matches the streams once per window.
    Either way the tables, and any error, are those of
    ``tabulate(match_events(log, w, policy), config)`` window by window.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 1 or len(windows) == 0:
        raise ValidationError("windows must be a non-empty 1-D sequence")
    if not np.all(windows[1:] > windows[:-1]):  # "not >" so that a NaN or a repeated inf fails too
        raise ValidationError("window values must be strictly increasing")
    if policy == "paired":
        tables = _paired_tables(log, windows, config)
    else:
        tables = (tabulate(match_events(log, float(w), policy), config) for w in windows)
    s_vals = np.empty(len(windows))
    s_errs = np.empty(len(windows))
    matched = np.empty(len(windows), dtype=np.int64)
    empty_cells = []
    for k, table in enumerate(tables):
        result = chsh(table, quadruple)
        s_vals[k] = result.s
        s_errs[k] = result.stderr
        matched[k] = table.counts.sum()
        empty_cells.append(table.empty_cells)
    return SweepResult(windows=windows, s=s_vals, s_stderr=s_errs, rate=matched / log.n_pairs, matched=matched,
                       empty_cells=empty_cells)
