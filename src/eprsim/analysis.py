"""Correlation estimates, CHSH statistics, and window sweeps.

Counting statistics over post-selected coincidences: for every pair of
setting indices the four outcome combinations are tallied, the
correlation is E = (N++ + N-- - N+- - N-+) / N, and its standard error is
the binomial plug-in sqrt((1 - E**2) / N).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coincidence import Coincidences, MatchPolicy, match_events, pair_window_index
from .errors import ValidationError
from .events import EventLog, ExperimentConfig, run_experiment
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
    1 encodes -1.  Setting angle lists are optional; they are unknown for
    tag files read without a manifest.
    """

    counts: np.ndarray
    settings1: tuple[float, ...] | None = None
    settings2: tuple[float, ...] | None = None

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
    """Which setting indices fall outside a list of ``n`` settings."""
    return (index < 0) | (index >= n)


def _cell_codes(log: EventLog, rows1, rows2, i1: np.ndarray, i2: np.ndarray, n2: int) -> np.ndarray:
    """Flat (n1, n2, 2, 2) table cell of each coincidence, given its setting indices."""
    o1 = (log.station1.outcome[rows1] < 0).astype(np.int64)  # +1 -> 0, -1 -> 1
    o2 = (log.station2.outcome[rows2] < 0).astype(np.int64)
    return ((i1 * n2 + i2) * 2 + o1) * 2 + o2


def tabulate(coincidences: Coincidences, config: ExperimentConfig | None = None) -> CorrelationTable:
    """Tally coincidences into a correlation table.

    Settings and outcomes are read from the log through the selection's
    rows.  Setting-list sizes and angles come from ``config`` when given;
    otherwise sizes are inferred from the largest index present and the
    angles are left unknown.
    """
    if len(coincidences) == 0:
        raise ValidationError(_EMPTY)
    log, r1, r2 = coincidences.log, coincidences.rows1, coincidences.rows2
    i1 = log.station1.setting_index[r1].astype(np.int64)
    i2 = log.station2.setting_index[r2].astype(np.int64)
    if config is not None:
        n1, n2 = len(config.settings1), len(config.settings2)
        settings1, settings2 = config.settings1, config.settings2
        if _outside(i1, n1).any() or _outside(i2, n2).any():
            raise ValidationError(_OUT_OF_RANGE)
    else:
        n1, n2 = int(i1.max()) + 1, int(i2.max()) + 1
        settings1 = settings2 = None
    counts = np.bincount(_cell_codes(log, r1, r2, i1, i2, n2), minlength=n1 * n2 * 4).reshape(n1, n2, 2, 2)
    return CorrelationTable(counts=counts, settings1=settings1, settings2=settings2)


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


def chsh(
    table: CorrelationTable,
    quadruple: tuple[float, float, float, float] = DEFAULT_QUADRUPLE,
    indices: tuple[int, int, int, int] | None = None,
) -> ChshResult:
    """CHSH statistic from a correlation table.

    ``quadruple`` is the angle set (a, a', b, b'); the four correlations
    E(a,b), E(a,b'), E(a',b), E(a',b') must all be present in the table.
    Pass ``indices`` (ia, iap, ib, ibp) instead when the table has no
    angle labels.
    """
    if indices is None:
        if table.settings1 is None or table.settings2 is None:
            raise ValidationError("table has no setting angles; pass explicit indices")
        a, ap, b, bp = quadruple
        ia, iap = _find_setting(a, table.settings1, 1), _find_setting(ap, table.settings1, 1)
        ib, ibp = _find_setting(b, table.settings2, 2), _find_setting(bp, table.settings2, 2)
    else:
        ia, iap, ib, ibp = indices
    e = table.correlation
    se = table.stderr
    cells = [(ia, ib), (ia, ibp), (iap, ib), (iap, ibp)]
    for i, j in cells:
        if not (0 <= i < e.shape[0] and 0 <= j < e.shape[1]):
            raise ValidationError(f"missing combination: setting pair ({i},{j}) outside table")
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
    """CHSH statistic and coincidence count versus coincidence window."""

    windows: np.ndarray
    s: np.ndarray
    s_stderr: np.ndarray
    rate: np.ndarray
    matched: np.ndarray

    def crossings(self, level: float = 2.0) -> list[tuple[float, float]]:
        """Grid cells (w_lo, w_hi) where s crosses ``level``."""
        sign = np.sign(self.s - level)
        out = []
        for k in range(len(self.windows) - 1):
            if sign[k] != sign[k + 1] and sign[k] != 0:
                out.append((float(self.windows[k]), float(self.windows[k + 1])))
        return out


def _paired_tables(log: EventLog, windows: np.ndarray, config: ExperimentConfig):
    """Yield every window's ``tabulate(pair_filter(log, w), config)`` from one pass.

    Each pair is binned once, by the first window that keeps it and by
    its cell; the cumulative sum of that histogram over the window axis
    is every window's count table.  Checks raise where the per-window calls
    would: a pair with a setting index outside ``config`` is left out of
    the histogram and raises at the first window that keeps it.
    """
    first = pair_window_index(log, windows)
    n1, n2 = len(config.settings1), len(config.settings2)
    i1 = log.station1.setting_index.astype(np.int64)
    i2 = log.station2.setting_index.astype(np.int64)
    bad = _outside(i1, n1) | _outside(i2, n2)
    stop = int(first[bad].min(initial=len(windows)))
    rows = np.flatnonzero(~bad) if bad.any() else slice(None)
    ncells = n1 * n2 * 4
    flat = first[rows] * ncells + _cell_codes(log, rows, rows, i1[rows], i2[rows], n2)
    hist = np.bincount(flat, minlength=(len(windows) + 1) * ncells).reshape(-1, n1, n2, 2, 2)
    counts = np.cumsum(hist[:-1], axis=0)
    for k in range(len(windows)):
        if k == stop:
            raise ValidationError(_OUT_OF_RANGE)
        if k == 0 and not counts[0].any():
            raise ValidationError(_EMPTY)
        yield CorrelationTable(counts=counts[k], settings1=config.settings1, settings2=config.settings2)


def window_sweep(
    config: ExperimentConfig,
    windows,
    quadruple: tuple[float, float, float, float] = DEFAULT_QUADRUPLE,
    policy: MatchPolicy = "paired",
    n_workers: int = 1,
    log: EventLog | None = None,
) -> SweepResult:
    """S(W) over a window grid.

    One event log is generated (delays do not depend on the window) and
    every window is analyzed on it, which gives a smooth
    correlated-sample curve; for independent error bars, run one sweep per
    seed.  An existing ``log`` can be supplied to re-analyze stored data.
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
    if log is None:
        log = run_experiment(config, n_workers=n_workers)
    if policy == "paired":
        tables = _paired_tables(log, windows, config)
    else:
        tables = (tabulate(match_events(log, float(w), policy), config) for w in windows)
    s_vals = np.empty(len(windows))
    s_errs = np.empty(len(windows))
    matched = np.empty(len(windows), dtype=np.int64)
    for k, table in enumerate(tables):
        result = chsh(table, quadruple)
        s_vals[k] = result.s
        s_errs[k] = result.stderr
        matched[k] = table.counts.sum()
    return SweepResult(windows=windows, s=s_vals, s_stderr=s_errs, rate=matched / log.n_pairs, matched=matched)
