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

from .coincidence import Coincidences, MatchPolicy, match_events
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

    def cell(self, i: int, j: int) -> tuple[int, int, int, int]:
        """Counts (N++, N+-, N-+, N--) for setting pair (i, j)."""
        c = self.counts[i, j]
        return int(c[0, 0]), int(c[0, 1]), int(c[1, 0]), int(c[1, 1])


def tabulate(coincidences: Coincidences, config: ExperimentConfig | None = None) -> CorrelationTable:
    """Tally coincidences into a correlation table.

    Settings and outcomes are read from the log through the selection's
    rows.  Setting-list sizes and angles come from ``config`` when given;
    otherwise sizes are inferred from the largest index present and the
    angles are left unknown.
    """
    if len(coincidences) == 0:
        raise ValidationError("cannot tabulate an empty coincidence list")
    st1, st2 = coincidences.log.station1, coincidences.log.station2
    r1, r2 = coincidences.rows1, coincidences.rows2
    i1 = st1.setting_index[r1].astype(np.int64)
    i2 = st2.setting_index[r2].astype(np.int64)
    if config is not None:
        n1, n2 = len(config.settings1), len(config.settings2)
        settings1, settings2 = config.settings1, config.settings2
        if i1.max() >= n1 or i2.max() >= n2:
            raise ValidationError("setting index out of range for the supplied config")
    else:
        n1, n2 = int(i1.max()) + 1, int(i2.max()) + 1
        settings1 = settings2 = None
    o1 = (st1.outcome[r1] < 0).astype(np.int64)  # +1 -> 0, -1 -> 1
    o2 = (st2.outcome[r2] < 0).astype(np.int64)
    flat = ((i1 * n2 + i2) * 2 + o1) * 2 + o2
    counts = np.bincount(flat, minlength=n1 * n2 * 4).reshape(n1, n2, 2, 2)
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
    """CHSH statistic versus coincidence window."""

    windows: np.ndarray
    s: np.ndarray
    s_stderr: np.ndarray
    rate: np.ndarray
    quadruple: tuple[float, float, float, float] = DEFAULT_QUADRUPLE
    policy: str = "paired"

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        self.s_stderr = np.asarray(self.s_stderr, dtype=float)
        self.rate = np.asarray(self.rate, dtype=float)
        if len(self.windows) == 0:
            raise ValidationError("sweep needs at least one window")
        if np.any(np.diff(self.windows) <= 0):
            raise ValidationError("window values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.windows)

    def crossings(self, level: float = 2.0) -> list[tuple[float, float]]:
        """Grid cells (w_lo, w_hi) where s crosses ``level``."""
        sign = np.sign(self.s - level)
        out = []
        for k in range(len(self.windows) - 1):
            if sign[k] != sign[k + 1] and sign[k] != 0:
                out.append((float(self.windows[k]), float(self.windows[k + 1])))
        return out


def window_sweep(
    config: ExperimentConfig,
    windows,
    quadruple: tuple[float, float, float, float] = DEFAULT_QUADRUPLE,
    policy: MatchPolicy = "paired",
    n_workers: int = 1,
    log: EventLog | None = None,
) -> SweepResult:
    """S(W) over a window grid.

    One event log is generated and re-filtered per window (delays do not
    depend on the window), which is cheap and gives a smooth
    correlated-sample curve; for independent error bars, run one sweep per
    seed.  An existing ``log`` can be supplied to re-analyze stored data.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 1 or len(windows) == 0:
        raise ValidationError("windows must be a non-empty 1-D sequence")
    if np.any(np.diff(windows) <= 0):
        raise ValidationError("window values must be strictly increasing")
    if log is None:
        log = run_experiment(config, n_workers=n_workers)
    s_vals = np.empty(len(windows))
    s_errs = np.empty(len(windows))
    rates = np.empty(len(windows))
    for k, w in enumerate(windows):
        coinc = match_events(log, float(w), policy)
        rates[k] = len(coinc) / log.n_pairs
        result = chsh(tabulate(coinc, config), quadruple)
        s_vals[k] = result.s
        s_errs[k] = result.stderr
    return SweepResult(windows=windows, s=s_vals, s_stderr=s_errs, rate=rates, quadruple=quadruple, policy=policy)
