"""Correlation table, CHSH, and window-sweep tests."""

from dataclasses import replace

import numpy as np
import pytest

from eprsim import (
    DEFAULT_QUADRUPLE,
    CorrelationTable,
    Coincidences,
    EventLog,
    ExperimentConfig,
    ModelParams,
    StationStream,
    SweepResult,
    ValidationError,
    chsh,
    chsh_combination,
    run_experiment,
    singlet_correlation,
    tabulate,
    window_sweep,
)


def coincidences_from_counts(cells):
    """A selection of every row of a log realizing given per-cell counts.

    ``cells`` maps (i1, i2) -> (n_pp, n_pm, n_mp, n_mm).
    """
    s1, s2, x1, x2 = [], [], [], []
    for (i, j), (npp, npm, nmp, nmm) in cells.items():
        for count, (o1, o2) in zip((npp, npm, nmp, nmm), ((1, 1), (1, -1), (-1, 1), (-1, -1))):
            s1 += [i] * count
            s2 += [j] * count
            x1 += [o1] * count
            x2 += [o2] * count
    n = len(s1)
    rows = np.arange(n)

    def stream(station, settings, outcomes):
        return StationStream(station, np.zeros(n), np.array(settings, dtype=np.int16),
                             np.array(outcomes, dtype=np.int8), rows)

    return Coincidences(EventLog(stream(1, s1, x1), stream(2, s2, x2)), rows, rows)


class TestTabulate:
    def test_perfect_correlation(self):
        table = tabulate(coincidences_from_counts({(0, 0): (10, 0, 0, 10)}))
        assert table.correlation[0, 0] == 1.0
        assert table.stderr[0, 0] == 0.0

    def test_perfect_anticorrelation(self):
        table = tabulate(coincidences_from_counts({(0, 0): (0, 10, 10, 0)}))
        assert table.correlation[0, 0] == -1.0

    def test_null_correlation_stderr(self):
        table = tabulate(coincidences_from_counts({(0, 0): (5, 5, 5, 5)}))
        assert table.correlation[0, 0] == 0.0
        assert table.stderr[0, 0] == pytest.approx(np.sqrt(1.0 / 20.0))

    def test_counts_axes(self):
        table = tabulate(coincidences_from_counts({(0, 1): (1, 2, 3, 4)}))
        assert table.cell(0, 1) == (1, 2, 3, 4)
        assert table.n_total[0, 1] == 10

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            tabulate(coincidences_from_counts({}))

    def test_empty_cell_reported_distinctly(self):
        cfg = ExperimentConfig(settings1=(0.0, 1.0), settings2=(0.5,), n_pairs=10, seed=0)
        table = tabulate(coincidences_from_counts({(0, 0): (2, 1, 1, 2)}), cfg)
        assert table.counts.shape == (2, 1, 2, 2)
        assert table.empty_cells == [(1, 0)]
        assert np.isnan(table.correlation[1, 0])
        assert not np.isnan(table.correlation[0, 0])

    def test_reads_columns_through_rows(self):
        # Station 2 lists the same two events in the other row order;
        # coincidence k must read station 2 at rows2[k], not at rows1[k].
        log = EventLog(
            StationStream(1, np.zeros(2), np.array([0, 1], dtype=np.int16), np.array([1, -1], dtype=np.int8)),
            StationStream(2, np.zeros(2), np.array([1, 0], dtype=np.int16), np.array([-1, 1], dtype=np.int8)),
        )
        table = tabulate(Coincidences(log, np.array([0, 1]), np.array([1, 0])))
        assert table.cell(0, 0) == (1, 0, 0, 0)
        assert table.cell(1, 1) == (0, 0, 0, 1)
        assert table.n_total.sum() == 2

    def test_index_outside_config_rejected(self):
        cfg = ExperimentConfig(settings1=(0.0,), settings2=(0.5,), n_pairs=10, seed=0)
        with pytest.raises(ValidationError):
            tabulate(coincidences_from_counts({(1, 0): (1, 0, 0, 0)}), cfg)


def table_from_correlation(quadruple, correlation, n=10**9):
    """Exact-probability counts (scaled to large n) for a correlation function."""
    a, ap, b, bp = quadruple
    cells = {}
    for i, s1 in enumerate((a, ap)):
        for j, s2 in enumerate((b, bp)):
            e = correlation(s1, s2)
            same = int(round(n * (1 + e) / 4))
            diff = int(round(n * (1 - e) / 4))
            cells[(i, j)] = (same, diff, diff, same)
    counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
    for (i, j), (npp, npm, nmp, nmm) in cells.items():
        counts[i, j] = [[npp, npm], [nmp, nmm]]
    return CorrelationTable(counts=counts, settings1=(a, ap), settings2=(b, bp))


class TestChsh:
    def test_singlet_reaches_tsirelson(self):
        table = table_from_correlation(DEFAULT_QUADRUPLE, singlet_correlation)
        result = chsh(table, DEFAULT_QUADRUPLE)
        assert result.s == pytest.approx(2.0 * np.sqrt(2.0), abs=5e-9)

    def test_null_table(self):
        table = table_from_correlation(DEFAULT_QUADRUPLE, lambda a, b: 0.0)
        assert chsh(table, DEFAULT_QUADRUPLE).s == 0.0

    def test_half_singlet(self):
        table = table_from_correlation(DEFAULT_QUADRUPLE, lambda a, b: 0.5 * singlet_correlation(a, b))
        assert chsh(table, DEFAULT_QUADRUPLE).s == pytest.approx(np.sqrt(2.0), abs=2e-8)

    def test_error_propagates_in_quadrature(self):
        cells = {(i, j): (5, 5, 5, 5) for i in range(2) for j in range(2)}
        table = tabulate(coincidences_from_counts(cells))
        result = chsh(table, indices=(0, 1, 0, 1))
        assert result.stderr == pytest.approx(np.sqrt(4 * (1.0 / 20.0)))

    def test_missing_angle_rejected(self):
        table = table_from_correlation(DEFAULT_QUADRUPLE, singlet_correlation)
        with pytest.raises(ValidationError, match="missing combination"):
            chsh(table, (0.0, np.pi / 4, np.pi / 8, 0.77))

    def test_empty_combination_rejected(self):
        cells = {(i, j): (5, 5, 5, 5) for i in range(2) for j in range(2) if (i, j) != (1, 1)}
        table = tabulate(coincidences_from_counts(cells))
        with pytest.raises(ValidationError, match="missing combination"):
            chsh(table, indices=(0, 1, 0, 1))

    def test_angle_matching_mod_pi(self):
        table = table_from_correlation(DEFAULT_QUADRUPLE, singlet_correlation)
        shifted = (np.pi, np.pi / 4 + np.pi, np.pi / 8 - np.pi, 3 * np.pi / 8)
        assert chsh(table, shifted).s == pytest.approx(2.0 * np.sqrt(2.0), abs=5e-9)

    def test_combination_formula(self):
        assert chsh_combination(-0.5, 0.5, -0.5, -0.5) == 2.0


class TestSweepResult:
    def test_windows_must_increase(self):
        with pytest.raises(ValidationError):
            SweepResult(windows=[1.0, 1.0], s=[2, 2], s_stderr=[0, 0], rate=[0.5, 0.5])

    def test_crossings(self):
        sweep = SweepResult(
            windows=[1.0, 2.0, 4.0, 8.0],
            s=[2.5, 2.2, 1.8, 1.5],
            s_stderr=[0.01] * 4,
            rate=[0.1, 0.2, 0.4, 0.8],
        )
        assert sweep.crossings(2.0) == [(2.0, 4.0)]


class TestWindowSweep:
    @pytest.fixture()
    def config(self):
        return ExperimentConfig(params=ModelParams(d=4.0, t0=1.0, window=0), n_pairs=60_000, seed=13)

    def test_rates_nondecreasing_when_refiltering(self, config):
        sweep = window_sweep(config, np.geomspace(1e-3, 1.0, 8))
        assert np.all(np.diff(sweep.rate) >= 0)
        assert sweep.rate[-1] == 1.0

    def test_quantum_vs_bell_regimes(self, config):
        sweep = window_sweep(config, np.array([1e-3, 1.0]))
        assert sweep.s[0] > 2.0  # narrow window: violation
        assert sweep.s[-1] < 2.0  # window covers all delays: no violation

    def test_stream_policy_matches_paired_for_separated_emissions(self, config):
        windows = np.geomspace(1e-3, 1.0, 5)
        a = window_sweep(config, windows, policy="paired")
        b = window_sweep(config, windows, policy="stream-greedy")
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.rate, b.rate)

    def test_independent_logs_differ_but_agree_statistically(self, config):
        windows = np.array([0.05])
        first = window_sweep(config, windows)
        second = window_sweep(replace(config, seed=config.seed + 1), windows)
        assert first.s[0] != second.s[0]
        sigma = float(np.hypot(first.s_stderr[0], second.s_stderr[0]))
        assert abs(first.s[0] - second.s[0]) < 5.0 * sigma

    def test_existing_log_reused(self, config):
        log = run_experiment(config)
        windows = np.array([0.01, 0.1])
        a = window_sweep(config, windows, log=log)
        b = window_sweep(config, windows)
        np.testing.assert_array_equal(a.s, b.s)

    def test_bad_window_grid_rejected(self, config):
        with pytest.raises(ValidationError):
            window_sweep(config, [])
        with pytest.raises(ValidationError):
            window_sweep(config, [0.2, 0.1])
