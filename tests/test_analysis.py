"""Correlation table, CHSH, and window-sweep tests."""

import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eprsim.coincidence
import eprsim.events
from eprsim.analysis import _BLOCK_PAIRS, _sweep_tables
from eprsim import (
    DEFAULT_QUADRUPLE,
    CorrelationTable,
    Coincidences,
    EmissionSpec,
    EventLog,
    ExperimentConfig,
    ModelParams,
    StationStream,
    SweepResult,
    ValidationError,
    chsh,
    chsh_combination,
    match_events,
    read_tags,
    run_experiment,
    singlet_correlation,
    tabulate,
    window_sweep,
    write_tags,
)
from references import stream_reference


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


def config_sized(n1, n2):
    """A config with ``n1`` and ``n2`` distinct setting angles."""
    return ExperimentConfig(settings1=tuple(0.1 * np.arange(n1)), settings2=tuple(0.1 * np.arange(n2) + 0.05),
                            n_pairs=10, seed=0)


def tabulate_counts(cells):
    """``tabulate`` of ``coincidences_from_counts(cells)`` with a config sized to the cells' indices."""
    n1 = max((i for i, _ in cells), default=0) + 1
    n2 = max((j for _, j in cells), default=0) + 1
    return tabulate(coincidences_from_counts(cells), config_sized(n1, n2))


class TestTabulate:
    def test_perfect_correlation(self):
        table = tabulate_counts({(0, 0): (10, 0, 0, 10)})
        assert table.correlation[0, 0] == 1.0
        assert table.stderr[0, 0] == 0.0

    def test_perfect_anticorrelation(self):
        table = tabulate_counts({(0, 0): (0, 10, 10, 0)})
        assert table.correlation[0, 0] == -1.0

    def test_null_correlation_stderr(self):
        table = tabulate_counts({(0, 0): (5, 5, 5, 5)})
        assert table.correlation[0, 0] == 0.0
        assert table.stderr[0, 0] == pytest.approx(np.sqrt(1.0 / 20.0))

    def test_counts_axes(self):
        table = tabulate_counts({(0, 1): (1, 2, 3, 4)})
        np.testing.assert_array_equal(table.counts[0, 1], [[1, 2], [3, 4]])
        assert table.n_total[0, 1] == 10

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            tabulate_counts({})

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
        table = tabulate(Coincidences(log, np.array([0, 1]), np.array([1, 0])), config_sized(2, 2))
        np.testing.assert_array_equal(table.counts[0, 0], [[1, 0], [0, 0]])
        np.testing.assert_array_equal(table.counts[1, 1], [[0, 0], [0, 1]])
        assert table.n_total.sum() == 2

    def test_counts_must_fit_the_settings(self):
        with pytest.raises(ValidationError, match=r"counts of shape \(1, 1, 2, 2\) do not fit"):
            CorrelationTable(counts=np.ones((1, 1, 2, 2)), settings1=(0, np.pi / 4), settings2=(np.pi / 8, 3 * np.pi / 8))

    def test_index_outside_config_rejected(self):
        cfg = ExperimentConfig(settings1=(0.0,), settings2=(0.5,), n_pairs=10, seed=0)
        for cell in ((1, 0), (0, -1), (-1, 0)):  # a negative index must not wrap into another cell
            with pytest.raises(ValidationError, match="out of range"):
                tabulate(coincidences_from_counts({cell: (1, 0, 0, 0)}), cfg)


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


# Settings (a, a') and (b, b') of the default quadruple at indices 0 and 1.
QUADRUPLE_CONFIG = ExperimentConfig(settings1=DEFAULT_QUADRUPLE[:2], settings2=DEFAULT_QUADRUPLE[2:], n_pairs=10, seed=0)


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
        table = tabulate(coincidences_from_counts(cells), QUADRUPLE_CONFIG)
        result = chsh(table, DEFAULT_QUADRUPLE)
        assert result.stderr == pytest.approx(np.sqrt(4 * (1.0 / 20.0)))

    def test_missing_angle_rejected(self):
        table = table_from_correlation(DEFAULT_QUADRUPLE, singlet_correlation)
        with pytest.raises(ValidationError, match="missing combination"):
            chsh(table, (0.0, np.pi / 4, np.pi / 8, 0.77))

    def test_empty_combination_rejected(self):
        cells = {(i, j): (5, 5, 5, 5) for i in range(2) for j in range(2) if (i, j) != (1, 1)}
        table = tabulate(coincidences_from_counts(cells), QUADRUPLE_CONFIG)
        with pytest.raises(ValidationError, match="missing combination"):
            chsh(table, DEFAULT_QUADRUPLE)

    def test_angle_matching_mod_pi(self):
        table = table_from_correlation(DEFAULT_QUADRUPLE, singlet_correlation)
        shifted = (np.pi, np.pi / 4 + np.pi, np.pi / 8 - np.pi, 3 * np.pi / 8)
        assert chsh(table, shifted).s == pytest.approx(2.0 * np.sqrt(2.0), abs=5e-9)

    def test_combination_formula(self):
        assert chsh_combination(-0.5, 0.5, -0.5, -0.5) == 2.0


class TestSweepResult:
    def test_crossings(self):
        sweep = SweepResult(
            windows=np.array([1.0, 2.0, 4.0, 8.0]),
            s=np.array([2.5, 2.2, 1.8, 1.5]),
            s_stderr=np.full(4, 0.01),
            rate=np.array([0.1, 0.2, 0.4, 0.8]),
            matched=np.array([1, 2, 4, 8]),
        )
        assert sweep.crossings() == [(2.0, 4.0)]


class TestWindowSweep:
    @pytest.fixture(scope="class")
    def config(self):
        return ExperimentConfig(params=ModelParams(d=4.0, t0=1.0, window=0), n_pairs=60_000, seed=13)

    @pytest.fixture(scope="class")
    def log(self, config):
        return run_experiment(config)

    def test_rates_nondecreasing_when_refiltering(self, config, log):
        sweep = window_sweep(config, np.geomspace(1e-3, 1.0, 8), log=log)
        assert np.all(np.diff(sweep.rate) >= 0)
        assert sweep.rate[-1] == 1.0

    def test_quantum_vs_bell_regimes(self, config, log):
        sweep = window_sweep(config, np.array([1e-3, 1.0]), log=log)
        assert sweep.s[0] > 2.0  # narrow window: violation
        assert sweep.s[-1] < 2.0  # window covers all delays: no violation

    def test_stream_policy_matches_paired_for_separated_emissions(self, config, log):
        windows = np.geomspace(1e-3, 1.0, 5)
        a = window_sweep(config, windows, policy="paired", log=log)
        b = window_sweep(config, windows, policy="stream", log=log)
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.rate, b.rate)

    def test_independent_logs_differ_but_agree_statistically(self, config, log):
        windows = np.array([0.05])
        other = replace(config, seed=config.seed + 1)
        first = window_sweep(config, windows, log=log)
        second = window_sweep(other, windows, log=run_experiment(other))
        assert first.s[0] != second.s[0]
        sigma = float(np.hypot(first.s_stderr[0], second.s_stderr[0]))
        assert abs(first.s[0] - second.s[0]) < 5.0 * sigma

    def test_windows_must_increase(self, config, log):
        # inf - inf is NaN, so a repeated infinite window must fail too.
        for windows in ([1.0, 1.0], [1.0, np.inf, np.inf], [np.nan, 1.0]):
            with pytest.raises(ValidationError, match="strictly increasing"):
                window_sweep(config, windows, log=log)

    def test_bad_window_grid_rejected(self, config, log):
        with pytest.raises(ValidationError):
            window_sweep(config, [], log=log)
        with pytest.raises(ValidationError):
            window_sweep(config, [0.2, 0.1], log=log)


def sweep_reference(config, windows, quadruple=DEFAULT_QUADRUPLE, policy="paired", log=None):
    """The per-window sweep: match, tabulate and CHSH once per window.

    Kept verbatim (but for returning the three arrays, and for selecting
    stream windows with the test-only ``stream_reference``, since
    ``stream_match`` is the stream sweep's own walk) as the reference that
    both one-pass sweeps, paired and stream, must reproduce exactly.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 1 or len(windows) == 0:
        raise ValidationError("windows must be a non-empty 1-D sequence")
    if not np.all(windows[1:] > windows[:-1]):  # "not >" so that a NaN or a repeated inf fails too
        raise ValidationError("window values must be strictly increasing")
    if log is None:
        log = run_experiment(config)
    s_vals = np.empty(len(windows))
    s_errs = np.empty(len(windows))
    rates = np.empty(len(windows))
    for k, w in enumerate(windows):
        if policy == "stream":
            coinc = Coincidences(log, *stream_reference(log, float(w)))
        else:
            coinc = match_events(log, float(w), policy)
        rates[k] = len(coinc) / log.n_pairs
        result = chsh(tabulate(coinc, config), quadruple)
        s_vals[k] = result.s
        s_errs[k] = result.stderr
    return s_vals, s_errs, rates


def assert_same_as_reference(config, windows, log, policy="paired"):
    sweep = window_sweep(config, windows, policy=policy, log=log)
    s, s_stderr, rate = sweep_reference(config, windows, policy=policy, log=log)
    assert np.array_equal(sweep.s, s)
    assert np.array_equal(sweep.s_stderr, s_stderr)
    assert np.array_equal(sweep.rate, rate)
    assert np.array_equal(sweep.matched, np.rint(rate * log.n_pairs))


@st.composite
def sweep_inputs(draw):
    """A regular or Poisson log with 3 x 2 settings and a window grid on its own |dt| values.

    Windows sit exactly on a pair's |dt| (closed boundary) or one ulp
    below it, from the median |dt| up so that every CHSH cell is filled,
    optionally followed by an infinite window.
    """
    emission = draw(st.sampled_from([None, EmissionSpec.poisson(0.002)]))
    n = draw(st.integers(400, 1500))
    config = ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), settings1=(0.0, np.pi / 4, np.pi / 2),
                              settings2=(np.pi / 8, 3 * np.pi / 8), n_pairs=n, seed=draw(st.integers(0, 2**32)),
                              emission=emission)
    log = run_experiment(config)
    dt = np.sort(np.abs(log.station2.time_tag - log.station1.time_tag))
    picks = draw(st.lists(st.tuples(st.integers(n // 2, n - 1), st.booleans()), min_size=1, max_size=6))
    windows = np.unique([np.nextafter(dt[k], 0.0) if below else dt[k] for k, below in picks])
    if draw(st.booleans()):
        windows = np.append(windows, np.inf)
    return config, windows, log


class TestOnePassSweep:
    """The one-pass sweeps, paired and stream, against the per-window reference."""

    @settings(max_examples=40, deadline=None)
    @given(sweep_inputs())
    def test_equals_per_window_reference(self, inputs):
        assert_same_as_reference(*inputs)

    @settings(max_examples=40, deadline=None)
    @given(sweep_inputs())
    def test_stream_equals_per_window_reference(self, inputs):
        assert_same_as_reference(*inputs, policy="stream")

    def test_stream_dense_poisson(self):
        # Clusters of many events: nearly every event is contested at the largest window.
        config = ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=3000, seed=5,
                                  emission=EmissionSpec.poisson(5e-3))
        assert_same_as_reference(config, [5.0, 50.0, 500.0, 1000.0], run_experiment(config), "stream")

    def test_stream_on_tags_without_pair_ids(self, tmp_path):
        config = ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=3000, seed=6,
                                  emission=EmissionSpec.poisson(2e-3))
        log = run_experiment(config)
        write_tags(EventLog(replace(log.station1, pair_id=None), replace(log.station2, pair_id=None)), tmp_path / "t")
        back = read_tags(tmp_path / "t", config)
        assert back.station1.pair_id is None
        assert_same_as_reference(config, [5.0, 50.0, 500.0, np.inf], back, "stream")

    def test_stream_splits_only_the_events_still_contested(self, monkeypatch):
        # Each split after the first, at the largest window, receives exactly
        # the events the split at the window above left contested.
        config = ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=3000, seed=5,
                                  emission=EmissionSpec.poisson(2e-4))
        log = run_experiment(config)
        calls = []
        split = eprsim.coincidence._split

        def recorded(t1, t2, window):
            result = split(t1, t2, window)
            calls.append((t1, result[1]))
            return result

        monkeypatch.setattr(eprsim.coincidence, "_split", recorded)
        window_sweep(config, np.geomspace(1.0, 1000.0, 20), policy="stream", log=log)
        assert len(calls) > 2
        assert len(calls[0][0]) == len(log.station1)
        for (t1, contested), (next_t1, _) in zip(calls, calls[1:]):
            np.testing.assert_array_equal(next_t1, t1[contested])

    def test_stream_sorts_each_station_once(self, monkeypatch):
        config = ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=3000, seed=21)
        log = run_experiment(config)
        sorted_stations = []
        time_order = StationStream.time_order

        def counted(stream):
            sorted_stations.append(stream.station)
            return time_order(stream)

        monkeypatch.setattr(StationStream, "time_order", counted)
        window_sweep(config, [5.0, 50.0, 500.0, np.inf], policy="stream", log=log)
        assert sorted(sorted_stations) == [1, 2]

    @pytest.mark.parametrize("windows", [[1e3], [np.inf], [5.0, 50.0, 500.0, np.inf]])
    @pytest.mark.parametrize("policy", ["paired", "stream"])
    def test_fixed_grids(self, policy, windows):
        config = ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=3000, seed=21)
        assert_same_as_reference(config, windows, run_experiment(config), policy)

    # Two pairs in each of the four cells, at |dt| 1 and 2.
    CELLS = [(1, 0, 0), (2, 0, 0), (1, 0, 1), (2, 0, 1), (1, 1, 0), (2, 1, 0), (1, 1, 1), (2, 1, 1)]

    def log_with(self, extra=(), drop_cell_11=False, pid2="same"):
        """The four cells plus ``extra`` (|dt|, i1, i2) pairs, 1e4 apart, with mixed outcomes.

        ``drop_cell_11`` moves cell (1, 1) to |dt| 4; ``pid2`` replaces
        station 2's pair ids.
        """
        cells = self.CELLS[:6] + [(4, 1, 1)] * 2 if drop_cell_11 else self.CELLS
        dts, i1, i2 = (np.array(col) for col in zip(*cells, *extra))
        n = len(dts)
        t1 = np.arange(n) * 1e4
        x = np.where(np.arange(n) % 3 == 0, 1, -1).astype(np.int8)
        pid = np.arange(n)
        return EventLog(StationStream(1, t1, i1.astype(np.int16), x, pid),
                        StationStream(2, t1 + dts, i2.astype(np.int16), -x, pid if isinstance(pid2, str) else pid2))

    @pytest.mark.parametrize(
        "windows, log_args, message",
        [
            # A bad first window is reported before the missing pair ids.
            ([-1.0, 5.0], dict(pid2=None), "window must be >= 0, got -1.0"),
            ([np.nan], dict(pid2=None), "window must be >= 0, got nan"),
            ([5.0], dict(pid2=None), "per-pair filtering needs pair ids"),
            ([5.0], dict(pid2=np.arange(8)[::-1].copy()), "mismatched pair_id columns"),
            # Nothing at the first window, an out-of-range index at the second.
            ([0.5, 5.0], dict(extra=[(3, 2, 0)]), "cannot tabulate an empty coincidence list"),
            ([2.0, 5.0], dict(extra=[(3, 2, 0)]), "setting index out of range"),
            ([2.0, 5.0], dict(extra=[(3, 0, -1)]), "setting index out of range"),
            ([2.0, 3.0, 5.0], dict(extra=[(5, 0, 7)]), "setting index out of range"),
            # A missing cell at the first window beats a bad index at the second ...
            ([2.0, 5.0], dict(extra=[(3, 2, 0)], drop_cell_11=True),
             r"missing combination: no coincidences for setting pair \(1,1\)"),
            # ... but not a bad index at the same window.
            ([2.0, 5.0], dict(extra=[(1, 2, 0)], drop_cell_11=True), "setting index out of range"),
        ],
    )
    def test_rejects_what_the_reference_rejects(self, windows, log_args, message):
        config = ExperimentConfig(n_pairs=10, seed=0)
        log = self.log_with(**log_args)
        with pytest.raises(ValidationError, match=message) as new:
            window_sweep(config, windows, log=log)
        with pytest.raises(ValidationError) as ref:
            sweep_reference(config, windows, log=log)
        assert str(new.value) == str(ref.value)

    def contested_log(self, i1):
        """``log_with`` plus station-1 events at t and t + 1 and station-2 tags at t + 4 and t + 5.

        Both events compete for both tags from window 4 on; the scan gives
        the second event (station-1 setting ``i1``) the tag at t + 5.
        """
        log = self.log_with(extra=[(4, 0, 0), (4, i1, 0)])
        t = log.station1.time_tag[-2]
        log.station1.time_tag[-1] = t + 1
        log.station2.time_tag[-1] = t + 5
        return log

    @pytest.mark.parametrize(
        "windows, log, message",
        [
            ([-1.0, 5.0], "plain", "window must be >= 0, got -1.0"),
            ([np.nan], "plain", "window must be >= 0, got nan"),
            ([0.5, 5.0], "plain", "cannot tabulate an empty coincidence list"),
            # An out-of-range index first kept at the second window, on an
            # event uncontested at the largest window and on a contested one.
            ([2.0, 5.0], "uncontested", "setting index out of range"),
            ([2.0, 5.0], "contested", "setting index out of range"),
            ([2.0, 5.0, 8.0], "contested", "setting index out of range"),
            # Every coincidence of the first window has an out-of-range index.
            ([0.5, 5.0], "only outside", "setting index out of range"),
        ],
    )
    def test_stream_rejects_what_the_reference_rejects(self, windows, log, message):
        config = ExperimentConfig(n_pairs=10, seed=0)
        log = {"plain": self.log_with, "uncontested": lambda: self.log_with(extra=[(3, 2, 0)]),
               "contested": lambda: self.contested_log(2),
               "only outside": lambda: self.log_with(extra=[(0.25, 2, 0)])}[log]()
        with pytest.raises(ValidationError, match=message) as new:
            window_sweep(config, windows, policy="stream", log=log)
        with pytest.raises(ValidationError) as ref:
            sweep_reference(config, windows, policy="stream", log=log)
        assert str(new.value) == str(ref.value)

    def test_contested_events_counted_at_every_window(self):
        config = ExperimentConfig(n_pairs=10, seed=0)
        assert_same_as_reference(config, [2.0, 4.5, 5.0, 8.0], self.contested_log(1), "stream")

    def test_unknown_policy_rejected_like_the_reference(self):
        # The policy is rejected before the first window is checked.
        config = ExperimentConfig(n_pairs=10, seed=0)
        log = self.log_with()
        for windows in ([5.0], [-1.0]):
            with pytest.raises(ValidationError, match="unknown match policy") as new:
                window_sweep(config, windows, policy="hardware", log=log)
            with pytest.raises(ValidationError) as ref:
                sweep_reference(config, windows, policy="hardware", log=log)
            assert str(new.value) == str(ref.value)

    def test_unused_setting_listed_as_empty_at_every_window(self):
        config = ExperimentConfig(settings1=(0.0, np.pi / 4, np.pi / 2), n_pairs=10, seed=0)
        sweep = window_sweep(config, [1.0, 5.0], log=self.log_with())
        assert sweep.empty_cells == [[(2, 0), (2, 1)]] * 2

    def test_index_outside_config_that_no_window_keeps_is_never_binned(self):
        # Binned, index 2 or -1 would land outside the histogram or in
        # another cell; the per-window sweep never reads these pairs.
        config = ExperimentConfig(n_pairs=10, seed=0)
        log = self.log_with(extra=[(50, 2, 0), (60, 0, -1), (70, 300, 1)])
        assert_same_as_reference(config, [1.0, 2.0, 10.0], log)


def reference_tables(log, windows, config):
    """``tabulate(pair_filter(log, w), config)`` window by window."""
    return (tabulate(match_events(log, float(w)), config) for w in windows)


def tables_until_error(tables):
    """The count tables a table generator yields, and the message it raises (or None)."""
    counts = []
    try:
        for table in tables:
            counts.append(table.counts)
    except ValidationError as exc:
        return counts, str(exc)
    return counts, None


class TestBlockedPass:
    """The paired sweep's histogram, one per thread over blocks of ``_BLOCK_PAIRS`` pairs."""

    N_PAIRS = 2 * _BLOCK_PAIRS + 1  # two full blocks and one of a single pair
    WINDOWS = np.array([5.0, 50.0, 500.0, np.inf])

    @pytest.fixture(params=[1, 2, 3])
    def cpus(self, request, monkeypatch):
        """Patch the CPU count; ``cpus()`` starts recording the thread pool sizes the passes ask for.

        Tests call it once their log is generated, so that generation's
        pool does not count.  The log has three blocks, so the pass asks
        for one thread per CPU; on one CPU its one range runs inline, with
        no pool.
        """
        sizes = []

        class Recorder(eprsim.events.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: request.param)
        yield lambda: monkeypatch.setattr(eprsim.events, "ThreadPoolExecutor", Recorder)
        assert set(sizes) == ({request.param} if request.param > 1 else set())

    def config(self, emission=None):
        return ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), settings1=(0.0, np.pi / 4, np.pi / 2),
                                n_pairs=self.N_PAIRS, seed=8, emission=emission)

    @pytest.mark.parametrize("emission", [None, EmissionSpec.poisson(0.002)], ids=["regular", "poisson"])
    def test_tables_equal_the_reference(self, cpus, emission):
        config = self.config(emission)
        log = run_experiment(config)
        cpus()
        new, new_error = tables_until_error(_sweep_tables(log, self.WINDOWS, config, "paired"))
        ref, ref_error = tables_until_error(reference_tables(log, self.WINDOWS, config))
        assert new_error is ref_error is None
        assert len(new) == len(ref) == len(self.WINDOWS)
        for a, b in zip(new, ref):
            np.testing.assert_array_equal(a, b)
        assert_same_as_reference(config, self.WINDOWS, log)

    def test_out_of_range_index_in_the_last_block_raises_at_its_window(self, cpus):
        # Index 2 in the last block's one pair (|dt| 100, kept from window 2)
        # and in a first-block pair kept only from window 3: the pass raises
        # at window 2, as the per-window reference does.
        config = replace(self.config(), settings1=(0.0, np.pi / 4))
        log = run_experiment(config)
        s1, s2 = log.station1, log.station2
        s2.time_tag[-1] = s1.time_tag[-1] + 100.0
        dt = np.abs(s2.time_tag - s1.time_tag)
        first_block_late = int(np.flatnonzero(dt[:_BLOCK_PAIRS] > 500.0)[0])
        s1.setting_index[[first_block_late, -1]] = 2
        cpus()
        new = tables_until_error(_sweep_tables(log, self.WINDOWS, config, "paired"))
        ref = tables_until_error(reference_tables(log, self.WINDOWS, config))
        assert len(new[0]) == len(ref[0]) == 2
        assert new[1] == ref[1] == "setting index out of range for the supplied config"
        for a, b in zip(new[0], ref[0]):
            np.testing.assert_array_equal(a, b)

    def test_no_temporary_grows_with_the_log(self, monkeypatch):
        # Two threads at both sizes, so that per-thread block buffers cancel.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        windows = np.geomspace(1.0, 1000.0, 20)

        def peak_above_log(n_pairs):
            config = replace(self.config(), n_pairs=n_pairs)
            log = run_experiment(config)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                window_sweep(config, windows, log=log)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        small = peak_above_log(200_000)
        assert peak_above_log(800_000) <= small + 4e6
