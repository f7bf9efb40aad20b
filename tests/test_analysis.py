"""Count cube, CHSH, and window-sweep tests."""

import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eprsim.coincidence
import eprsim.events
from eprsim import (
    DEFAULT_QUADRUPLE,
    EmissionSpec,
    EventLog,
    ExperimentConfig,
    ModelParams,
    StationStream,
    SweepResult,
    ValidationError,
    chsh_combination,
    read_tags,
    run_experiment,
    singlet_correlation,
    window_sweep,
    write_tags,
)
from eprsim.events import SEGMENT_PAIRS
from references import (
    cells_reference,
    chsh_reference,
    indices_reference,
    paired_reference,
    stream_reference,
    table_reference,
)
from test_events import record_pool_sizes, segments_of


def tabulate(log, config, policy="paired", cell=(0, 0)):
    """The sweep of every coincidence of ``log`` at window 0, its four CHSH cells all at setting pair ``cell``.

    The sweep's own selection, binning and checks, on a grid of one; the
    quadruple (a, a, b, b) of the cell's two angles needs only that cell
    filled.
    """
    a, b = config.settings1[cell[0]], config.settings2[cell[1]]
    return window_sweep(config, [0.0], (a, a, b, b), policy, log=log)


def log_from_counts(cells):
    """A log, all tags 0, whose pairs realize given per-cell counts.

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

    return EventLog(stream(1, s1, x1), stream(2, s2, x2))


def config_sized(n1, n2):
    """A config with ``n1`` and ``n2`` distinct setting angles."""
    return ExperimentConfig(settings1=tuple(0.1 * np.arange(n1)), settings2=tuple(0.1 * np.arange(n2) + 0.05),
                            n_pairs=10, seed=0)


def tabulate_counts(cells, cell=(0, 0)):
    """``tabulate`` of ``log_from_counts(cells)`` with a config sized to the cells' indices."""
    n1 = max((i for i, _ in cells), default=0) + 1
    n2 = max((j for _, j in cells), default=0) + 1
    return tabulate(log_from_counts(cells), config_sized(n1, n2), cell=cell)


class TestTabulate:
    def test_perfect_correlation(self):
        sweep = tabulate_counts({(0, 0): (10, 0, 0, 10)})
        assert sweep.correlation[0, 0, 0] == 1.0
        assert sweep.stderr[0, 0, 0] == 0.0

    def test_perfect_anticorrelation(self):
        sweep = tabulate_counts({(0, 0): (0, 10, 10, 0)})
        assert sweep.correlation[0, 0, 0] == -1.0

    def test_null_correlation_stderr(self):
        sweep = tabulate_counts({(0, 0): (5, 5, 5, 5)})
        assert sweep.correlation[0, 0, 0] == 0.0
        assert sweep.stderr[0, 0, 0] == pytest.approx(np.sqrt(1.0 / 20.0))

    def test_counts_axes(self):
        sweep = tabulate_counts({(0, 1): (1, 2, 3, 4)}, cell=(0, 1))
        np.testing.assert_array_equal(sweep.counts[0, 0, 1], [[1, 2], [3, 4]])
        assert sweep.n_total[0, 0, 1] == 10

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            tabulate_counts({})

    def test_empty_cell_reported_distinctly(self):
        # The CHSH cells are full; the third station-1 setting meets only the second station-2 setting.
        cfg = ExperimentConfig(settings1=(*DEFAULT_QUADRUPLE[:2], 1.0), settings2=DEFAULT_QUADRUPLE[2:],
                               n_pairs=10, seed=0)
        full = {(i, j): (2, 1, 1, 2) for i in range(2) for j in range(2)}
        log = log_from_counts({**full, (2, 1): (1, 0, 0, 1)})
        sweep = window_sweep(cfg, [0.0], log=log)
        assert sweep.counts.shape == (1, 3, 2, 2, 2)
        assert sweep.empty_cells == [[(2, 0)]]
        assert np.isnan(sweep.correlation[0, 2, 0])
        assert np.isnan(sweep.stderr[0, 2, 0])
        assert not np.isnan(sweep.correlation[0, 2, 1])

    def test_reads_columns_through_rows(self):
        # Station 2 lists the same two events in the other row order, so the
        # stream policy matches rows1 [0, 1] with rows2 [1, 0]; coincidence k
        # must read station 2 at rows2[k], not at rows1[k].
        log = EventLog(
            StationStream(1, np.array([0.0, 10.0]), np.array([0, 1], dtype=np.int16), np.array([1, -1], dtype=np.int8)),
            StationStream(2, np.array([10.0, 0.0]), np.array([1, 0], dtype=np.int16), np.array([-1, 1], dtype=np.int8)),
        )
        sweep = tabulate(log, config_sized(2, 2), "stream")
        np.testing.assert_array_equal(sweep.counts[0, 0, 0], [[1, 0], [0, 0]])
        np.testing.assert_array_equal(sweep.counts[0, 1, 1], [[0, 0], [0, 1]])
        assert sweep.n_total[0].sum() == 2

    def test_index_outside_config_rejected(self):
        cfg = ExperimentConfig(settings1=(0.0,), settings2=(0.5,), n_pairs=10, seed=0)
        for cell in ((1, 0), (0, -1), (-1, 0)):  # a negative index must not wrap into another cell
            with pytest.raises(ValidationError, match="out of range"):
                tabulate(log_from_counts({cell: (1, 0, 0, 0)}), cfg)


def table_from_correlation(quadruple, correlation, n=10**9):
    """Exact-probability (2, 2, 2, 2) counts (scaled to large n) for a correlation function."""
    a, ap, b, bp = quadruple
    counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
    for i, s1 in enumerate((a, ap)):
        for j, s2 in enumerate((b, bp)):
            e = correlation(s1, s2)
            same = int(round(n * (1 + e) / 4))
            diff = int(round(n * (1 - e) / 4))
            counts[i, j] = [[same, diff], [diff, same]]
    return counts


# Settings (a, a') and (b, b') of the default quadruple at indices 0 and 1.
QUADRUPLE_CONFIG = ExperimentConfig(settings1=DEFAULT_QUADRUPLE[:2], settings2=DEFAULT_QUADRUPLE[2:], n_pairs=10, seed=0)


def chsh_of_table(counts, quadruple=DEFAULT_QUADRUPLE):
    """The one-window sweep of a synthetic count table of ``QUADRUPLE_CONFIG`` at ``quadruple``.

    ``window_sweep`` looks the quadruple's cells up on a log with one
    coincidence in every cell; the result holds ``counts`` at those cells.
    """
    log = log_from_counts({(i, j): (1, 0, 0, 0) for i in range(2) for j in range(2)})
    cells = window_sweep(QUADRUPLE_CONFIG, [0.0], quadruple, log=log).cells
    return SweepResult(windows=np.zeros(1), counts=counts[None], n_pairs=int(counts.sum()), cells=cells)


class TestChsh:
    def test_singlet_reaches_tsirelson(self):
        sweep = chsh_of_table(table_from_correlation(DEFAULT_QUADRUPLE, singlet_correlation))
        assert sweep.s[0] == pytest.approx(2.0 * np.sqrt(2.0), abs=5e-9)

    def test_null_table(self):
        assert chsh_of_table(table_from_correlation(DEFAULT_QUADRUPLE, lambda a, b: 0.0)).s[0] == 0.0

    def test_half_singlet(self):
        sweep = chsh_of_table(table_from_correlation(DEFAULT_QUADRUPLE, lambda a, b: 0.5 * singlet_correlation(a, b)))
        assert sweep.s[0] == pytest.approx(np.sqrt(2.0), abs=2e-8)

    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.0], ids=["singlet", "half-singlet", "null"])
    def test_equals_the_scalar_reference(self, scale):
        counts = table_from_correlation(DEFAULT_QUADRUPLE, lambda a, b: scale * singlet_correlation(a, b))
        sweep = chsh_of_table(counts)
        s, s_stderr = chsh_reference(counts, cells_reference(QUADRUPLE_CONFIG, DEFAULT_QUADRUPLE))
        assert (sweep.s.tolist(), sweep.s_stderr.tolist()) == ([s], [s_stderr])

    def test_error_propagates_in_quadrature(self):
        cells = {(i, j): (5, 5, 5, 5) for i in range(2) for j in range(2)}
        sweep = window_sweep(QUADRUPLE_CONFIG, [0.0], log=log_from_counts(cells))
        assert sweep.s_stderr[0] == pytest.approx(np.sqrt(4 * (1.0 / 20.0)))

    def test_missing_angle_rejected(self):
        with pytest.raises(ValidationError, match="missing combination"):
            chsh_of_table(table_from_correlation(DEFAULT_QUADRUPLE, singlet_correlation),
                          (0.0, np.pi / 4, np.pi / 8, 0.77))

    def test_empty_combination_rejected(self):
        cells = {(i, j): (5, 5, 5, 5) for i in range(2) for j in range(2) if (i, j) != (1, 1)}
        with pytest.raises(ValidationError, match="missing combination"):
            window_sweep(QUADRUPLE_CONFIG, [0.0], log=log_from_counts(cells))

    def test_ambiguous_angle_rejected(self):
        # 0 and 180 degrees are one setting mod pi: quadruple angle a would match both.
        config = ExperimentConfig(settings1=(0.0, np.pi, np.pi / 4), settings2=DEFAULT_QUADRUPLE[2:],
                                  n_pairs=10, seed=0)
        log = log_from_counts({(i, j): (1, 0, 0, 0) for i in range(3) for j in range(2)})
        with pytest.raises(ValidationError, match="ambiguous combination: angle 0.0 matches station-1 settings "
                                                  "0 and 1 of") as new:
            window_sweep(config, [0.0], log=log)
        with pytest.raises(ValidationError) as ref:
            cells_reference(config, DEFAULT_QUADRUPLE)
        assert str(new.value) == str(ref.value)

    def test_angle_matching_mod_pi(self):
        shifted = (np.pi, np.pi / 4 + np.pi, np.pi / 8 - np.pi, 3 * np.pi / 8)
        sweep = chsh_of_table(table_from_correlation(DEFAULT_QUADRUPLE, singlet_correlation), shifted)
        assert sweep.s[0] == pytest.approx(2.0 * np.sqrt(2.0), abs=5e-9)

    @pytest.mark.parametrize("a", [1e-12, -1e-12])
    def test_angle_matching_wraps_at_pi(self, a):
        # -1e-12 rad reduces to just below pi, which is 1e-12 from setting 0 on the circle.
        table = table_from_correlation(DEFAULT_QUADRUPLE, singlet_correlation)
        wrapped, plain = chsh_of_table(table, (a, *DEFAULT_QUADRUPLE[1:])), chsh_of_table(table)
        assert wrapped.cells == plain.cells == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert (wrapped.s, wrapped.s_stderr) == (plain.s, plain.s_stderr)

    def test_combination_formula(self):
        assert chsh_combination(-0.5, 0.5, -0.5, -0.5) == 2.0


def chsh_cube(e, n):
    """A count cube over ``len(e)`` windows and 2 x 2 settings, and its CHSH cells.

    Window k holds ``n[k]`` coincidences in each cell, at E = e[k], but
    E(a,b') = -e[k]; so S = 4 e[k].  Each n[k] (1 + e[k]) / 2 must be an
    integer.
    """
    counts = np.zeros((len(e), 2, 2, 2, 2), dtype=np.int64)
    for k, (ek, nk) in enumerate(zip(e, n)):
        same, diff = round(nk * (1 + ek) / 2), round(nk * (1 - ek) / 2)
        counts[k] = [[same, diff], [0, 0]]
        counts[k, 0, 1] = [[diff, same], [0, 0]]
    return counts, ((0, 0), (0, 1), (1, 0), (1, 1))


class TestSweepResult:
    def test_crossings(self):
        counts, cells = chsh_cube([0.6, 0.55, 0.45, 0.4], [20, 40, 80, 160])
        sweep = SweepResult(windows=np.array([1.0, 2.0, 4.0, 8.0]), counts=counts, n_pairs=800, cells=cells)
        np.testing.assert_allclose(sweep.s, [2.4, 2.2, 1.8, 1.6], rtol=1e-14)
        assert sweep.crossings() == [(2.0, 4.0)]
        assert sweep.matched.tolist() == [80, 160, 320, 640]
        assert sweep.rate.tolist() == [0.1, 0.2, 0.4, 0.8]
        assert sweep.empty_cells == [[]] * 4

    def test_crossings_from_and_at_the_bound(self):
        # S = 2 exactly at the second window: 2.4 -> 2 is a crossing, 2 -> 1.6 is not.
        counts, cells = chsh_cube([0.6, 0.5, 0.4], [20, 20, 20])
        sweep = SweepResult(windows=np.array([1.0, 2.0, 4.0]), counts=counts, n_pairs=80, cells=cells)
        assert sweep.s[1] == 2.0
        assert sweep.crossings() == [(1.0, 2.0)]

    def test_empty_chsh_cell_gives_nan(self):
        counts, cells = chsh_cube([0.6, 0.4], [20, 20])
        counts[0, 1, 1] = 0
        sweep = SweepResult(windows=np.array([1.0, 2.0]), counts=counts, n_pairs=80, cells=cells)
        assert np.isnan(sweep.s[0]) and np.isnan(sweep.s_stderr[0])
        assert sweep.s[1] == pytest.approx(1.6)
        assert sweep.empty_cells == [[(1, 1)], []]


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

    Kept (but for returning the three arrays, for selecting, checking,
    counting and computing S with the test-only references, which share
    no code with the sweep's walk, ``pair_window_index``, ``_bin``,
    ``chsh_cells`` or ``SweepResult``, and for checking every setting
    index and the quadruple before the first window) as the reference
    that both one-pass sweeps, paired and stream, must reproduce exactly.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 1 or len(windows) == 0:
        raise ValidationError("windows must be a non-empty 1-D sequence")
    if not np.all(windows[1:] > windows[:-1]):  # "not >" so that a NaN or a repeated inf fails too
        raise ValidationError("window values must be strictly increasing")
    if log is None:
        log = run_experiment(config)
    select = {"paired": paired_reference, "stream": stream_reference}.get(policy)
    if select is None:
        raise ValidationError(f"unknown match policy {policy!r}")
    select(log, float(windows[0]))  # the policy's checks, which no larger window can fail
    indices_reference(log, config)
    cells = cells_reference(config, quadruple)
    s_vals = np.empty(len(windows))
    s_errs = np.empty(len(windows))
    rates = np.empty(len(windows))
    for k, w in enumerate(windows):
        rows1, rows2 = select(log, float(w))
        rates[k] = len(rows1) / log.n_pairs
        s_vals[k], s_errs[k] = chsh_reference(table_reference(log, rows1, rows2, config), cells)
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


# The default quadruple with b' = 0.77 rad, which no default station-2 setting matches.
MISSING_B = (*DEFAULT_QUADRUPLE[:3], 0.77)


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

    @settings(max_examples=25, deadline=None)
    @given(sweep_inputs(), st.integers(20, 700))
    def test_stream_over_segments_equals_per_window_reference(self, inputs, size):
        # Segment edges fall anywhere, inside clusters too, and windows sit on or one ulp below a |dt|.
        config, windows, log = inputs
        sweep = window_sweep(config, windows, policy="stream", log=segments_of(config, size))
        s, s_stderr, rate = sweep_reference(config, windows, policy="stream", log=log)
        assert np.array_equal(sweep.s, s) and np.array_equal(sweep.s_stderr, s_stderr)
        assert np.array_equal(sweep.rate, rate)

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
        # Each window's splits after the first window's, at the largest,
        # receive exactly the events the splits at the window above left
        # contested.
        config = ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=3000, seed=5,
                                  emission=EmissionSpec.poisson(2e-4))
        log = run_experiment(config)
        calls = {}  # per window, from the largest down: the events split and the contested mask of each block
        settle = eprsim.coincidence._settle

        def recorded(t1, t2, window, a, b):
            result = settle(t1, t2, window, a, b)
            calls.setdefault(window, (t1, []))[1].append(result[1])
            return result

        monkeypatch.setattr(eprsim.coincidence, "_settle", recorded)
        window_sweep(config, np.geomspace(1.0, 1000.0, 20), policy="stream", log=log)
        calls = [(t1, np.concatenate(contested)) for t1, contested in calls.values()]
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
        "windows, log_args, message, quadruple",
        [
            # A bad first window is reported before the missing pair ids.
            ([-1.0, 5.0], dict(pid2=None), "window must be >= 0, got -1.0", DEFAULT_QUADRUPLE),
            ([np.nan], dict(pid2=None), "window must be >= 0, got nan", DEFAULT_QUADRUPLE),
            ([5.0], dict(pid2=None), "per-pair filtering needs pair ids", DEFAULT_QUADRUPLE),
            ([5.0], dict(pid2=np.arange(8)[::-1].copy()), "mismatched pair_id columns", DEFAULT_QUADRUPLE),
            # An out-of-range index is rejected before any window is counted:
            # before an empty first window, whichever window first keeps it ...
            ([0.5, 5.0], dict(extra=[(3, 2, 0)]), "setting index out of range", DEFAULT_QUADRUPLE),
            ([2.0, 5.0], dict(extra=[(3, 2, 0)]), "setting index out of range", DEFAULT_QUADRUPLE),
            ([2.0, 5.0], dict(extra=[(3, 0, -1)]), "setting index out of range", DEFAULT_QUADRUPLE),
            ([2.0, 3.0, 5.0], dict(extra=[(5, 0, 7)]), "setting index out of range", DEFAULT_QUADRUPLE),
            # ... and before a missing cell at the first window, kept at the second window or at the first.
            ([2.0, 5.0], dict(extra=[(3, 2, 0)], drop_cell_11=True), "setting index out of range", DEFAULT_QUADRUPLE),
            ([2.0, 5.0], dict(extra=[(1, 2, 0)], drop_cell_11=True), "setting index out of range", DEFAULT_QUADRUPLE),
            # An angle missing from the settings is rejected before an empty first window, and with a filled one.
            ([0.5, 5.0], {}, "missing combination: angle 0.77 not among station-2 settings", MISSING_B),
            ([2.0, 5.0], {}, "missing combination: angle 0.77 not among station-2 settings", MISSING_B),
            # The policy's checks come before the setting indices, and the indices before the angles.
            ([-1.0, 5.0], dict(extra=[(3, 2, 0)]), "window must be >= 0, got -1.0", DEFAULT_QUADRUPLE),
            ([5.0], dict(extra=[(3, 2, 0)], pid2=None), "per-pair filtering needs pair ids", DEFAULT_QUADRUPLE),
            ([2.0, 5.0], dict(extra=[(3, 2, 0)]), "setting index out of range", MISSING_B),
        ],
    )
    def test_rejects_what_the_reference_rejects(self, windows, log_args, message, quadruple):
        config = ExperimentConfig(n_pairs=10, seed=0)
        log = self.log_with(**log_args)
        with pytest.raises(ValidationError, match=message) as new:
            window_sweep(config, windows, quadruple, log=log)
        with pytest.raises(ValidationError) as ref:
            sweep_reference(config, windows, quadruple, log=log)
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
            # event uncontested at the largest window and on a contested one:
            # rejected before any window is counted.
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
        # another cell.  No window keeps these pairs, yet either policy
        # rejects each of them before it counts, as the reference does.
        config = ExperimentConfig(n_pairs=10, seed=0)
        windows = [1.0, 2.0, 10.0]
        for policy in ("paired", "stream"):
            assert_same_as_reference(config, windows, self.log_with(), policy)
            for extra in ([(50, 2, 0)], [(60, 0, -1)], [(70, 300, 1)]):
                log = self.log_with(extra=extra)
                with pytest.raises(ValidationError) as new:
                    window_sweep(config, windows, policy=policy, log=log)
                with pytest.raises(ValidationError) as ref:
                    sweep_reference(config, windows, policy=policy, log=log)
                assert str(new.value) == str(ref.value) == "setting index out of range for the supplied config"


def reference_tables(log, windows, config):
    """The per-pair rule's count table, window by window, from the references."""
    return (table_reference(log, *paired_reference(log, float(w)), config) for w in windows)


class TestBlockedPass:
    """The paired sweep's one histogram, over blocks of ``SEGMENT_PAIRS`` pairs on the calling thread."""

    N_PAIRS = 2 * SEGMENT_PAIRS + 1  # two full blocks and one of a single pair
    WINDOWS = np.array([5.0, 50.0, 500.0, np.inf])

    def config(self, emission=None):
        return ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), settings1=(0.0, np.pi / 4, np.pi / 2),
                                n_pairs=self.N_PAIRS, seed=8, emission=emission)

    @pytest.fixture(params=[1, 2, 3])
    def cpus(self, request, monkeypatch):
        """Patch the CPU count: the sweep's counts and its one thread must not depend on it."""
        monkeypatch.setattr(os, "cpu_count", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("emission", [None, EmissionSpec.poisson(0.002)], ids=["regular", "poisson"])
    def test_tables_equal_the_reference(self, cpus, emission, monkeypatch):
        config = self.config(emission)
        log = run_experiment(config)
        # Recorded once the log is generated, so that generation's pool does not count.
        sizes = record_pool_sizes(monkeypatch)
        new = window_sweep(config, self.WINDOWS, log=log).counts
        assert sizes == []
        ref = list(reference_tables(log, self.WINDOWS, config))
        assert len(new) == len(ref) == len(self.WINDOWS)
        for a, b in zip(new, ref):
            np.testing.assert_array_equal(a, b)
        assert_same_as_reference(config, self.WINDOWS, log)

    def test_out_of_range_index_in_the_last_block_raises_at_its_window(self, cpus):
        # Index 2 in the last block's one pair (|dt| 100, kept from window 2)
        # and in a first-block pair kept only from window 3: the sweep
        # rejects the log before it counts, and the per-window reference
        # rejects it before its first window.
        config = replace(self.config(), settings1=(0.0, np.pi / 4))
        log = run_experiment(config)
        s1, s2 = log.station1, log.station2
        s2.time_tag[-1] = s1.time_tag[-1] + 100.0
        dt = np.abs(s2.time_tag - s1.time_tag)
        first_block_late = int(np.flatnonzero(dt[:SEGMENT_PAIRS] > 500.0)[0])
        s1.setting_index[[first_block_late, -1]] = 2
        with pytest.raises(ValidationError) as new:
            window_sweep(config, self.WINDOWS, log=log)
        with pytest.raises(ValidationError) as ref:
            sweep_reference(config, self.WINDOWS, log=log)
        assert str(new.value) == str(ref.value) == "setting index out of range for the supplied config"

    def test_no_temporary_grows_with_the_log(self):
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

        # A temporary of one byte a pair would add 6e5 bytes at the larger log.
        small = peak_above_log(200_000)
        assert peak_above_log(800_000) <= small + 1e5


class TestSegments:
    """The paired sweep over consecutive segments of one run, as the CLI streams them."""

    N_PAIRS, WINDOWS = TestBlockedPass.N_PAIRS, TestBlockedPass.WINDOWS
    config = TestBlockedPass.config

    def segments(self, config, size, workers=1):
        """``run_experiment`` over consecutive ``size``-pair segments, generated as they are taken."""
        return segments_of(config, size, workers)

    @pytest.mark.parametrize("size, workers", [(SEGMENT_PAIRS, 1), (SEGMENT_PAIRS, 2), (5000, 3), (N_PAIRS, 1)],
                             ids=["blocks", "blocks-2", "unaligned-3", "one"])
    def test_equal_the_whole_log(self, size, workers):
        config = self.config()
        whole = window_sweep(config, self.WINDOWS, log=run_experiment(config))
        streamed = window_sweep(config, self.WINDOWS, log=self.segments(config, size, workers))
        assert streamed.n_pairs == whole.n_pairs == config.n_pairs
        assert streamed.counts.dtype == whole.counts.dtype
        np.testing.assert_array_equal(streamed.counts, whole.counts)
        assert streamed.cells == whole.cells

    def test_in_order_on_more_threads_than_cores(self, monkeypatch):
        # 27 segments on 8 threads, switching threads as often as the interpreter can:
        # a segment binned out of order or twice would change the counts.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(eprsim.events, "SEGMENT_PAIRS", 5000)
        config = self.config()
        n = config.n_pairs

        def segment(start, stop):
            return run_experiment(config, 1, pairs=range(start, stop))

        segments = eprsim.events.map_ranges(segment, n, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            streamed = window_sweep(config, self.WINDOWS, log=segments)
        finally:
            sys.setswitchinterval(interval)
        whole = window_sweep(config, self.WINDOWS, log=run_experiment(config))
        np.testing.assert_array_equal(streamed.counts, whole.counts)
        assert streamed.n_pairs == n

    def test_every_segment_is_checked(self):
        # An index outside the config in the last segment's one pair raises like it does in one log.
        config = replace(self.config(), settings1=(0.0, np.pi / 4))
        segments = list(self.segments(config, SEGMENT_PAIRS))
        segments[-1].station1.setting_index[-1] = 2
        with pytest.raises(ValidationError, match="^setting index out of range for the supplied config$"):
            window_sweep(config, self.WINDOWS, log=iter(segments))
        segments[-1].station1.setting_index[-1] = 0
        segments[1].station2.pair_id = segments[1].station2.pair_id.copy()
        segments[1].station2.pair_id[0] += 1
        with pytest.raises(ValidationError, match="pair"):
            window_sweep(config, self.WINDOWS, log=iter(segments))

    @pytest.mark.parametrize("emission", [None, EmissionSpec.poisson(0.002)], ids=["regular", "poisson"])
    @pytest.mark.parametrize("size", [SEGMENT_PAIRS, 5000], ids=["blocks", "unaligned"])
    def test_stream_policy_equals_the_whole_log(self, emission, size):
        # The stream walk takes the run's segments in time order, carrying the rows a later segment
        # may precede and holding back the events whose ranges may reach later tags.
        config = self.config(emission)
        windows = self.WINDOWS[:-1]
        whole = window_sweep(config, windows, policy="stream", log=run_experiment(config))
        streamed = window_sweep(config, windows, policy="stream", log=self.segments(config, size))
        assert streamed.n_pairs == whole.n_pairs == config.n_pairs
        np.testing.assert_array_equal(streamed.counts, whole.counts)

    def test_no_segment_rejected(self):
        with pytest.raises(ValidationError, match="no log segment"):
            window_sweep(self.config(), self.WINDOWS, log=iter(()))
