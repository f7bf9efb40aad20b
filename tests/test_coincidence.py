"""Coincidence-selection tests for both policies, the per-pair rule and the stream matcher.

A window is a grid of one: the tests select at one window through the
window sweep's own functions, ``pair_window_index`` and the walk of
``stream_window_index``.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eprsim import (
    EmissionSpec,
    EventLog,
    ExperimentConfig,
    ModelParams,
    StationStream,
    ValidationError,
    run_experiment,
)
from eprsim import coincidence
from eprsim.analysis import window_sweep
from eprsim.cli import parse_windows
from eprsim.coincidence import _settle, check_pair_filter, pair_window_index, stream_window_index
from references import paired_reference, scan_reference, stream_reference
from test_events import segments_of


def tiny_log(times1, times2, pair_ids=True):
    """Hand-built log in pair order: row k is pair k; settings 0, outcomes +1."""

    def stream(station, times):
        n = len(times)
        return StationStream(
            station=station,
            time_tag=np.asarray(times, dtype=float),
            setting_index=np.zeros(n, dtype=np.int16),
            outcome=np.ones(n, dtype=np.int8),
            pair_id=np.arange(n, dtype=np.int64) if pair_ids else None,
        )

    return EventLog(station1=stream(1, times1), station2=stream(2, times2))


def paired(log, window):
    """The rows the paired policy keeps at ``window``: the pairs whose first window on a grid of one is 0."""
    check_pair_filter(log)
    rows = np.flatnonzero(pair_window_index(log, np.array([window]), slice(None)) == 0)
    return rows, rows


def stream(log, window):
    """The rows the stream policy matches at ``window``: every group of the walk on a grid of one, concatenated."""
    groups = list(stream_window_index(log, [window]))
    return tuple(np.concatenate([np.empty(0, dtype=np.intp), *(g[s] for g in groups)]) for s in (0, 1))


def column(log, rows, station, name):
    """Column ``name`` of one station, read through a selection's rows ``(rows1, rows2)``."""
    return getattr(log.station1 if station == 1 else log.station2, name)[rows[station - 1]]


def dt(log, rows):
    """Station-2 minus station-1 time tag of each coincidence."""
    return column(log, rows, 2, "time_tag") - column(log, rows, 1, "time_tag")


def greedy_reference(t1, t2, window):
    """Plain quadratic re-implementation of the matching rule.

    Scan station-1 events in time order; each takes the nearest unmatched
    station-2 tag within the window, earlier tag on ties.
    """
    used = [False] * len(t2)
    matches = []
    for i, ti in enumerate(t1):
        best, best_d = -1, None
        for j, tj in enumerate(t2):
            if used[j] or abs(tj - ti) > window:
                continue
            d = abs(tj - ti)
            if best < 0 or d < best_d:
                best, best_d = j, d
        if best >= 0:
            used[best] = True
            matches.append((i, best))
    return matches


def sorted_tags(emission, n_pairs, seed):
    """Time-ordered station tags of a generated run (d=4, t0=1000)."""
    log = run_experiment(ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=n_pairs,
                                          seed=seed, emission=emission))
    return tuple(s.time_tag[s.time_order()] for s in (log.station1, log.station2))


def sorted_match(t1, t2, window):
    """The stream policy on an unpaired log of the sorted tags ``t1`` and ``t2``: its rows index the tags."""
    return stream(tiny_log(t1, t2, pair_ids=False), window)


def assert_same_as_scan(t1, t2, window):
    m1, m2 = sorted_match(t1, t2, window)
    r1, r2 = scan_reference(t1, t2, window)
    assert m1.dtype == r1.dtype and m2.dtype == r2.dtype
    assert np.array_equal(m1, r1) and np.array_equal(m2, r2)


def range_ends(t1, t2, window, lo):
    """hi, the end of each event's range t2[lo:hi], which ``_settle`` does not compute; a NaN event's range is empty."""
    return np.where(np.isnan(t1), lo, np.searchsorted(t2, t1 + window, "right"))


def all_legal_matchings(t1, t2, window):
    """Every set of disjoint within-window pairings, by exhaustive recursion."""
    candidates = [(i, j) for i in range(len(t1)) for j in range(len(t2)) if abs(t2[j] - t1[i]) <= window]

    out = []

    def extend(chosen, used1, used2, start):
        out.append(frozenset(chosen))
        for k in range(start, len(candidates)):
            i, j = candidates[k]
            if i not in used1 and j not in used2:
                extend(chosen + [(i, j)], used1 | {i}, used2 | {j}, k + 1)

    extend([], frozenset(), frozenset(), 0)
    return set(out)


class TestPairFilter:
    def test_kept_inside_window(self):
        log = tiny_log([0.0], [0.3])
        rows = paired(log, window=0.5)
        assert len(rows[0]) == 1
        assert dt(log, rows)[0] == pytest.approx(0.3)

    def test_dropped_outside_window(self):
        assert len(paired(tiny_log([0.0], [0.6]), window=0.5)[0]) == 0

    def test_boundary_is_closed(self):
        assert len(paired(tiny_log([0.0], [0.5]), window=0.5)[0]) == 1

    def test_monotone_in_window(self):
        log = run_experiment(ExperimentConfig(params=ModelParams(d=4, t0=1.0, window=0), n_pairs=4000, seed=1))
        kept_narrow = set(column(log, paired(log, 0.05), 1, "pair_id").tolist())
        kept_wide = set(column(log, paired(log, 0.2), 1, "pair_id").tolist())
        assert kept_narrow <= kept_wide

    def test_selection_is_rows_of_the_log(self):
        rows1, rows2 = paired(tiny_log([0.0, 1.0, 2.0], [0.1, 1.9, 2.2]), window=0.5)
        assert rows1.tolist() == rows2.tolist() == [0, 2]

    def test_negative_window_rejected(self):
        # The sweep checks the first window once, before the policy's checks of the log.
        with pytest.raises(ValidationError, match="window must be >= 0"):
            window_sweep(ExperimentConfig(), [-1.0], policy="paired", log=tiny_log([0.0], [0.0]))

    def test_dt_within_window_always(self):
        log = run_experiment(ExperimentConfig(params=ModelParams(d=4, t0=1.0, window=0), n_pairs=4000, seed=2))
        for w in (0.01, 0.1, 0.5):
            assert np.all(np.abs(dt(log, paired(log, w))) <= w)

    @pytest.mark.parametrize("n_windows", [1, 20, 255, 256, 1000])
    def test_window_index_is_the_first_window_that_keeps_the_pair(self, n_windows):
        # |dt| at, just below and just above every window, and 0, beyond
        # the grid, inf and NaN; over all rows and over a row range.  The
        # index counts in uint8 up to 255 windows and in uint16 from 256.
        windows = np.geomspace(1.0, 1000.0, n_windows)
        gaps = np.concatenate([windows, np.nextafter(windows, 0.0), np.nextafter(windows, np.inf),
                               [0.0, 2000.0, np.inf, np.nan]])
        log = tiny_log(np.zeros(len(gaps)), gaps)
        expected = np.full(len(gaps), n_windows)
        for k in reversed(range(n_windows)):
            expected[paired_reference(log, windows[k])[0]] = k
        index = pair_window_index(log, windows, slice(None))
        assert index.dtype == (np.uint8 if n_windows < 256 else np.uint16)
        np.testing.assert_array_equal(index, expected)
        rows = slice(5, len(gaps) - 1)
        np.testing.assert_array_equal(pair_window_index(log, windows, rows), expected[rows])


class TestStreamMatch:
    def test_single_match(self):
        log = tiny_log([0.0], [0.2])
        rows = stream(log, window=0.5)
        assert len(rows[0]) == 1
        assert dt(log, rows)[0] == pytest.approx(0.2)

    def test_no_match(self):
        assert len(stream(tiny_log([0.0], [0.6]), window=0.5)[0]) == 0

    def test_earliest_takes_shared_candidate(self):
        # Both station-1 events can reach 0.4; the earlier one (0.0) wins
        # and 1.0 is left unmatched.  Verified against brute-force
        # enumeration of every legal matching below.
        log = tiny_log([0.0, 1.0], [0.4])
        rows = stream(log, window=0.5)
        assert len(rows[0]) == 1
        assert column(log, rows, 1, "time_tag")[0] == 0.0 and column(log, rows, 2, "time_tag")[0] == 0.4
        legal = all_legal_matchings([0.0, 1.0], [0.4], 0.5)
        assert frozenset({(0, 0)}) in legal  # the greedy choice is a legal matching

    def test_nearest_wins(self):
        log = tiny_log([1.0], [0.7, 1.1, 1.8])
        rows = stream(log, window=0.5)
        assert len(rows[0]) == 1
        assert column(log, rows, 2, "time_tag")[0] == 1.1

    def test_tie_goes_to_earlier_tag(self):
        log = tiny_log([1.0], [0.8, 1.2])
        assert column(log, stream(log, window=0.5), 2, "time_tag")[0] == 0.8

    def test_one_event_one_match(self):
        rng = np.random.default_rng(3)
        t1 = np.sort(rng.uniform(0, 50, 300))
        t2 = np.sort(rng.uniform(0, 50, 300))
        k1, k2 = sorted_match(t1, t2, 0.4)
        assert len(np.unique(k1)) == len(k1)
        assert len(np.unique(k2)) == len(k2)
        assert np.all(np.abs(t2[k2] - t1[k1]) <= 0.4)

    @pytest.mark.parametrize("case", range(40))
    def test_agrees_with_quadratic_reference(self, case):
        rng = np.random.default_rng(100 + case)
        n1, n2 = rng.integers(0, 12, size=2)
        t1 = np.sort(rng.uniform(0, 6, n1))
        t2 = np.sort(rng.uniform(0, 6, n2))
        window = float(rng.uniform(0.05, 1.5))
        k1, k2 = sorted_match(t1, t2, window)
        got = list(zip(k1.tolist(), k2.tolist()))
        expected = greedy_reference(t1.tolist(), t2.tolist(), window)
        assert got == expected
        # The greedy result is one of the legal matchings.
        assert frozenset(got) in all_legal_matchings(t1.tolist(), t2.tolist(), window)

    def test_rows_out_of_time_order(self):
        # Pair order is not time order: pair 0 is emitted after pair 1.
        # Matches are found in time order and reported against the rows.
        log = tiny_log([5.0, 0.0], [5.1, 0.2])
        rows = stream(log, window=0.5)
        assert column(log, rows, 1, "time_tag").tolist() == [0.0, 5.0]
        assert column(log, rows, 2, "time_tag").tolist() == [0.2, 5.1]
        assert column(log, rows, 1, "pair_id").tolist() == column(log, rows, 2, "pair_id").tolist() == [1, 0]

    def test_works_without_pair_ids(self):
        rows1, rows2 = stream(tiny_log([0.0, 1.0], [0.1, 1.05], pair_ids=False), window=0.2)
        assert rows1.tolist() == rows2.tolist() == [0, 1]


class TestTwoStageMatch:
    """The vectorised first stage plus the scan on contested events equals one scan over all events."""

    def test_small_cases_with_ties_and_boundary_gaps(self):
        # Tags on a 0.1 grid make equal tags, equal distances and |dt| == W
        # (up to the rounding of the grid points) common.
        rng = np.random.default_rng(11)
        for case in range(2500):
            n1, n2 = rng.integers(0, 10, size=2)
            t1 = np.sort(np.round(rng.uniform(0, 3, n1), 1))
            t2 = np.sort(np.round(rng.uniform(0, 3, n2), 1))
            window = (0.0, 0.1, 0.3, 0.5, float(rng.uniform(0, 1)))[case % 5]
            assert_same_as_scan(t1, t2, window)

    def test_regular_emission_leaves_nothing_to_scan(self):
        t1, t2 = sorted_tags(EmissionSpec.regular(10_000.0), 5000, seed=8)
        for window in parse_windows("1:1000:log20"):
            _, contested, _ = _settle(t1, t2, window, 0, len(t1))
            assert not contested.any()
            assert_same_as_scan(t1, t2, window)

    def test_sparse_poisson_runs_both_stages(self):
        t1, t2 = sorted_tags(EmissionSpec.poisson(5e-4), 5000, seed=9)
        partner, contested, _ = _settle(t1, t2, 1000.0, 0, len(t1))
        assert contested.any() and (partner >= 0).any()
        assert_same_as_scan(t1, t2, 1000.0)

    @pytest.mark.parametrize("window", [100.0, 1000.0, 3000.0])
    def test_dense_poisson(self, window):
        # Pops, right takes and dropped stacks all occur at each window.
        t1, t2 = sorted_tags(EmissionSpec.poisson(5e-3), 20_000, seed=10)
        assert_same_as_scan(t1, t2, window)

    def test_split(self):
        # Station 1 at 0, 10, 11, 30; station 2 at 0.5, 10.5, 20, 40; W = 1.
        # 0 -> 0.5 alone; 10 and 11 share 10.5; 30 has no candidate.
        t1 = np.array([0.0, 10.0, 11.0, 30.0])
        t2 = np.array([0.5, 10.5, 20.0, 40.0])
        partner, contested, lo = _settle(t1, t2, 1.0, 0, len(t1))
        hi = range_ends(t1, t2, 1.0, lo)
        assert partner.tolist() == [0, -1, -1, -1]
        assert contested.tolist() == [False, True, True, False]
        assert lo.tolist() == [0, 1, 1, 3] and hi.tolist() == [1, 2, 2, 3]
        # A range of one tag that another range also holds is contested.
        partner, contested, _ = _settle(np.array([0.0, 1.5]), np.array([1.0, 2.0]), 1.0, 0, 2)
        assert partner.tolist() == [-1, -1] and contested.tolist() == [True, True]

    def test_a_nan_tag_matches_nothing(self):
        # A NaN |dt| is within no window.  Sorted, the NaNs come last, and the
        # NaN event's range is empty instead of the one NaN tag of station 2.
        t1, t2 = np.array([0.0, 3.0, np.nan]), np.array([0.2, 3.1, np.nan])
        partner, contested, lo = _settle(t1, t2, 1.0, 0, len(t1))
        hi = range_ends(t1, t2, 1.0, lo)
        assert partner.tolist() == [0, 1, -1] and not contested.any()
        assert lo.tolist() == [0, 1, 2] and hi.tolist() == [1, 2, 2]
        assert_same_as_scan(t1, t2, 1.0)
        log = tiny_log([0.0, np.nan, 3.0], [0.2, np.nan, 3.1])
        for select in (stream, paired, stream_reference, paired_reference):
            rows1, rows2 = select(log, 1.0)
            assert rows1.tolist() == rows2.tolist() == [0, 2], select

    @pytest.mark.parametrize("tags", ["tied", "poisson"])
    def test_split_equals_a_coverage_count(self, tags):
        # Event i is alone when its range is one tag that no other event's
        # range holds: count the ranges that hold each tag, one by one.
        if tags == "tied":
            rng = np.random.default_rng(12)
            t1, t2 = (np.sort(np.round(rng.uniform(0, 1000, 400))) for _ in range(2))
            windows = [0.0, 0.5, 1.0, 2.0]
        else:
            t1, t2 = sorted_tags(EmissionSpec.poisson(5e-4), 3000, seed=12)
            windows = [10.0, 300.0, 1000.0]
        for window in windows:
            partner, contested, lo = _settle(t1, t2, window, 0, len(t1))
            hi = range_ends(t1, t2, window, lo)
            cover = np.zeros(len(t2) + 1, dtype=int)
            for a, b in zip(lo.tolist(), hi.tolist()):
                cover[a:b] += 1
            alone = (hi - lo == 1) & (cover[lo] == 1)
            assert alone.any() and contested.any(), window
            np.testing.assert_array_equal(partner, np.where(alone, lo, -1))
            np.testing.assert_array_equal(contested, (hi > lo) & ~alone)


def rows_kept_at(groups, j):
    """The (row1, row2) pairs that ``stream_window_index`` groups keep at window j, sorted."""
    pairs = []
    for rows1, rows2, start, stop, _ in groups:
        keep = (start <= j) & (j < stop)
        pairs += zip(rows1[keep].tolist(), rows2[keep].tolist())
    return sorted(pairs)


class TestStreamWindowIndex:
    """Every window of the walk keeps the rows the reference scan matches there, not only the same counts."""

    WINDOWS = [0.0, 1.0, 10.0, 100.0, 300.0, 1000.0, 3000.0, np.inf]

    def assert_rows_equal_reference(self, log, windows):
        groups = list(stream_window_index(log, windows))
        for j, w in enumerate(windows):
            r1, r2 = stream_reference(log, w)
            assert rows_kept_at(groups, j) == sorted(zip(r1.tolist(), r2.tolist())), w

    @pytest.mark.parametrize("rate, seed", [(5e-3, 21), (2e-3, 22), (5e-4, 23)])
    def test_overlapping_poisson(self, rate, seed):
        log = run_experiment(ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=2000,
                                              seed=seed, emission=EmissionSpec.poisson(rate)))
        self.assert_rows_equal_reference(log, self.WINDOWS)

    @pytest.mark.parametrize("emission", [EmissionSpec.poisson(5e-3), EmissionSpec.poisson(5e-4), None],
                             ids=["dense", "sparse", "regular"])
    @pytest.mark.parametrize("size", [1, 7, 500])
    def test_segments_of_a_run(self, emission, size):
        # A run's segments in pair order, walked as they arrive: segment edges fall inside
        # clusters, and a group may pair rows of two segments.  Each coincidence is read
        # through its group's rows_of as the tags, settings and outcomes it pairs.
        config = ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=1500, seed=24,
                                  emission=emission)
        log = run_experiment(config)

        def events(station, rows):
            return zip(*(getattr(station, name)[rows].tolist() for name in ("time_tag", "setting_index", "outcome")))

        windows = [w for w in self.WINDOWS if w < np.inf]
        groups = [(list(zip(events(g[4].station1, g[0]), events(g[4].station2, g[1]))), g[2], g[3])
                  for g in stream_window_index(segments_of(config, size), windows)]
        for j, w in enumerate(windows):
            kept = [pair for pairs, start, stop in groups for pair, k in zip(pairs, start) if k <= j < stop]
            r1, r2 = stream_reference(log, w)
            assert sorted(kept) == sorted(zip(events(log.station1, r1), events(log.station2, r2))), w

    @pytest.mark.parametrize("seed", range(5))
    def test_tied_tags(self, seed):
        # Tags on an integer grid: equal tags within and across stations,
        # equal distances and |dt| == W are common.
        rng = np.random.default_rng(seed)
        n1, n2 = rng.integers(100, 300, size=2)
        log = tiny_log(np.round(rng.uniform(0, 200, n1)), np.round(rng.uniform(0, 200, n2)), pair_ids=False)
        self.assert_rows_equal_reference(log, [0.0, 0.5, 1.0, 2.0, 3.0, np.inf])


@pytest.mark.parametrize("t1, t2, windows, station", [
    ([-np.inf], [-np.inf], [np.inf], 1),
    ([np.inf], [np.inf], [1.0, np.inf], 1),
    ([0.0], [-np.inf], [np.inf], 2),
], ids=["minus-inf-at-inf", "inf-on-a-grid", "station-2"])
def test_the_stream_sweep_rejects_an_infinite_tag(t1, t2, windows, station):
    # At W = inf an infinite tag's bound fl(t - W) or fl(t + W) is NaN, so its
    # range would not shrink as W falls; the walk needs that it does.
    with pytest.raises(ValidationError, match=f"station {station} has an infinite time tag"):
        window_sweep(ExperimentConfig(), windows, policy="stream", log=tiny_log(t1, t2))


def halves_of_a_dense_run(seed):
    """A 6,000-pair dense Poisson run and its two 3,000-pair segments."""
    config = ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=6000, seed=seed,
                              emission=EmissionSpec.poisson(5e-3))
    return config, list(segments_of(config, 3000))


@pytest.mark.parametrize("other", ["swapped", "another-run", "after-a-whole-run"])
def test_the_stream_walk_refuses_segments_not_consecutive_in_one_run(other):
    # Each way the second segment has tags below later_tags_from of the first, +inf for a log
    # without emitted, a whole run as read from tags: a walk that took it would miscount silently.
    config, (first, second) = halves_of_a_dense_run(1)
    segments = {"swapped": [second, first], "another-run": [first, halves_of_a_dense_run(2)[1][1]],
                "after-a-whole-run": [EventLog(first.station1, first.station2), second]}[other]
    with pytest.raises(ValidationError, match="^station 1 has a tag below .*: stream segments must be the "
                                              "consecutive segments of one run$"):
        window_sweep(config, [10.0, 1000.0], policy="stream", log=segments)


def test_a_nan_tag_passes_the_segment_order_check():
    # A NaN tag lies below no bound and matches nothing, in segments as in the whole log.
    config, segments = halves_of_a_dense_run(1)
    log = run_experiment(config)
    for in_segment, in_log in ((segments[1].station1, log.station1), (segments[1].station2, log.station2)):
        in_segment.time_tag[5] = in_log.time_tag[3005] = np.nan
    streamed, whole = (window_sweep(config, [10.0, 1000.0], policy="stream", log=x) for x in (segments, log))
    np.testing.assert_array_equal(streamed.counts, whole.counts)


@pytest.fixture(params=[1, 2, 5])
def small_scan_blocks(request, monkeypatch):
    """Scan the contested events in blocks of 1, 2 and 5, so that most cases take many blocks."""
    monkeypatch.setattr(coincidence, "_SCAN_BLOCK", request.param)


@pytest.mark.usefixtures("small_scan_blocks")
class TestTwoStageMatchInSmallBlocks(TestTwoStageMatch):
    """The two-stage cases again, with every block of the scan carrying tags into the next."""


@pytest.mark.usefixtures("small_scan_blocks")
class TestStreamWindowIndexInSmallBlocks(TestStreamWindowIndex):
    """The window-walk cases again, with every block of the scan carrying tags into the next."""


class TestScanBlocks:
    """A block of the scan sees the tags earlier blocks took, and its lists cover one block."""

    # Every range holds every tag, and each hi is len(t2), the sentinel.  Event 0
    # takes 0.125; event 1 is as near 0.125 as 0.375, so it takes 0.375 only
    # because 0.125 is taken; event 2 likewise takes 0.625.
    ALL_IN_RANGE = ([0.0, 0.25, 0.5], [0.125, 0.375, 0.625], 1.0)
    # Ranges (tag indices) [0, 1), [0, 2), [1, 3), [2, 4): event 0's one tag is
    # also event 1's, so every event is contested.  The tag event 1 takes lies
    # in event 2's range, whose block starts at tag 1; the last range ends at
    # len(t2).
    SLIDING = ([0.0, 2.0, 3.0, 5.0], [1.0, 2.5, 4.0, 6.0], 1.5)

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("case", [ALL_IN_RANGE, SLIDING], ids=["all-in-range", "sliding"])
    def test_a_tag_taken_in_an_earlier_block_stays_taken(self, monkeypatch, block, case):
        monkeypatch.setattr(coincidence, "_SCAN_BLOCK", block)
        t1, t2, window = np.array(case[0]), np.array(case[1]), case[2]
        _, contested, lo = _settle(t1, t2, window, 0, len(t1))
        hi = range_ends(t1, t2, window, lo)
        assert contested.all() and hi[-1] == len(t2)
        m1, m2 = sorted_match(t1, t2, window)
        assert m1.tolist() == m2.tolist() == list(range(len(t1)))
        assert_same_as_scan(t1, t2, window)

    def test_peak_memory_per_event(self):
        # Nearly every event of this log is contested.  Python lists over all
        # of them peak near 200 bytes per event; block-sized ones, with every
        # group of the walk gathered here, near 35 (near 58 with sorted tags
        # of both stations and 8-byte sort orders).
        log = run_experiment(ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=200_000,
                                              seed=5, emission=EmissionSpec.poisson(0.005)))
        tracemalloc.start()
        try:
            stream(log, 1000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / log.n_pairs < 150

    def test_one_window_sweep_peak_per_event(self):
        # The same dense log through the whole one-window sweep.  A second
        # full-length search, full-length candidate tests and the split kept
        # alive past the scan peaked near 91 bytes per event; sorted tags of
        # both stations and 8-byte sort orders, 32 bytes per event, near 36.
        # The log as read from tags, without emitted, is the one segment of
        # a whole run, as the generated log is: the lab path through the walk.
        log = run_experiment(ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=200_000,
                                              seed=5, emission=EmissionSpec.poisson(0.005)))
        for stored in (log, EventLog(log.station1, log.station2)):
            tracemalloc.start()
            try:
                window_sweep(log.config, [1000.0], policy="stream", log=stored)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / log.n_pairs < 75
            # The peak is near 24 bytes per event, while station 2 is sorted:
            # station 1's 4-byte rows, station 2's intp sort and sorted tags
            # and its 4-byte rows.  Holding station 1's sorted tags too read 32.
            assert peak / log.n_pairs < 28

    def test_grid_sweep_peak_per_event(self):
        # The same dense log swept over 20 windows.  Full-length first-window
        # tests over every match of the largest window peaked near 118 bytes
        # per event, twice the one-window sweep.
        log = run_experiment(ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=200_000,
                                              seed=5, emission=EmissionSpec.poisson(0.005)))
        tracemalloc.start()
        try:
            window_sweep(log.config, np.geomspace(1.0, 1000.0, 20), policy="stream", log=log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / log.n_pairs < 80

    def test_walk_holds_little_at_its_yield(self):
        # At a grid of one the walk yields one group per block.  At the first
        # it holds the sorted station-2 tags and both stations' 4-byte rows
        # in time order, 16 bytes per event, and one block's temporaries,
        # and no full-length ranges or split.  Sorted tags of both stations
        # and 8-byte sort orders held 36 bytes per event.
        log = run_experiment(ExperimentConfig(params=ModelParams(d=4, t0=1000.0, window=0), n_pairs=50_000,
                                              seed=5, emission=EmissionSpec.poisson(0.005)))
        for stored in (log, EventLog(log.station1, log.station2)):  # generated, and as read from tags
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                walk = stream_window_index(stored, [1000.0])
                group = next(walk)
                held = tracemalloc.get_traced_memory()[0] - before - sum(a.nbytes for a in group[:3])
            finally:
                tracemalloc.stop()
            walk.close()
            assert held / log.n_pairs < 40
            assert held / log.n_pairs < 25


END = 0.1 + 0.2  # fl(0.1 + 0.2) = 0.30000000000000004, the bound of an event at 0.1 with W = 0.2


class TestScanWalk:
    """The stack, the frontier and the tie walk of the scan make the reference scan's choices."""

    CASES = {
        # (t1, t2, window, the tag each station-1 event takes or -1)
        # Event 0 takes the first 4.0; events 1 and 2 walk down the stack's free 4.0s and take the first.
        "equal-left-run": ([4.0, 5.0, 5.0], [3.0, 4.0, 4.0, 4.0, 7.0], 3.0, [1, 2, 3]),
        # Left and right at equal distance: the left one wins; once it is taken, the right one.
        "equal-distances": ([5.0, 5.0, 5.0], [4.0, 6.0], 1.0, [0, 1, -1]),
        # Event 1's right candidate lies exactly at fl(0.1 + 0.2) (kept although
        # fl(END - 0.1) > 0.2), and one ulp past it (dropped; event 2 takes it).
        "right-at-bound": ([0.1, 0.1, 0.35], [0.0, END, 0.4], 0.2, [0, 1, 2]),
        "right-past-bound": ([0.1, 0.1, 0.35], [0.0, math.nextafter(END, 1.0), 0.4], 0.2, [0, -1, 1]),
        "zero-window": ([1.0, 1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 1.5, 2.0], 0.0, [0, 1, -1, 3, -1]),
        "infinite-window": ([0.0, 10.0, 20.0, 30.0], [5.0, 15.0, 25.0], np.inf, [0, 1, 2, -1]),
        # Two tags one ulp apart round to one distance from 1e6, so the earlier one is
        # the nearest: the tie walk compares distances, not tags.
        "distinct-tags-one-distance": ([1e6, 1e6], [0.1, math.nextafter(0.1, 1.0)], 1e7, [0, 1]),
        # Distances overflow to inf; the first tag in range is still taken.
        "overflowing-distance": ([1e308, 1e308], [-1e308, -1e308, 1e308], np.inf, [2, 0]),
        # Seven events on a run of six equal tags: blocks of 1, 2 and 5 cut the run.
        "equal-run-across-blocks": ([4.0] * 6 + [4.5], [3.5] + [4.0] * 6, 1.0, [1, 2, 3, 4, 5, 6, 0]),
        # Event 0 passes 0.2 and 0.8 and takes 1.1; event 1, in the next block when blocks hold one
        # event, takes 0.8, which is then the first tag of its block's lists.
        "left-tag-across-blocks": ([1.0, 1.5], [0.2, 0.8, 1.1, 2.4], 1.0, [2, 1]),
        # Two left tags at one distance and a strictly nearer right tag: the right tag wins;
        # the next event takes the first of the left tags, the one after it the second.
        "tied-left-nearer-right": ([5.0, 5.0, 5.0], [4.0, 4.0, 5.5], 1.0, [2, 0, 1]),
        # Event 0 leaves -0.5 free; event 1's range starts past it and past 3.0, which no
        # event reaches: neither may be taken later, so event 2 takes nothing.
        "lo-past-every-passed-tag": ([0.0, 5.0, 5.0], [-0.5, 0.2, 3.0, 5.5], 1.0, [1, 3, -1]),
        # Events 0 and 1 take the right tags 0.1 and 0.2 in turn; event 2 skips both and takes 0.3.
        "run-of-right-takes": ([0.0, 0.0, 0.25], [-0.9, 0.1, 0.2, 0.3], 1.0, [1, 2, 3]),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_case(self, case):
        t1, t2, window, takes = np.array(case[0]), np.array(case[1]), case[2], case[3]
        _, contested, _ = _settle(t1, t2, window, 0, len(t1))
        assert contested.sum() >= 2  # the scan runs
        m1, m2 = sorted_match(t1, t2, window)
        expected = [(i, j) for i, j in enumerate(takes) if j >= 0]
        assert list(zip(m1.tolist(), m2.tolist())) == expected
        assert_same_as_scan(t1, t2, window)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.integers(0, 12), max_size=14), st.lists(st.integers(0, 12), max_size=14),
           st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, np.inf]))
    def test_integer_grid(self, tags1, tags2, window):
        # Equal tags, equal distances and |dt| == W are common on the grid.
        assert_same_as_scan(np.sort(np.array(tags1, dtype=float)), np.sort(np.array(tags2, dtype=float)), window)


@pytest.mark.usefixtures("small_scan_blocks")
class TestScanWalkInSmallBlocks(TestScanWalk):
    """The walk cases again, with every block of the scan carrying tags into the next."""


class TestCrossValidation:
    def test_stream_equals_pair_filter_when_separated(self):
        # Regular emission spacing 10 * t0 prevents cross-pair matches for
        # any window up to t0, so the two selectors must agree exactly.
        cfg = ExperimentConfig(
            params=ModelParams(d=4, t0=1.0, window=0),
            n_pairs=3000,
            seed=4,
            emission=EmissionSpec.regular(10.0),
        )
        log = run_experiment(cfg)
        for w in (0.01, 0.1, 0.45, 1.0):
            via_pairs = paired(log, w)
            via_stream = stream(log, w)
            order_p = np.argsort(column(log, via_pairs, 1, "pair_id"))
            order_s = np.argsort(column(log, via_stream, 1, "pair_id"))
            for station, name in ((1, "pair_id"), (2, "pair_id"), (1, "time_tag"), (2, "time_tag")):
                assert np.array_equal(column(log, via_pairs, station, name)[order_p],
                                      column(log, via_stream, station, name)[order_s])

    def test_poisson_streams_interleave_but_match_legally(self):
        cfg = ExperimentConfig(
            params=ModelParams(d=4, t0=1.0, window=0),
            n_pairs=2000,
            seed=5,
            emission=EmissionSpec.poisson(2.0),
        )
        log = run_experiment(cfg)
        rows = stream(log, 0.3)
        assert np.all(np.abs(dt(log, rows)) <= 0.3)
        assert len(np.unique(column(log, rows, 2, "pair_id"))) == len(rows[0])


class TestCoincidenceRate:
    def test_rate_one_when_window_covers_t0(self):
        cfg = ExperimentConfig(params=ModelParams(d=4, t0=1.0, window=0), n_pairs=2000, seed=6)
        log = run_experiment(cfg)
        assert len(paired(log, 1.0)[0]) / log.n_pairs == 1.0
        assert len(paired(log, 2.0)[0]) / log.n_pairs == 1.0

    def test_rate_tiny_at_zero_window(self):
        cfg = ExperimentConfig(params=ModelParams(d=4, t0=1.0, window=0), n_pairs=20_000, seed=7)
        log = run_experiment(cfg)
        assert len(paired(log, 0.0)[0]) / log.n_pairs < 0.01

    def test_policy_dispatch(self):
        log = tiny_log([0.0], [0.1])
        cfg = ExperimentConfig(settings1=(0.0,), settings2=(0.5,), n_pairs=1, seed=0)
        for policy in ("paired", "stream"):
            sweep = window_sweep(cfg, [0.5], (0.0, 0.0, 0.5, 0.5), policy, log=log)
            assert sweep.counts.sum() / log.n_pairs == 1.0
