"""Coincidence-selection tests for both the per-pair filter and the stream matcher."""

import numpy as np
import pytest

from eprsim import (
    EmissionSpec,
    EventLog,
    ExperimentConfig,
    ModelParams,
    StationStream,
    ValidationError,
    coincidence_rate,
    match_events,
    pair_filter,
    run_experiment,
    stream_match,
)
from eprsim.coincidence import _greedy_match


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


def column(coinc, station, name):
    """Column ``name`` of one station, read through the selection's rows."""
    stream, rows = (coinc.log.station1, coinc.rows1) if station == 1 else (coinc.log.station2, coinc.rows2)
    return getattr(stream, name)[rows]


def dt(coinc):
    """Station-2 minus station-1 time tag of each coincidence."""
    return column(coinc, 2, "time_tag") - column(coinc, 1, "time_tag")


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
        coinc = pair_filter(tiny_log([0.0], [0.3]), window=0.5)
        assert len(coinc) == 1
        assert dt(coinc)[0] == pytest.approx(0.3)

    def test_dropped_outside_window(self):
        assert len(pair_filter(tiny_log([0.0], [0.6]), window=0.5)) == 0

    def test_boundary_is_closed(self):
        assert len(pair_filter(tiny_log([0.0], [0.5]), window=0.5)) == 1

    def test_monotone_in_window(self):
        log = run_experiment(ExperimentConfig(params=ModelParams(d=4, t0=1.0, window=0), n_pairs=4000, seed=1))
        kept_narrow = set(column(pair_filter(log, 0.05), 1, "pair_id").tolist())
        kept_wide = set(column(pair_filter(log, 0.2), 1, "pair_id").tolist())
        assert kept_narrow <= kept_wide

    def test_selection_is_rows_of_the_log(self):
        log = tiny_log([0.0, 1.0, 2.0], [0.1, 1.9, 2.2])
        coinc = pair_filter(log, window=0.5)
        assert coinc.log is log
        assert coinc.rows1.tolist() == coinc.rows2.tolist() == [0, 2]
        assert coinc.n_source_pairs == 3

    def test_negative_window_rejected(self):
        with pytest.raises(ValidationError):
            pair_filter(tiny_log([0.0], [0.0]), window=-1.0)

    def test_dt_within_window_always(self):
        log = run_experiment(ExperimentConfig(params=ModelParams(d=4, t0=1.0, window=0), n_pairs=4000, seed=2))
        for w in (0.01, 0.1, 0.5):
            assert np.all(np.abs(dt(pair_filter(log, w))) <= w)


class TestStreamMatch:
    def test_single_match(self):
        coinc = stream_match(tiny_log([0.0], [0.2]), window=0.5)
        assert len(coinc) == 1
        assert dt(coinc)[0] == pytest.approx(0.2)

    def test_no_match(self):
        assert len(stream_match(tiny_log([0.0], [0.6]), window=0.5)) == 0

    def test_earliest_takes_shared_candidate(self):
        # Both station-1 events can reach 0.4; the earlier one (0.0) wins
        # and 1.0 is left unmatched.  Verified against brute-force
        # enumeration of every legal matching below.
        coinc = stream_match(tiny_log([0.0, 1.0], [0.4]), window=0.5)
        assert len(coinc) == 1
        assert column(coinc, 1, "time_tag")[0] == 0.0 and column(coinc, 2, "time_tag")[0] == 0.4
        legal = all_legal_matchings([0.0, 1.0], [0.4], 0.5)
        assert frozenset({(0, 0)}) in legal  # the greedy choice is a legal matching

    def test_nearest_wins(self):
        coinc = stream_match(tiny_log([1.0], [0.7, 1.1, 1.8]), window=0.5)
        assert len(coinc) == 1
        assert column(coinc, 2, "time_tag")[0] == 1.1

    def test_tie_goes_to_earlier_tag(self):
        coinc = stream_match(tiny_log([1.0], [0.8, 1.2]), window=0.5)
        assert column(coinc, 2, "time_tag")[0] == 0.8

    def test_one_event_one_match(self):
        rng = np.random.default_rng(3)
        t1 = np.sort(rng.uniform(0, 50, 300))
        t2 = np.sort(rng.uniform(0, 50, 300))
        k1, k2 = _greedy_match(t1, t2, 0.4)
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
        k1, k2 = _greedy_match(t1, t2, window)
        got = list(zip(k1.tolist(), k2.tolist()))
        expected = greedy_reference(t1.tolist(), t2.tolist(), window)
        assert got == expected
        # The greedy result is one of the legal matchings.
        assert frozenset(got) in all_legal_matchings(t1.tolist(), t2.tolist(), window)

    def test_rows_out_of_time_order(self):
        # Pair order is not time order: pair 0 is emitted after pair 1.
        # Matches are found in time order and reported against the rows.
        coinc = stream_match(tiny_log([5.0, 0.0], [5.1, 0.2]), window=0.5)
        assert column(coinc, 1, "time_tag").tolist() == [0.0, 5.0]
        assert column(coinc, 2, "time_tag").tolist() == [0.2, 5.1]
        assert column(coinc, 1, "pair_id").tolist() == column(coinc, 2, "pair_id").tolist() == [1, 0]

    def test_works_without_pair_ids(self):
        log = tiny_log([0.0, 1.0], [0.1, 1.05], pair_ids=False)
        coinc = stream_match(log, window=0.2)
        assert coinc.rows1.tolist() == coinc.rows2.tolist() == [0, 1]


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
            via_pairs = pair_filter(log, w)
            via_stream = stream_match(log, w)
            order_p = np.argsort(column(via_pairs, 1, "pair_id"))
            order_s = np.argsort(column(via_stream, 1, "pair_id"))
            for station, name in ((1, "pair_id"), (2, "pair_id"), (1, "time_tag"), (2, "time_tag")):
                assert np.array_equal(column(via_pairs, station, name)[order_p],
                                      column(via_stream, station, name)[order_s])

    def test_poisson_streams_interleave_but_match_legally(self):
        cfg = ExperimentConfig(
            params=ModelParams(d=4, t0=1.0, window=0),
            n_pairs=2000,
            seed=5,
            emission=EmissionSpec.poisson(2.0),
        )
        log = run_experiment(cfg)
        coinc = stream_match(log, 0.3)
        assert np.all(np.abs(dt(coinc)) <= 0.3)
        assert len(np.unique(column(coinc, 2, "pair_id"))) == len(coinc)


class TestCoincidenceRate:
    def test_rate_one_when_window_covers_t0(self):
        cfg = ExperimentConfig(params=ModelParams(d=4, t0=1.0, window=0), n_pairs=2000, seed=6)
        log = run_experiment(cfg)
        assert coincidence_rate(log, 1.0) == 1.0
        assert coincidence_rate(log, 2.0) == 1.0

    def test_rate_tiny_at_zero_window(self):
        cfg = ExperimentConfig(params=ModelParams(d=4, t0=1.0, window=0), n_pairs=20_000, seed=7)
        log = run_experiment(cfg)
        assert coincidence_rate(log, 0.0) < 0.01

    def test_policy_dispatch(self):
        log = tiny_log([0.0], [0.1])
        assert coincidence_rate(log, 0.5, "paired") == 1.0
        assert coincidence_rate(log, 0.5, "stream-greedy") == 1.0
        with pytest.raises(ValidationError):
            match_events(log, 0.5, "hardware")
