"""Event-generation tests: determinism, stream structure, statistics."""

import hashlib
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eprsim import (
    EmissionSpec,
    EventLog,
    ExperimentConfig,
    ModelParams,
    SweepResult,
    ValidationError,
    read_tags,
    run_experiment,
    write_tags,
)
import eprsim.events
from eprsim.coincidence import check_pair_filter
from eprsim.events import (CHUNK_PAIRS, SEGMENT_PAIRS, TIME_TAG_DECIMALS, _chunk_uniforms, _generate_columns,
                            later_tags_from, map_ranges)
from eprsim.model import hidden_from_uniform


def small_config(**overrides):
    defaults = dict(
        params=ModelParams(d=4.0, t0=1.0, window=0.1),
        settings1=(0.0, np.pi / 4),
        settings2=(np.pi / 8, 3 * np.pi / 8),
        n_pairs=5000,
        seed=11,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# The raw per-pair columns that _generate_columns fills.
COLUMNS = ("idx1", "idx2", "x1", "x2", "delay1", "delay2")


def pair_columns(cfg, pid):
    """The raw columns of pair ``pid`` alone, as ``run_experiment`` computes them."""
    cols = {name: np.zeros(cfg.n_pairs) for name in COLUMNS}
    _generate_columns(cfg, cols, pid, pid + 1)
    return {name: col[pid] for name, col in cols.items()}


def hidden_angle(seed, pid):
    """The hidden angle s1 that pair ``pid`` draws."""
    u = _chunk_uniforms(seed, pid // CHUNK_PAIRS, pid % CHUNK_PAIRS + 1)[-1]
    return float(hidden_from_uniform(u[0]))


@pytest.fixture
def chunk_segments(monkeypatch):
    """Cut runs into segments of one chunk, so that a few chunks are many segments."""
    monkeypatch.setattr(eprsim.events, "SEGMENT_PAIRS", CHUNK_PAIRS)


def segments_of(config, size, workers=1):
    """``run_experiment`` over consecutive ``size``-pair segments, generated as they are taken.

    Under Poisson emission each segment after the first continues the
    emission times from the ``emitted`` of the one before.
    """
    n, emitted = config.n_pairs, None
    poisson = config.resolved_emission().mode == "poisson"
    for lo in range(0, n, size):
        segment = run_experiment(config, workers, pairs=range(lo, min(lo + size, n)),
                                 emitted_before=emitted if poisson and lo else None)
        emitted = segment.emitted
        yield segment
        del segment


def record_pool_sizes(monkeypatch):
    """Record the thread count of every pool the segment runner opens from now on."""
    sizes = []

    class Recorder(eprsim.events.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(eprsim.events, "ThreadPoolExecutor", Recorder)
    return sizes


def log_digest(log):
    """sha256 of both stations' time tags, setting indices, outcomes and pair ids.

    Each column is hashed cast to its pinned type (float64, int16, int8,
    int64), so a digest pins values, not the type a log stores them in.
    """
    h = hashlib.sha256()
    for s in (log.station1, log.station2):
        for col, dtype in ((s.time_tag, "<f8"), (s.setting_index, "<i2"), (s.outcome, "i1"), (s.pair_id, "<i8")):
            h.update(col.astype(dtype).tobytes())
    return h.hexdigest()


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.n_pairs == 10**6 and cfg.seed == 42
        assert cfg.resolved_emission() == EmissionSpec.regular(10.0 * cfg.params.t0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_pairs=0),
            dict(settings1=()),
            dict(settings2=()),
            dict(seed=-1),
            dict(seed=2**64),
            dict(seed=1.5),
            dict(settings1=(np.nan, 1.0)),
            dict(settings2=(0.5, np.inf)),
            dict(settings1=(1e308, 0.0)),  # finite, but 2 * zeta overflows
            dict(settings1=tuple(np.linspace(0.0, 1.0, 2**15 + 1))),  # setting indices beyond the tag format's
            dict(settings2=tuple(np.linspace(0.0, 1.0, 40_000))),
            dict(n_pairs=1.5),
            dict(n_pairs=2000.0),
            dict(n_pairs=True),
            dict(seed=True),
            dict(settings1=("0", 1.0)),  # float() would read these as angles
            dict(settings2=(0.5, True)),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="regular", interval=0.0),
            dict(mode="regular", interval=np.inf),
            dict(mode="regular", interval=np.nan),
            dict(mode="poisson"),
            dict(mode="burst"),
            dict(mode="poisson", rate=True),
            dict(mode="regular", interval="5"),
            dict(mode="regular", interval=np.bool_(True)),
            dict(mode="poisson", rate=0.5, interval=10.0),  # one process, one parameter
            dict(mode="regular", interval=10.0, rate=0.5),
        ],
    )
    def test_bad_emission_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            EmissionSpec(**kwargs)

    @pytest.mark.parametrize("make, value", [(EmissionSpec.regular, "5"), (EmissionSpec.poisson, True)],
                             ids=["regular-str", "poisson-bool"])
    def test_constructors_check_the_type_too(self, make, value):
        # float() would read these as a number.
        with pytest.raises(ValidationError):
            make(value)

    def test_integer_interval_is_kept_as_a_float(self):
        # Pair ids times an int interval would be int64 emission times, which wrap past 2**63.
        spec = EmissionSpec(mode="regular", interval=2**62)
        assert type(spec.interval) is float and spec == EmissionSpec.regular(2.0**62)
        log = run_experiment(small_config(n_pairs=3, emission=spec))
        assert np.all(np.diff(log.station1.time_tag) > 0)


class TestGeneratePair:
    """One pair generated alone, from its ``(seed, pair_id)`` variates."""

    def test_deterministic_for_fixed_seed(self):
        cfg = small_config(n_pairs=10, seed=5)
        a = pair_columns(cfg, 7)
        assert pair_columns(cfg, 7) == a
        assert pair_columns(cfg, 8) != a
        assert pair_columns(small_config(n_pairs=10, seed=6), 7) != a

    def test_zero_misalignment_pins_station1(self):
        # Choosing the station-1 setting equal to the drawn hidden angle
        # makes zeta1 = 0: outcome +1 with certainty and zero delay.
        for pid in range(25):
            s1 = hidden_angle(3, pid)
            row = pair_columns(small_config(settings1=(s1,), settings2=(s1 + 0.5 * np.pi,), n_pairs=25, seed=3), pid)
            assert row["x1"] == 1
            assert row["delay1"] == 0.0


class TestRunExperiment:
    def test_counts_and_sorting(self):
        # Poisson emission with a mean spacing far below t0 interleaves the
        # pairs, so pair order and time order differ.
        log = run_experiment(small_config(emission=EmissionSpec.poisson(50.0)))
        assert log.n_pairs == 5000
        for stream in (log.station1, log.station2):
            assert len(stream) == 5000
            assert np.array_equal(stream.pair_id, np.arange(5000))
            assert np.any(np.diff(stream.time_tag) < 0)
            assert np.all(np.diff(stream.time_tag[stream.time_order()]) >= 0)
            assert set(np.unique(stream.outcome)) <= {-1, 1}

    def test_time_tags_quantized(self, tmp_path):
        log = run_experiment(small_config())
        for stream in (log.station1, log.station2):
            assert np.array_equal(stream.time_tag, np.round(stream.time_tag, TIME_TAG_DECIMALS))
        # Beyond 2**33 the spacing of doubles exceeds 1e-6, so tags are no
        # longer on a 1e-6 grid; what holds is that they round-trip exactly.
        cfg = small_config(params=ModelParams(d=4.0, t0=1000.0, window=10.0), emission=EmissionSpec.regular(2e6))
        log = run_experiment(cfg)
        beyond = log.station1.time_tag > 2.0**33
        assert beyond.sum() > 500
        assert np.all(np.spacing(log.station1.time_tag[beyond]) > 10.0**-TIME_TAG_DECIMALS)
        write_tags(log, tmp_path / "far")
        assert read_tags(tmp_path / "far", cfg) == log

    def test_seed_reproducibility(self):
        cfg = small_config()
        assert run_experiment(cfg) == run_experiment(cfg)
        assert run_experiment(cfg) != run_experiment(small_config(seed=12))

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_worker_count_invariance(self, workers):
        # Four segments, the last of 17 pairs.
        for emission in (None, EmissionSpec.poisson(0.005)):
            cfg = small_config(n_pairs=3 * SEGMENT_PAIRS + 17, emission=emission)
            assert run_experiment(cfg, n_workers=1) == run_experiment(cfg, n_workers=workers)

    # Event logs pinned by sha256: any change to the variates, the kernels,
    # the worker split or the tag arithmetic moves a digest.
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_regular_log_pinned(self, workers):
        log = run_experiment(small_config(n_pairs=3 * CHUNK_PAIRS + 17), n_workers=workers)
        assert log_digest(log) == "d64337026287992ca0bb3afce7518519244b1c5dd934d6993b88c8fbdaa2acfd"

    def test_poisson_log_pinned(self):
        log = run_experiment(small_config(n_pairs=50_000, emission=EmissionSpec.poisson(0.005)), n_workers=2)
        assert log_digest(log) == "b00745a177a251573bc38d91540806424f54a6d0509f307f4b7c7f4fe62d84bb"

    # Four segments: Poisson emission times carried across three segment edges.
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("emission, digest", [
        (None, "feb544903418c396e0bf56c5811d314327856de0f9c5ace590f2164908903c6b"),
        (EmissionSpec.poisson(0.005), "631f97db0ff047dba4cb317ac0d376adf9e901cab0e7af7f9e6817a40d14e25f"),
    ], ids=["regular", "poisson"])
    def test_multi_segment_log_pinned(self, emission, digest, workers):
        log = run_experiment(small_config(n_pairs=3 * SEGMENT_PAIRS + 17, emission=emission), n_workers=workers)
        assert log_digest(log) == digest

    def test_single_pair_log_pinned(self):
        log = run_experiment(small_config(n_pairs=1))
        assert log_digest(log) == "c6e190404d1a346ea1ff7081aa6343086931c9860ba06fea39912e3a6f095e46"

    def test_peak_memory_per_pair(self):
        # One chunk of variates per worker, not an n_pairs x 8 matrix.  The
        # log's own columns are 24 bytes per pair.
        cfg = small_config(n_pairs=200_000)
        run_experiment(small_config(n_pairs=10))  # first-call allocations are not per pair
        tracemalloc.start()
        try:
            run_experiment(cfg, n_workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / cfg.n_pairs < 80

    @pytest.mark.parametrize("emission, bound", [(None, 25), (EmissionSpec.poisson(0.005), 25)],
                             ids=["regular", "poisson"])
    def test_peak_memory_is_the_log(self, emission, bound):
        # Tags are written a segment at a time from chunk-sized emission blocks
        # or the segment's own inter-arrival times: no full-length emission or
        # gap array.  The log is 24 bytes per pair (two float64 tags, two int8
        # outcomes, two uint8 setting indices, one shared uint32 pair id).  Each
        # segment alive adds about 0.7 MB of chunk buffers, and under Poisson
        # emission 0.5 MB of inter-arrival times, under a byte per pair at 1e6
        # pairs.
        cfg = small_config(n_pairs=10**6, emission=emission)
        run_experiment(small_config(n_pairs=10, emission=emission))  # first-call allocations are not per pair
        for workers in (1, 2):
            tracemalloc.start()
            try:
                run_experiment(cfg, n_workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / cfg.n_pairs < bound, workers

    @pytest.mark.parametrize("n_pairs, pid_type", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                                   (2**16 + 1, np.uint32)])
    def test_pair_ids_in_the_smallest_type(self, n_pairs, pid_type):
        log = run_experiment(small_config(n_pairs=n_pairs))
        assert log.station1.pair_id is log.station2.pair_id
        assert log.station1.pair_id.dtype == pid_type
        assert np.array_equal(log.station1.pair_id, np.arange(n_pairs))

    @pytest.mark.parametrize("k, index_type", [(1, np.uint8), (256, np.uint8), (257, np.uint16), (2**15, np.uint16)])
    def test_setting_indices_in_the_smallest_type(self, k, index_type):
        # Each station's indices take the type of its own largest index, and
        # equal the int64 choices of _generate_columns, up to 2**15 - 1.
        cfg = small_config(settings1=tuple(np.linspace(0.0, 1.0, k)), settings2=(0.5,) * 2)
        log = run_experiment(cfg)
        whole = {name: np.zeros(cfg.n_pairs) for name in COLUMNS}
        _generate_columns(cfg, whole, 0, cfg.n_pairs)
        assert (log.station1.setting_index.dtype, log.station2.setting_index.dtype) == (index_type, np.uint8)
        assert np.array_equal(log.station1.setting_index, whole["idx1"])
        assert np.array_equal(log.station2.setting_index, whole["idx2"])
        assert log.station1.setting_index.max() >= k - 1 - k // 256

    @pytest.mark.parametrize("cpus, threads", [(4, 4), (None, 1), (64, 10)])
    def test_pool_sized_by_cpus_not_workers(self, monkeypatch, chunk_segments, cpus, threads):
        # Ten segments: one thread each up to the CPU count; one thread runs them inline.
        cfg = small_config(n_pairs=10 * CHUNK_PAIRS)
        inline = run_experiment(cfg)
        sizes = record_pool_sizes(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_experiment(cfg, n_workers=64) == inline
        assert sizes == ([threads] if threads > 1 else [])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("first, stop", [(0, 2 * CHUNK_PAIRS), (CHUNK_PAIRS, 3 * CHUNK_PAIRS + 100),
                                             (57, CHUNK_PAIRS + 1), (2 * CHUNK_PAIRS - 1, 3 * CHUNK_PAIRS + 100),
                                             (3 * CHUNK_PAIRS + 99, 3 * CHUNK_PAIRS + 100)],
                             ids=["aligned", "aligned-to-end", "unaligned", "unaligned-to-end", "last-pair"])
    def test_segment_equals_its_rows_of_the_whole_log(self, chunk_segments, workers, first, stop):
        # Every column, and pair ids in the whole run's type (uint16 here, even for a one-pair segment).
        # Generation's own segments are a chunk long, so an unaligned segment cuts every chunk.
        cfg = small_config(n_pairs=3 * CHUNK_PAIRS + 100, emission=EmissionSpec.regular(0.7))
        whole = run_experiment(cfg)
        part = run_experiment(cfg, workers, pairs=range(first, stop))
        assert part.station1.pair_id is part.station2.pair_id
        for a, b in ((part.station1, whole.station1), (part.station2, whole.station2)):
            for name in ("time_tag", "setting_index", "outcome", "pair_id"):
                col, ref = getattr(a, name), getattr(b, name)[first:stop]
                assert col.dtype == ref.dtype and np.array_equal(col, ref), name
        assert part.station1.pair_id.dtype == np.uint16

    @pytest.mark.parametrize("pairs", [range(0), range(5, 5), range(0, 5001), range(-1, 10), range(0, 10, 2),
                                       (0, 10)], ids=str)
    def test_invalid_segment_rejected(self, pairs):
        with pytest.raises(ValidationError, match="pairs must be"):
            run_experiment(small_config(), pairs=pairs)

    @pytest.mark.parametrize("size", [1, 999, CHUNK_PAIRS, CHUNK_PAIRS + 1])
    def test_poisson_segments_carry_the_emission_time(self, size):
        # Poisson emission times are one cumulative sum over the run: each segment continues it
        # from the emitted of the one before, bit for bit.
        cfg = small_config(n_pairs=2 * CHUNK_PAIRS + 17, emission=EmissionSpec.poisson(0.5))
        whole = run_experiment(cfg)
        segments = list(segments_of(cfg, size))
        for name in ("time_tag", "setting_index", "outcome", "pair_id"):
            for s in ("station1", "station2"):
                joined = np.concatenate([getattr(getattr(g, s), name) for g in segments])
                assert np.array_equal(joined, getattr(getattr(whole, s), name))
        assert segments[-1].emitted == whole.emitted
        assert whole.emitted > 0

    @pytest.mark.parametrize("pairs, emitted_before", [(range(1, 9), None), (range(0, 9), 1.0)],
                             ids=["missing", "first-segment"])
    def test_poisson_segment_needs_the_emission_time_before_it(self, pairs, emitted_before):
        cfg = small_config(emission=EmissionSpec.poisson(0.5))
        with pytest.raises(ValidationError, match="cumulative sum"):
            run_experiment(cfg, pairs=pairs, emitted_before=emitted_before)

    def test_regular_segment_takes_no_emission_time(self):
        with pytest.raises(ValidationError, match="cumulative sum"):
            run_experiment(small_config(), pairs=range(1, 9), emitted_before=0.0)
        assert run_experiment(small_config(), pairs=range(1, 9)).emitted == 8 * 10.0

    def test_a_log_without_emitted_is_a_whole_run(self, tmp_path):
        # No pair follows a whole run, as a log read from tags is: no later tag lies below +inf.
        cfg = small_config(n_pairs=6000, emission=EmissionSpec.poisson(0.5))
        first = next(segments_of(cfg, 3000))
        assert later_tags_from(first) < np.inf
        assert later_tags_from(EventLog(first.station1, first.station2)) == np.inf
        write_tags(first, tmp_path / "t")
        back = read_tags(tmp_path / "t", cfg)
        assert back.emitted is None and later_tags_from(back) == np.inf

    def test_emission_overflow_of_the_last_pair_rejected_in_the_first_segment(self):
        # Pair 2**16 - 1 is emitted near 6.6e301, which tags; the run's last, near 2e302, does not.
        cfg = small_config(n_pairs=200_000, emission=EmissionSpec.regular(1e297))
        assert np.isfinite(((2**16 - 1) * 1e297 + cfg.params.t0) * 10.0**TIME_TAG_DECIMALS)
        with pytest.raises(ValidationError, match="emission times overflow: the last of 200000 pairs"):
            run_experiment(cfg, pairs=range(2**16))

    def test_any_pair_rebuilds_in_isolation(self):
        # Pair pid generated alone equals row pid of the whole run, setting
        # choice included, on both sides of a chunk boundary.  The emission
        # gap is not recorded in the log; the whole run's columns carry it.
        cfg = small_config(n_pairs=CHUNK_PAIRS + 40)
        log = run_experiment(cfg)
        whole = {name: np.zeros(cfg.n_pairs) for name in COLUMNS}
        _generate_columns(cfg, whole, 0, cfg.n_pairs)
        dt = cfg.resolved_emission().interval
        for pid in [0, 1, 57, CHUNK_PAIRS - 1, CHUNK_PAIRS, CHUNK_PAIRS + 39]:
            row = pair_columns(cfg, pid)
            assert row == {name: col[pid] for name, col in whole.items()}
            for k, stream in ((1, log.station1), (2, log.station2)):
                assert row[f"idx{k}"] == stream.setting_index[pid]
                assert row[f"x{k}"] == stream.outcome[pid]
                assert np.round(pid * dt + row[f"delay{k}"], TIME_TAG_DECIMALS) == stream.time_tag[pid]

    def test_setting_choice_binomial(self):
        cfg = small_config(n_pairs=10**5)
        log = run_experiment(cfg)
        n = cfg.n_pairs
        for stream in (log.station1, log.station2):
            count0 = int(np.sum(stream.setting_index == 0))
            assert abs(count0 - n / 2) < 5.0 * np.sqrt(n * 0.25)

    def test_regular_emission_spacing(self):
        cfg = small_config(n_pairs=100, emission=EmissionSpec.regular(7.5))
        log = run_experiment(cfg)
        order = np.argsort(log.station1.pair_id)
        t = log.station1.time_tag[order]
        emission = np.arange(100) * 7.5
        assert np.all(t >= emission)
        assert np.all(t <= emission + cfg.params.t0 + 10.0 ** (-TIME_TAG_DECIMALS))

    def test_poisson_emission(self):
        rate = 0.25
        cfg = small_config(n_pairs=20_000, emission=EmissionSpec.poisson(rate))
        log = run_experiment(cfg)
        order = np.argsort(log.station1.pair_id)
        t1 = log.station1.time_tag[order]
        # Emission times are recoverable only up to the delays, so test the
        # mean end-to-end span: n/rate within 5 sigma (sum of exponentials).
        span = t1[-1]
        n = cfg.n_pairs
        assert abs(span - n / rate) < 5.0 * np.sqrt(n) / rate + cfg.params.t0

    def test_locality_station1_ignores_station2_settings(self):
        cfg_a = small_config(settings2=(np.pi / 8, 3 * np.pi / 8))
        cfg_b = small_config(settings2=(3 * np.pi / 8, np.pi / 8))
        log_a = run_experiment(cfg_a)
        log_b = run_experiment(cfg_b)
        assert log_a.station1 == log_b.station1
        assert log_a.station2 != log_b.station2

    def test_rotational_invariance_statistical(self):
        # A common rotation of all settings leaves every coincidence
        # statistic invariant; compare outcome correlations at 5 sigma
        # with independent seeds.
        from references import paired_reference, table_reference

        n = 10**5
        delta = 0.6
        cfg_a = small_config(n_pairs=n, seed=21, settings1=(0.0,), settings2=(np.pi / 8,))
        cfg_b = small_config(n_pairs=n, seed=22, settings1=(delta,), settings2=(np.pi / 8 + delta,))
        e = {}
        se = {}
        for key, cfg in (("a", cfg_a), ("b", cfg_b)):
            log = run_experiment(cfg)
            counts = table_reference(log, *paired_reference(log, 0.05), cfg)
            sweep = SweepResult(windows=np.array([0.05]), counts=counts[None], n_pairs=n, cells=())
            e[key] = sweep.correlation[0, 0, 0]
            se[key] = sweep.stderr[0, 0, 0]
        sigma = np.hypot(se["a"], se["b"])
        assert abs(e["a"] - e["b"]) < 5.0 * sigma

    def test_invalid_worker_count(self):
        with pytest.raises(ValidationError):
            run_experiment(small_config(), n_workers=0)

    @pytest.mark.parametrize("emission", [EmissionSpec.regular(1e303), EmissionSpec.poisson(1e-305)],
                             ids=["regular", "poisson"])
    def test_emission_overflow_rejected(self, emission):
        # The third pair is emitted near 1e303 or later: finite, but not once scaled to 6 decimals.
        with pytest.raises(ValidationError, match="emission times overflow"):
            run_experiment(small_config(n_pairs=3, emission=emission))

    @pytest.mark.parametrize("emission", [EmissionSpec.regular(1e303), EmissionSpec.poisson(1e-305),
                                          EmissionSpec.poisson(1e-310), EmissionSpec.poisson(1 / 3e298)],
                             ids=["regular", "poisson", "poisson-infinite-gap", "poisson-second-segment"])
    def test_emission_overflow_rejected_on_threads(self, chunk_segments, emission):
        # Three segments on two threads.  Inter-arrival times computed in worker
        # threads overflow there, and emission times carried across segments
        # overflow too; under -W error an unguarded overflow would surface as a
        # RuntimeWarning.  At a subnormal rate the inter-arrival times themselves
        # overflow to inf.  At a mean gap of 3e298 the first segment's tags fit
        # (its last emission is near 1.2e302) and the second's do not.
        with pytest.raises(ValidationError, match="emission times overflow"):
            run_experiment(small_config(n_pairs=2 * CHUNK_PAIRS + 1, emission=emission), n_workers=2)


class TestMapRanges:
    SEGMENT = 8

    @pytest.fixture(autouse=True)
    def small_segments(self, monkeypatch):
        monkeypatch.setattr(eprsim.events, "SEGMENT_PAIRS", self.SEGMENT)

    @pytest.mark.parametrize("threads", [1, 2, 3, 64])
    @pytest.mark.parametrize("n", [0, 1, SEGMENT - 1, SEGMENT, SEGMENT + 1, 5 * SEGMENT + 3])
    def test_block_aligned_ranges_cover_the_rows_in_order(self, monkeypatch, n, threads):
        sizes = record_pool_sizes(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ranges = list(map_ranges(lambda start, stop: (start, stop), n, threads))
        # Results in order: segments of SEGMENT rows, the last one fewer; none for no rows.
        assert ranges == [(lo, min(lo + self.SEGMENT, n)) for lo in range(0, n, self.SEGMENT)]
        # One segment, one thread or one CPU runs inline and opens no pool.
        ahead = min(len(ranges), threads, 2)
        assert sizes == ([ahead] if ahead > 1 else [])

    @pytest.mark.parametrize("cpus, threads, ahead", [(2, 2, 2), (1, 2, 1), (4, 1, 1), (4, 3, 3)])
    def test_lazy_and_at_most_the_pool_ahead_of_the_consumer(self, monkeypatch, cpus, threads, ahead):
        # Segments start only as the consumer takes results, and while it holds
        # result i at most ``ahead`` more segments have started, on one pool
        # (inline, none ahead, for one thread).
        sizes = record_pool_sizes(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        started = []

        def fn(start, stop):
            started.append(start)
            return start

        results = map_ranges(fn, 10 * self.SEGMENT, threads)
        assert started == [] and sizes == []
        for i, start in enumerate(results):
            assert start == i * self.SEGMENT
            assert len(started) <= i + 1 + (ahead if ahead > 1 else 0)
        assert sorted(started) == [i * self.SEGMENT for i in range(10)]
        assert sizes == ([ahead] if ahead > 1 else [])

    @pytest.mark.parametrize("stop_by", ["error", "close"])
    def test_an_error_or_close_stops_the_ranges_and_their_threads(self, monkeypatch, stop_by):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        before = set(threading.enumerate())
        started = []

        def fn(start, stop):
            started.append(start)
            if stop_by == "error" and start == 3 * self.SEGMENT:
                raise ValidationError("segment 3 failed")
            return start

        results = map_ranges(fn, 10 * self.SEGMENT, 2)
        taken = [next(results) for _ in range(3)]
        if stop_by == "error":
            with pytest.raises(ValidationError, match="segment 3 failed"):
                next(results)
        else:
            results.close()
        assert taken == [0, self.SEGMENT, 2 * self.SEGMENT]
        # Holding segment 2, the pool's two threads ran ahead to segments 3 and 4; asking
        # for segment 3 queued segment 5.  Nothing after it started.
        assert max(started) <= 5 * self.SEGMENT
        assert set(threading.enumerate()) <= before


class TestEventLogPairing:
    def test_pair_filter_requires_ids(self):
        log = run_experiment(small_config(n_pairs=50))
        stripped = EventLog(station1=replace(log.station1, pair_id=None), station2=log.station2)
        with pytest.raises(ValidationError, match="needs pair ids"):
            check_pair_filter(stripped)

    def test_mismatched_pair_ids_rejected(self):
        log = run_experiment(small_config(n_pairs=50))
        bad = EventLog(station1=log.station1, station2=replace(log.station2, pair_id=log.station2.pair_id + 1))
        with pytest.raises(ValidationError, match="mismatched pair_id"):
            check_pair_filter(bad)

    def test_equality_distinguishes_missing_pair_ids(self):
        stream = run_experiment(small_config(n_pairs=50)).station1
        stripped = replace(stream, pair_id=None)
        assert stripped != stream and stream != stripped
        assert stripped == replace(stream, pair_id=None)
