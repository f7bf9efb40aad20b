"""Event-generation tests: determinism, stream structure, statistics."""

from dataclasses import replace

import numpy as np
import pytest

from eprsim import (
    EmissionSpec,
    EventLog,
    ExperimentConfig,
    ModelParams,
    ValidationError,
    generate_pair,
    pair_filter,
    read_tags,
    run_experiment,
    write_tags,
)
from eprsim.events import CHUNK_PAIRS, TIME_TAG_DECIMALS, pair_uniforms
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
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(mode="regular", interval=0.0), dict(mode="poisson"), dict(mode="burst")])
    def test_bad_emission_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            EmissionSpec(**kwargs)


class TestGeneratePair:
    def test_deterministic_for_fixed_seed(self):
        p = ModelParams(d=4.0, t0=1.0, window=0.1)
        a = generate_pair(7, 3.0, 0.2, 0.9, p, seed=5)
        b = generate_pair(7, 3.0, 0.2, 0.9, p, seed=5)
        assert a == b
        c = generate_pair(8, 3.0, 0.2, 0.9, p, seed=5)
        assert c != a

    def test_zero_misalignment_pins_station1(self):
        # Choosing the station-1 setting equal to the drawn hidden angle
        # makes zeta1 = 0: outcome +1 with certainty and zero delay.
        p = ModelParams(d=4.0, t0=1.0, window=0.1)
        for pair_id in range(25):
            s1 = float(hidden_from_uniform(pair_uniforms(seed=3, pair_id=pair_id)[0]))
            ev1, _ = generate_pair(pair_id, 10.0, s1, 0.33, p, seed=3)
            assert ev1.outcome == 1
            assert ev1.time_tag == 10.0

    def test_delay_bounded_by_t0(self):
        p = ModelParams(d=4.0, t0=1.0, window=0.1)
        for pair_id in range(200):
            ev1, ev2 = generate_pair(pair_id, 5.0, 0.3, 1.1, p, seed=9)
            for ev in (ev1, ev2):
                assert 5.0 <= ev.time_tag <= 5.0 + 1.0
                assert ev.outcome in (-1, 1)


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
        cfg = small_config(n_pairs=3 * CHUNK_PAIRS + 17)
        assert run_experiment(cfg, n_workers=1) == run_experiment(cfg, n_workers=workers)

    def test_matches_generate_pair_rows(self):
        # Single-setting lists make the per-pair scalar path directly
        # comparable, including across a chunk boundary.
        cfg = small_config(settings1=(0.3,), settings2=(1.2,), n_pairs=CHUNK_PAIRS + 40)
        log = run_experiment(cfg)
        dt = cfg.resolved_emission().interval
        order1 = np.argsort(log.station1.pair_id)
        order2 = np.argsort(log.station2.pair_id)
        for pid in [0, 1, 57, CHUNK_PAIRS - 1, CHUNK_PAIRS, CHUNK_PAIRS + 39]:
            ev1, ev2 = generate_pair(pid, pid * dt, 0.3, 1.2, cfg.params, cfg.seed)
            k1, k2 = order1[pid], order2[pid]
            assert log.station1.time_tag[k1] == ev1.time_tag
            assert log.station1.outcome[k1] == ev1.outcome
            assert log.station2.time_tag[k2] == ev2.time_tag
            assert log.station2.outcome[k2] == ev2.outcome

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
        from eprsim import pair_filter, tabulate

        n = 10**5
        delta = 0.6
        cfg_a = small_config(n_pairs=n, seed=21, settings1=(0.0,), settings2=(np.pi / 8,))
        cfg_b = small_config(n_pairs=n, seed=22, settings1=(delta,), settings2=(np.pi / 8 + delta,))
        e = {}
        se = {}
        for key, cfg in (("a", cfg_a), ("b", cfg_b)):
            table = tabulate(pair_filter(run_experiment(cfg), 0.05), cfg)
            e[key] = table.correlation[0, 0]
            se[key] = table.stderr[0, 0]
        sigma = np.hypot(se["a"], se["b"])
        assert abs(e["a"] - e["b"]) < 5.0 * sigma

    def test_invalid_worker_count(self):
        with pytest.raises(ValidationError):
            run_experiment(small_config(), n_workers=0)


class TestEventLogPairing:
    def test_pair_filter_requires_ids(self):
        log = run_experiment(small_config(n_pairs=50))
        stripped = EventLog(station1=replace(log.station1, pair_id=None), station2=log.station2)
        with pytest.raises(ValidationError, match="needs pair ids"):
            pair_filter(stripped, 0.1)

    def test_mismatched_pair_ids_rejected(self):
        log = run_experiment(small_config(n_pairs=50))
        bad = EventLog(station1=log.station1, station2=replace(log.station2, pair_id=log.station2.pair_id + 1))
        with pytest.raises(ValidationError, match="mismatched pair_id"):
            pair_filter(bad, 0.1)

    def test_equality_distinguishes_missing_pair_ids(self):
        stream = run_experiment(small_config(n_pairs=50)).station1
        stripped = replace(stream, pair_id=None)
        assert stripped != stream and stream != stripped
        assert stripped == replace(stream, pair_id=None)
