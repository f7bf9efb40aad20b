"""Model-layer unit tests: Malus probabilities, delay timescales, uniform-variate maps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from eprsim import ExperimentConfig, ModelParams, ValidationError
from eprsim.events import CHUNK_PAIRS, _chunk_uniforms, _generate_columns
from eprsim.model import (
    delay_from_uniform,
    delay_timescale,
    hidden_from_uniform,
    normalize_angle,
    outcome_from_uniform,
    outcome_prob,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert (p.d, p.t0, p.window) == (4.0, 1000.0, 10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(t0=0.0), dict(t0=-1.0), dict(t0=np.inf), dict(t0=np.nan), dict(window=-0.1), dict(d=-1.0)],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ModelParams(**kwargs)


class TestOutcomeProb:
    def test_plus_at_zero(self):
        assert outcome_prob(+1, 0.0) == 1.0

    def test_minus_at_zero(self):
        assert outcome_prob(-1, 0.0) == 0.0

    def test_malus_at_pi_over_8(self):
        # cos(pi/4) = sqrt(2)/2, so p(+1) = (1 + sqrt(2)/2) / 2
        assert outcome_prob(+1, np.pi / 8) == pytest.approx(0.8535533905932737, abs=1e-15)

    def test_invalid_outcome_rejected(self):
        with pytest.raises(ValidationError):
            outcome_prob(0, 0.3)
        with pytest.raises(ValidationError):
            outcome_prob(2, 0.3)

    @given(zeta=angles)
    def test_normalization_is_exact(self, zeta):
        assert outcome_prob(+1, zeta) + outcome_prob(-1, zeta) == 1.0

    @given(zeta=angles)
    def test_range(self, zeta):
        p = outcome_prob(+1, zeta)
        assert 0.0 <= p <= 1.0

    @given(zeta=angles)
    def test_pi_periodic(self, zeta):
        assert outcome_prob(+1, zeta + np.pi) == pytest.approx(outcome_prob(+1, zeta), abs=1e-9)


class TestDelayTimescale:
    def test_max_at_pi_over_4(self):
        assert delay_timescale(np.pi / 4, ModelParams(d=4, t0=1.0, window=0)) == pytest.approx(1.0)

    def test_zero_at_zero(self):
        assert delay_timescale(0.0, ModelParams(d=4, t0=1.0, window=0)) == 0.0

    def test_half_power(self):
        # |sin(pi/4)|^2 = 1/2 with t0 = 2
        assert delay_timescale(np.pi / 8, ModelParams(d=2, t0=2.0, window=0)) == pytest.approx(1.0)

    def test_d_zero_is_constant_everywhere(self):
        p = ModelParams(d=0, t0=3.0, window=0)
        zeta = np.array([0.0, np.pi / 2, np.pi / 4, 1.234])
        assert np.all(delay_timescale(zeta, p) == 3.0)

    @given(zeta=angles, d=st.floats(min_value=0, max_value=8), t0=st.floats(min_value=1e-3, max_value=1e4))
    def test_range_and_period(self, zeta, d, t0):
        p = ModelParams(d=d, t0=t0, window=0)
        t = delay_timescale(zeta, p)
        assert 0.0 <= t <= t0
        # Near the zeros a fractional power d < 1 amplifies the rounding
        # of sin(2 zeta); the tolerance has to scale accordingly.
        atol = 10.0 * t0 * (5e-16) ** min(d, 1.0) if d > 0 else 0.0
        assert delay_timescale(zeta + np.pi, p) == pytest.approx(t, rel=1e-9, abs=atol)


class TestSamplers:
    """Distributions of the uniform-variate maps fed with rng.random draws."""

    def test_outcome_deterministic_extremes(self):
        rng = np.random.default_rng(1)
        assert np.all(outcome_from_uniform(rng.random(200), 0.0) == 1)
        assert np.all(outcome_from_uniform(rng.random(200), np.pi / 2) == -1)

    def test_outcome_mean_unbiased_at_pi_over_4(self):
        rng = np.random.default_rng(2)
        n = 10**6
        draws = outcome_from_uniform(rng.random(n), np.full(n, np.pi / 4))
        assert abs(draws.mean()) < 5.0 / np.sqrt(n)

    @pytest.mark.parametrize("zeta", np.linspace(0.05, 3.0, 7))
    def test_outcome_frequency_matches_probability(self, zeta):
        rng = np.random.default_rng(int(zeta * 1000))
        n = 40_000
        freq = np.mean(outcome_from_uniform(rng.random(n), np.full(n, zeta)) == 1)
        assert abs(freq - outcome_prob(+1, zeta)) < 5.0 / np.sqrt(n)

    def test_delay_at_degenerate_timescale_is_zero(self):
        rng = np.random.default_rng(3)
        p = ModelParams(d=4, t0=1.0, window=0)
        assert np.all(delay_from_uniform(rng.random(100), 0.0, p) == 0.0)

    def test_delay_mean_is_half_timescale(self):
        rng = np.random.default_rng(4)
        p = ModelParams(d=4, t0=1.0, window=0)
        n = 10**6
        draws = delay_from_uniform(rng.random(n), np.full(n, np.pi / 4), p)
        sigma = (1.0 / np.sqrt(12.0)) / np.sqrt(n)
        assert abs(draws.mean() - 0.5) < 5.0 * sigma

    def test_delay_uniform_ks(self):
        rng = np.random.default_rng(5)
        p = ModelParams(d=4, t0=2.0, window=0)
        zeta = np.pi / 8
        scale = delay_timescale(zeta, p)
        draws = delay_from_uniform(rng.random(10**5), np.full(10**5, zeta), p)
        assert np.all((0 <= draws) & (draws <= scale))
        assert stats.kstest(draws / scale, "uniform").pvalue > 0.001

    def test_delay_d_zero_spans_t0(self):
        rng = np.random.default_rng(6)
        p = ModelParams(d=0, t0=1.0, window=0)
        draws = delay_from_uniform(rng.random(1000), np.full(1000, np.pi / 4), p)
        assert np.all((0 <= draws) & (draws <= 1.0))


class TestHiddenPair:
    def test_orthogonality(self):
        # s2 = s1 + pi/2: setting station 1 to s1 and station 2 to s1 + pi/2
        # puts both at zero misalignment, so both give +1 with zero delay.
        p = ModelParams(d=4.0, t0=1.0, window=0.1)
        n = 500
        for pid in range(n):
            u = _chunk_uniforms(7, pid // CHUNK_PAIRS, pid % CHUNK_PAIRS + 1)[-1]
            s1 = float(hidden_from_uniform(u[0]))
            cfg = ExperimentConfig(params=p, settings1=(s1,), settings2=(s1 + 0.5 * np.pi,), n_pairs=n, seed=7)
            cols = {name: np.zeros(n) for name in ("idx1", "idx2", "x1", "x2", "delay1", "delay2", "gap")}
            _generate_columns(cfg, cols, pid, pid + 1)
            assert (cols["x1"][pid], cols["x2"][pid]) == (1, 1)
            assert cols["delay1"][pid] == cols["delay2"][pid] == 0.0

    def test_range(self):
        rng = np.random.default_rng(8)
        draws = hidden_from_uniform(rng.random(2000))
        assert np.all((0 <= draws) & (draws < 2 * np.pi))

    def test_uniformity_mod_pi_ks(self):
        rng = np.random.default_rng(9)
        s1 = hidden_from_uniform(rng.random(10**5))
        assert stats.kstest((s1 % np.pi) / np.pi, "uniform").pvalue > 0.001


class TestUniformMaps:
    """Pointwise behaviour of the deterministic maps the event generator uses."""

    def test_outcome_threshold(self):
        zeta = 0.7
        p = outcome_prob(+1, zeta)
        assert outcome_from_uniform(p - 1e-9, zeta) == 1
        assert outcome_from_uniform(p + 1e-9, zeta) == -1

    def test_delay_scales_uniform(self):
        p = ModelParams(d=2, t0=5.0, window=0)
        u = np.array([0.0, 0.25, 1.0 - 1e-16])
        d = delay_from_uniform(u, np.pi / 4, p)
        assert np.allclose(d, u * 5.0)

    def test_rotation_of_settings_and_hidden_cancels(self):
        # zeta = a - s is unchanged when both rotate by delta, so every
        # derived quantity is too.
        u = np.linspace(0, 1, 11, endpoint=False)
        s = hidden_from_uniform(u)
        for delta in (0.1, 1.0, np.pi / 3):
            np.testing.assert_allclose((0.4 + delta) - (s + delta), 0.4 - s, atol=1e-12)


# The kernels' one-line forms: the in-place kernels must give their bits.
def outcome_prob_ref(x, zeta):
    return (1.0 + x * np.cos(2.0 * np.asarray(zeta, dtype=float))) * 0.5


def outcome_from_uniform_ref(u, zeta):
    return np.where(u < outcome_prob_ref(+1, zeta), 1, -1).astype(np.int8)


def delay_timescale_ref(zeta, params):
    return params.t0 * np.abs(np.sin(2.0 * np.asarray(zeta, dtype=float))) ** params.d


def delay_from_uniform_ref(u, zeta, params):
    return np.asarray(u, dtype=float) * delay_timescale_ref(zeta, params)


# An int and a float d: numpy special-cases some exponents of each type.
@pytest.mark.parametrize("d", [0, 0.0, 0.5, 1, 1.0, 2, 2.0, 4, 4.0])
def test_kernels_have_the_bits_of_their_one_line_forms(d):
    params = ModelParams(d=d, t0=1000.0)
    rng = np.random.default_rng(11)
    zeros = np.arange(-8, 9) * (np.pi / 2)  # sin 2 zeta is 0, or rounds to nearly 0
    zeta = np.concatenate([rng.uniform(-7.0, 7.0, 4096), zeros, zeros + np.pi / 4, [0.0, -0.0, np.nan]])
    u = rng.random(len(zeta))
    # Arrays, then Python floats and numpy scalars; a scalar's power is numpy's scalar power.
    cases = [(u, zeta)] + [(float(a), float(z)) for a, z in zip(u[::11], zeta[::11])]
    cases += [(a, z) for a, z in zip(u[-40:], zeta[-40:])]
    for a, z in cases:
        for got, want in [
            (outcome_prob(+1, z), outcome_prob_ref(+1, z)),
            (outcome_prob(-1, z), outcome_prob_ref(-1, z)),
            (outcome_from_uniform(a, z), outcome_from_uniform_ref(a, z)),
            (delay_timescale(z, params), delay_timescale_ref(z, params)),
            (delay_from_uniform(a, z, params), delay_from_uniform_ref(a, z, params)),
        ]:
            assert type(got) is type(want) and got.dtype == want.dtype and got.shape == want.shape
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (z, d)


def test_normalize_angle():
    assert normalize_angle(np.pi + 0.5) == pytest.approx(0.5)
    assert normalize_angle(-0.25) == pytest.approx(np.pi - 0.25)
    assert normalize_angle(0.0) == 0.0
