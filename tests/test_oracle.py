"""Oracle tests: weight function, adaptive quadrature, exact correlations.

Frozen expected values were computed with the adaptive integrator and
independently confirmed by a 16M-point midpoint rule over the hidden
angle and by the counting-grid weight evaluator below.  The Monte Carlo
is checked against the oracle at the end of this file.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from eprsim import (
    ExperimentConfig,
    ModelParams,
    QuadratureError,
    QuadratureSpec,
    ValidationError,
    chsh,
    chsh_exact,
    coincidence_rate_exact,
    correlation_curve,
    correlation_exact,
    joint_prob,
    mixed_correlation,
    pair_filter,
    run_experiment,
    singlet_correlation,
    tabulate,
    weight_exact,
)
from eprsim.analysis import DEFAULT_QUADRUPLE
from eprsim.cli import main, parse_windows
from eprsim.model import delay_timescale, misalignments
from eprsim.oracle import DEFAULT_QUAD, _anchor_points, _gk15, _integrals, _integrate

times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)

GRID_POINTS = 2_000_003


def weight_exact_grid(t1: float, t2: float, window: float, n: int = GRID_POINTS) -> float:
    """Independent fixed-grid 2-D midpoint evaluation of the weight.

    Counts midpoints (i+1/2)h1, (j+1/2)h2 of an n x n cell grid that fall
    inside the band |x - y| <= window; the count is resolved per row in
    closed index arithmetic, which equals the literal n x n sum.  The
    absolute error is bounded by 1/n.
    """
    if t1 == 0.0 and t2 == 0.0:
        return 1.0
    if t1 == 0.0 or t2 == 0.0:
        tt = t2 if t1 == 0.0 else t1
        h = tt / n
        count = int(np.clip(np.floor(window / h + 0.5), 0, n))
        return count / n
    h1 = t1 / n
    h2 = t2 / n
    mid1 = (np.arange(n) + 0.5) * h1
    jlo = np.ceil((mid1 - window) / h2 - 0.5)
    jhi = np.floor((mid1 + window) / h2 - 0.5)
    counts = np.clip(jhi, -1, n - 1) - np.clip(jlo, 0, n) + 1.0
    return float(np.sum(np.clip(counts, 0.0, None)) / (float(n) * float(n)))


def correlation_midpoint(a1: float, a2: float, params: ModelParams, n: int = 200_000) -> float:
    """E(a1, a2) by an n-node midpoint rule over the hidden angle on [0, pi)."""
    s = (np.arange(n) + 0.5) * (np.pi / n)
    z1 = a1 - s
    z2 = (a2 - 0.5 * np.pi) - s
    w = weight_exact(delay_timescale(z1, params), delay_timescale(z2, params), params.window)
    return float(np.sum(np.cos(2 * z1) * np.cos(2 * z2) * w) / np.sum(w))


class TestWeightExact:
    def test_window_covers_square(self):
        assert weight_exact(1.0, 1.0, 1.0) == 1.0
        assert weight_exact(1.0, 1.0, 7.0) == 1.0

    def test_zero_window_zero_measure(self):
        assert weight_exact(1.0, 1.0, 0.0) == 0.0

    def test_zero_window_exactly_zero_for_positive_timescales(self):
        # The corner formula left 1-ulp residues here for about a quarter of the pairs.
        rng = np.random.default_rng(12)
        t1, t2 = rng.uniform(0, 1000, (2, 100_000))
        assert np.all(t1 > 0) and np.all(t2 > 0)
        assert np.count_nonzero(weight_exact(t1, t2, 0.0)) == 0

    def test_half_window_unit_square(self):
        # Unit square minus two corner triangles of area (1 - 1/2)^2 / 2:
        # confirmed against the 2-D counting grid below.
        assert weight_exact(1.0, 1.0, 0.5) == pytest.approx(0.75, abs=1e-15)
        assert abs(weight_exact_grid(1.0, 1.0, 0.5) - 0.75) < 1e-6

    def test_degenerate_point_masses(self):
        assert weight_exact(0.0, 1.0, 0.3) == pytest.approx(0.3)
        assert weight_exact(0.0, 1.0, 2.0) == 1.0
        assert weight_exact(0.0, 0.0, 0.0) == 1.0
        assert weight_exact(0.0, 0.0, 0.5) == 1.0

    def test_negative_arguments_rejected(self):
        for bad in [(-1, 1, 0.1), (1, -1, 0.1), (1, 1, -0.1)]:
            with pytest.raises(ValidationError):
                weight_exact(*bad)

    def test_nan_arguments_rejected(self):
        nan = float("nan")
        for bad in [(1.0, 2.0, nan), (1.0, nan, 0.5), (nan, 1.0, 0.5), (np.array([1.0, nan]), 1.0, 0.5),
                    (np.ones(3), np.array([0.5, 2.0, nan]), 0.5), (np.ones(2), np.ones(2), nan)]:
            with pytest.raises(ValidationError):
                weight_exact(*bad)

    # Explicit examples: subnormal sides where t1 * t2 underflows to 0.
    @given(t1=times, t2=times, w=times)
    @example(t1=0.5, t2=5e-324, w=0.25)
    @example(t1=1.1e-308, t2=1.1e-308, w=0.0)
    def test_bounds_and_symmetry(self, t1, t2, w):
        val = weight_exact(t1, t2, w)
        assert 0.0 <= val <= 1.0
        assert weight_exact(t2, t1, w) == pytest.approx(val, abs=1e-12)

    @given(t1=times, t2=times, w=st.floats(min_value=0, max_value=50))
    @example(t1=0.5, t2=5e-324, w=0.0)
    @example(t1=1.1e-308, t2=1.1e-308, w=0.0)
    def test_monotone_in_window(self, t1, t2, w):
        assert weight_exact(t1, t2, w + 0.5) >= weight_exact(t1, t2, w) - 1e-12

    @given(t1=times, t2=times)
    @example(t1=0.5, t2=5e-324)
    @example(t1=1.1e-308, t2=1.1e-308)
    def test_saturates_at_max_timescale(self, t1, t2):
        assert weight_exact(t1, t2, max(t1, t2)) == pytest.approx(1.0, abs=1e-12)

    def test_grid_agreement_panel(self):
        # Full 10x10x10 agreement at 1e-6 is an acceptance criterion; this
        # is a fast spot check including clipped-corner geometries.
        for t1, t2, w in [(1.0, 1.0, 0.3), (2.0, 0.5, 0.7), (0.2, 1.7, 0.05), (1.0, 3.0, 2.5)]:
            assert abs(weight_exact(t1, t2, w) - weight_exact_grid(t1, t2, w)) < 1e-6

    def test_vectorized(self):
        t1 = np.array([1.0, 0.0, 2.0])
        t2 = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(weight_exact(t1, t2, 0.5), [0.75, 0.5, 0.4375])


class TestWeightApprox:
    """The weight's small-window linearization 2W / max(t1, t2)."""

    def test_relative_error_formula_unit_square(self):
        # exact = 2W - W^2 on the unit square, so the relative error of
        # 2W is W / (2 - W).
        for w in (0.01, 0.05, 0.2):
            exact = weight_exact(1.0, 1.0, w)
            assert exact == pytest.approx(2 * w - w * w, abs=1e-15)
            rel = (2.0 * w - exact) / exact
            assert rel == pytest.approx(w / (2.0 - w), rel=1e-9)

    @pytest.mark.parametrize("t1,t2", [(1.0, 1.0), (1.0, 0.5), (0.8, 0.2)])
    def test_error_vanishes_linearly(self, t1, t2):
        ws = np.geomspace(1e-4, 1e-1, 12)
        exact = np.array([weight_exact(t1, t2, w) for w in ws])
        rel = np.abs(2.0 * ws / max(t1, t2) - exact) / exact
        slope = np.polyfit(np.log(ws), np.log(rel), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)


def with_unit_first(f):
    """A batch integrand (1, f(s)) for _integrate.

    Its first integral is the length L of the range, so a relative budget
    rtol is an absolute one of rtol * L on the second integral.
    """
    return lambda p, s: np.stack((np.ones_like(s), f(s)))


class TestQuadratureMachinery:
    def test_gk15_exact_for_low_degree_polynomials(self):
        val, err = _gk15(lambda p, s: (3 * s**2)[None], np.zeros(1, int), np.array([0.0]), np.array([2.0]))
        assert val[0, 0] == pytest.approx(8.0, rel=1e-14)
        assert err[0] < 1e-12

    def test_adaptive_converges_on_oscillatory(self):
        val, err, n = _integrate(with_unit_first(lambda x: np.cos(40 * x)), [0, 0], [0.0, np.pi], 1e-12 / np.pi, 2000)
        assert val[0, 1] == pytest.approx(np.sin(40 * np.pi) / 40, abs=1e-12)
        assert err[0] <= 1e-12
        assert 1 < n[0] <= 2000

    def test_limit_caps_the_panels(self):
        # From one panel a round splits every panel (1, 2, 4, ...); the
        # last round may split only 3 of the 4 to stop at 7.
        val, err, n = _integrate(with_unit_first(lambda x: np.cos(40 * x)), [0, 0], [0.0, np.pi], 1e-12 / np.pi, 7)
        assert n[0] == 7
        assert err[0] > 1e-12

    def test_adaptive_handles_kink(self):
        val, err, n = _integrate(with_unit_first(lambda x: np.abs(x - 0.7)), [0, 0], [0.0, 2.0], 0.5e-12, 4000)
        assert val[0, 1] == pytest.approx(0.5 * 0.7**2 + 0.5 * 1.3**2, abs=1e-11)

    def test_each_point_meets_its_own_budget(self):
        # Three points whose first integrals differ by 12 orders of
        # magnitude: with one budget for the whole batch the small ones
        # would stop far outside their own.
        scale = np.array([1.0, 1e-6, 1e-12])

        def f(p, s):
            return np.stack((scale[p] * (1.0 + np.sin(s) ** 2), scale[p] * np.abs(np.cos(3 * s) - 0.2)))

        val, err, n = _integrate(f, [0, 0, 1, 1, 2, 2], [0.0, np.pi, 0.0, np.pi, 0.0, np.pi], 1e-10, 4000)
        np.testing.assert_allclose(val[:, 0], 1.5 * np.pi * scale, rtol=1e-13)
        assert np.all(err <= 1e-10 * val[:, 0])
        # Scaling a point's integrand leaves its panels as they were.
        assert n[0] == n[1] == n[2]

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            QuadratureSpec(tol=0.0)
        with pytest.raises(ValidationError):
            QuadratureSpec(limit=0)

    def test_nonconvergence_reports_achieved_error(self):
        params = ModelParams(d=4.0, t0=1.0, window=1e-3)
        starved = QuadratureSpec(tol=1e-12, limit=12)
        with pytest.raises(QuadratureError) as info:
            correlation_exact(0.3, 0.0, params, starved)
        assert info.value.achieved is not None and info.value.achieved > 1e-12

    def test_starved_point_in_batch_reports_its_own_achieved(self):
        # At delta = 0 the seeds give 6 panels and the pass needs 24; at
        # delta = 0.2 they give 20, and 30 panels are not enough.
        params = ModelParams(d=4.0, t0=1.0, window=1e-3)
        quad = QuadratureSpec(limit=30)
        assert np.isfinite(correlation_exact(0.0, 0.0, params, quad))
        with pytest.raises(QuadratureError) as alone:
            correlation_exact(0.2, 0.0, params, quad)
        with pytest.raises(QuadratureError, match="quadrature did not converge") as batch:
            correlation_curve([0.0, 0.0, 0.2, 0.0], params, quad)
        assert alone.value.achieved > quad.tol
        assert batch.value.achieved == pytest.approx(alone.value.achieved, rel=1e-9)

    def test_curve_points_do_not_couple(self):
        # Every point of a batch gets the panels it gets alone.
        params = ModelParams(d=4.0, t0=1000.0, window=10.0)
        deltas = np.linspace(0.0, np.pi, 64)
        curve = correlation_curve(deltas, params)
        alone = np.array([correlation_exact(d, 0.0, params) for d in deltas])
        np.testing.assert_allclose(curve, alone, rtol=0, atol=1e-14)

    def test_empty_curve(self):
        assert correlation_curve([], ModelParams()).shape == (0,)


# The four CHSH setting pairs, at every fourth window of the S(W) sweep,
# where the |T1 - T2| = W kinks matter, and a few other (d, W, delta).
QUAD_VEC_CASES = [
    (4.0, w, a1, a2)
    for w in parse_windows("1:1000:log20")[::4]
    for a1 in DEFAULT_QUADRUPLE[:2]
    for a2 in DEFAULT_QUADRUPLE[2:]
] + [(4.0, 10.0, 0.7, 0.0), (2.0, 30.0, 0.3, 0.0), (6.0, 500.0, 1.2, 0.0), (1.0, 3.0, 2.0, 0.0),
     (0.0, 10.0, 0.4, 0.0), (4.0, 1000.0, 0.0, 0.0)]


class TestQuadVecCrossCheck:
    """The batched pass against scipy's quad_vec, seeded with the same anchors."""

    @staticmethod
    def reference(a1, a2, params):
        quad_vec = pytest.importorskip("scipy.integrate").quad_vec

        def integrand(s):
            z1, z2 = misalignments(a1, a2, s)
            w = weight_exact(delay_timescale(z1, params), delay_timescale(z2, params), params.window)
            return np.array([w, np.cos(2 * z1) * np.cos(2 * z2) * w])

        _, seeds = _anchor_points(np.array([a1]), np.array([a2]), params)
        (d, c12), _ = quad_vec(integrand, 0.0, np.pi, epsabs=1e-13, epsrel=0.0, points=seeds[1:-1], limit=100_000)
        return d, c12

    @pytest.mark.parametrize("d,window,a1,a2", QUAD_VEC_CASES)
    def test_agrees_with_quad_vec(self, d, window, a1, a2):
        params = ModelParams(d=d, t0=1000.0, window=window)
        d_ref, c12_ref = self.reference(a1, a2, params)
        d_val, _, _, c12 = _integrals([a1], [a2], params, DEFAULT_QUAD)[0]
        assert abs(c12 / d_val - c12_ref / d_ref) <= DEFAULT_QUAD.tol
        assert abs(d_val - d_ref) <= 0.25 * DEFAULT_QUAD.tol * d_val


class TestReferenceCorrelations:
    def test_singlet_values(self):
        assert singlet_correlation(0.0, 0.0) == -1.0
        assert singlet_correlation(np.pi / 4, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert singlet_correlation(np.pi / 8, 0.0) == pytest.approx(-np.sqrt(2) / 2)

    def test_mixed_values(self):
        assert mixed_correlation(0.0, 0.0) == -0.5
        assert mixed_correlation(np.pi / 4, 0.0) == pytest.approx(0.0, abs=1e-15)

    @given(delta=st.floats(min_value=-6, max_value=6))
    def test_mixed_is_half_singlet(self, delta):
        assert mixed_correlation(delta, 0.0) == pytest.approx(0.5 * singlet_correlation(delta, 0.0), abs=1e-15)


class TestJointProb:
    def test_outcomes_validated(self):
        p = ModelParams(d=0, t0=1.0, window=0.5)
        with pytest.raises(ValidationError):
            joint_prob(0, 1, 0.0, 0.0, p)

    @pytest.mark.parametrize(
        "d,w,delta",
        [(4.0, 1e-3, np.pi / 8), (4.0, 0.1, 1.0), (2.0, 1e-2, 0.3), (0.0, 0.5, 2.0), (1.0, 1e-3, 0.0)],
    )
    def test_normalization(self, d, w, delta):
        p = ModelParams(d=d, t0=1.0, window=w)
        total = sum(joint_prob(x1, x2, delta, 0.0, p) for x1 in (-1, 1) for x2 in (-1, 1))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_d_zero_factorizes_to_mixed(self):
        # Constant timescale makes the weight cancel: the selected
        # ensemble is the raw separable one at every window.
        for w in (0.01, 0.3, 2.0):
            p = ModelParams(d=0.0, t0=1.0, window=w)
            e = sum(x1 * x2 * joint_prob(x1, x2, 0.4, 0.0, p) for x1 in (-1, 1) for x2 in (-1, 1))
            assert e == pytest.approx(mixed_correlation(0.4, 0.0), abs=1e-8)

    def test_equal_settings_same_outcome_suppressed(self):
        # Narrow window, d = 4: the surviving ensemble approaches perfect
        # anticorrelation.  Frozen value cross-checked by two independent
        # integrators; it equals (1 + E(0)) / 4 by outcome symmetry.
        p = ModelParams(d=4.0, t0=1.0, window=1e-3)
        val = joint_prob(+1, +1, 0.0, 0.0, p)
        assert val == pytest.approx(0.0106597799, abs=2e-7)
        # Deeper into the narrow-window regime the probability keeps
        # falling toward the quantum value 0.
        p5 = ModelParams(d=4.0, t0=1.0, window=1e-5)
        val5 = joint_prob(+1, +1, 0.0, 0.0, p5)
        assert val5 == pytest.approx(0.0011026093, abs=2e-7)
        assert val5 < 0.005

    def test_consistent_with_correlation_exact(self):
        p = ModelParams(d=4.0, t0=1.0, window=0.05)
        delta = 0.7
        e_sum = sum(x1 * x2 * joint_prob(x1, x2, delta, 0.0, p) for x1 in (-1, 1) for x2 in (-1, 1))
        assert e_sum == pytest.approx(correlation_exact(delta, 0.0, p), abs=1e-7)


class TestCorrelationExact:
    def test_frozen_narrow_window_values(self):
        p = ModelParams(d=4.0, t0=1.0, window=1e-3)
        assert correlation_exact(0.0, 0.0, p) == pytest.approx(-0.9573608804, abs=2e-7)
        assert correlation_exact(np.pi / 8, 0.0, p) == pytest.approx(-0.7020660874, abs=2e-7)

    def test_depends_on_difference_only(self):
        p = ModelParams(d=4.0, t0=1.0, window=0.02)
        assert correlation_exact(0.9, 0.5, p) == pytest.approx(correlation_exact(0.4, 0.0, p), abs=1e-7)

    def test_even_in_delta(self):
        p = ModelParams(d=4.0, t0=1.0, window=0.02)
        assert correlation_exact(0.6, 0.0, p) == pytest.approx(correlation_exact(-0.6, 0.0, p), abs=1e-7)

    def test_d_zero_is_mixed_state(self):
        p = ModelParams(d=0.0, t0=1.0, window=0.1)
        for delta in (0.0, 0.3, 1.0, 2.2):
            assert correlation_exact(delta, 0.0, p) == pytest.approx(mixed_correlation(delta, 0.0), abs=1e-9)

    def test_wide_window_is_mixed_state(self):
        p = ModelParams(d=4.0, t0=1.0, window=1.0)
        for delta in (0.0, 0.3, 1.0):
            assert correlation_exact(delta, 0.0, p) == pytest.approx(mixed_correlation(delta, 0.0), abs=1e-9)

    @pytest.mark.parametrize("window", parse_windows("1:1000:log20"))
    def test_meets_tolerance_across_sweep_windows(self, window):
        # The |T1 - T2| = W kinks must seed the adaptive pass: without them
        # the error estimate is optimistic and E misses tol by up to 1.7e-7
        # here.  The 2e5-node midpoint reference is good to ~4e-11.
        p = ModelParams(d=4.0, t0=1000.0, window=window)
        a, ap, b, bp = DEFAULT_QUADRUPLE
        for a1, a2 in [(a, b), (a, bp), (ap, b), (ap, bp)]:
            assert abs(correlation_exact(a1, a2, p) - correlation_midpoint(a1, a2, p)) <= DEFAULT_QUAD.tol

    def test_curve_shape(self):
        p = ModelParams(d=0.0, t0=1.0, window=0.5)
        deltas = np.linspace(0, np.pi, 9)
        curve = correlation_curve(deltas, p)
        np.testing.assert_allclose(curve, -0.5 * np.cos(2 * deltas), atol=1e-9)


class TestRateAndChsh:
    def test_rate_frozen_value(self):
        p = ModelParams(d=4.0, t0=1.0, window=1e-3)
        assert coincidence_rate_exact(np.pi / 8, 0.0, p) == pytest.approx(0.0083886388, abs=1e-8)

    def test_rate_one_at_full_window(self):
        p = ModelParams(d=4.0, t0=1.0, window=1.0)
        assert coincidence_rate_exact(0.7, 0.0, p) == pytest.approx(1.0, abs=1e-10)

    def test_chsh_narrow_window_frozen(self):
        p = ModelParams(d=4.0, t0=1.0, window=1e-3)
        assert chsh_exact(p) == pytest.approx(2.8082643578, abs=1e-6)

    def test_chsh_d_zero_is_sqrt2(self):
        p = ModelParams(d=0.0, t0=1.0, window=0.1)
        assert chsh_exact(p) == pytest.approx(np.sqrt(2.0), abs=1e-9)

    @pytest.mark.parametrize("d", [0.0, 2.0, 4.0, 6.0])
    def test_larsson_gill_coincidence_time_bound(self, d):
        # Larsson & Gill (EPL 67, 707, 2004): a local model post-selected
        # by coincidence time obeys S <= 6/gamma - 4, gamma the smallest
        # coincidence probability over the four CHSH setting pairs.  The
        # bound constrains S only where gamma > 3/4 (it is then below 4);
        # here that holds at W = 750 and at W = t0, where it is 2.
        a, ap, b, bp = DEFAULT_QUADRUPLE
        constraining = 0
        for window in (*np.geomspace(1.0, 1000.0, 5), 750.0):
            p = ModelParams(d=d, t0=1000.0, window=window)
            gamma = min(coincidence_rate_exact(x, y, p) for x in (a, ap) for y in (b, bp))
            assert chsh_exact(p) <= 6.0 / gamma - 4.0
            constraining += gamma > 0.75
        assert constraining == 2

    @pytest.mark.parametrize("d", [0.0, 2.0, 4.0])
    def test_zero_window_has_zero_normalization(self, d):
        p = ModelParams(d=d, t0=1000.0, window=0.0)
        with pytest.raises(QuadratureError, match="coincidence normalization integral is zero"):
            coincidence_rate_exact(0.0, np.pi / 8, p)

    def test_cli_zero_window_exits_2(self, tmp_path, capsys):
        assert main(["--mode", "oracle", "--window", "0", "--out", str(tmp_path)]) == 2
        assert "coincidence normalization integral is zero" in capsys.readouterr().err

    def test_scale_invariance_in_w_over_t0(self):
        a = ModelParams(d=4.0, t0=1.0, window=1e-2)
        b = ModelParams(d=4.0, t0=1000.0, window=10.0)
        assert chsh_exact(a) == pytest.approx(chsh_exact(b), abs=1e-8)


class TestNonFiniteSettings:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_entry_point_rejects(self, bad):
        p = ModelParams()
        calls = [
            lambda: joint_prob(1, 1, bad, 0.0, p),
            lambda: correlation_exact(bad, 0.0, p),
            lambda: correlation_exact(0.0, bad, p),
            lambda: correlation_curve([0.1, bad], p),
            lambda: coincidence_rate_exact(0.3, bad, p),
            lambda: chsh_exact(p, (bad, 0.7, 0.3, 1.1)),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="finite"):
                call()


class TestMonteCarloAgreement:
    """The event generator and paired filter against the oracle, at 4 sigma.

    Station 2 adds setting 0 to the CHSH pair, so the cells include
    delta = 0 and delta = pi/4, the two ends of the coincidence rate's
    range (0.327 and 0.029 at d = 4, W = 10); at the CHSH angles all four
    rates are equal.  The grid and the seed were fixed before the first run.
    """

    @pytest.mark.parametrize("d,window", [(4.0, 10.0), (4.0, 100.0), (2.0, 30.0), (0.0, 10.0), (4.0, 1000.0)])
    def test_chsh_and_rates_match_oracle(self, d, window):
        params = ModelParams(d=d, t0=1000.0, window=window)
        a, ap, b, bp = DEFAULT_QUADRUPLE
        cfg = ExperimentConfig(params=params, settings1=(a, ap), settings2=(b, bp, 0.0), n_pairs=400_000, seed=11)
        log = run_experiment(cfg)
        table = tabulate(pair_filter(log, window), cfg)

        result = chsh(table, DEFAULT_QUADRUPLE)
        assert abs(result.s - chsh_exact(params)) < 4.0 * result.stderr

        n2 = len(cfg.settings2)
        cell = log.station1.setting_index.astype(np.int64) * n2 + log.station2.setting_index
        emitted = np.bincount(cell, minlength=table.n_total.size).reshape(table.n_total.shape)
        for (i, j), n in np.ndenumerate(emitted):
            kept = table.n_total[i, j]
            if window >= params.t0:
                assert kept == n
                continue
            rate = coincidence_rate_exact(cfg.settings1[i], cfg.settings2[j], params)
            assert abs(kept / n - rate) < 4.0 * np.sqrt(rate * (1.0 - rate) / n)
