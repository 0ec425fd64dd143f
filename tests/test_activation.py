"""Tests for the implicit activation kernel."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pnet.activation import (
    EPS_V,
    EXIT_TOL,
    P_MAX,
    P_MIN,
    ActivationParams,
    _scalar_layer,
    derivative_terms,
    dv_da,
    dv_da_many,
    dv_dp,
    dv_dp_many,
    eval_p2,
    evaluate,
    evaluate_many,
    method1_step,
    method2_step,
    residual,
    threshold_input,
)
from pnet.oracle import bisect_root, finite_diff

N_CASES = 200

# Values frozen from the independent bisection oracle (tests/test_oracle.py
# re-derives them from scratch; here they pin the production kernel).
FROZEN_EVAL = {
    # (a, p, lam): root of lam*p*|v|**(p-1)*sign(v) + (v - a)
    (2.0, 1.5, 1.0): 0.7238284109626818,
    (-7.0, 3.0, 0.1): -3.443236572251964,
    (0.5, 1.01, 1e-10): 0.4999999998996977,
    (100.0, 100.0, 1.0): 0.9998984969641975,
}
FROZEN_THRESHOLDS = {
    # (p, lam): input magnitude where the activation slope equals 0.5
    (3.0, 1e-10): 2500000000.0,
    (3.0, 1.0): 0.25,
    (5.0, 1e-10): 992.1256574801242,
    (5.0, 1.0): 0.4605039373300484,
    (10.0, 1e-10): 11.258413019321257,
    (10.0, 1.0): 0.6331070896825394,
    (100.0, 1e-10): 1.163144935455071,
    (100.0, 1.0): 0.9195874120256238,
}


def random_params(rng, n):
    a = rng.uniform(-50.0, 50.0, n) * (10.0 ** rng.integers(-3, 3))
    p = rng.uniform(P_MIN, 200.0, n)
    lam = float(rng.choice([1e-10, 1e-3, 0.1, 1.0, 10.0]))
    return a, p, lam


class TestConstants:
    def test_clamp_bounds(self):
        assert P_MIN == 1.01
        assert P_MAX == 1.0e4

    def test_numeric_guards(self):
        assert EPS_V == 1e-12
        assert EXIT_TOL == 1e-12


class TestActivationParams:
    def test_valid(self):
        params = ActivationParams(p=2.0, lam=1.0)
        assert params.p == 2.0 and params.lam == 1.0

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            ActivationParams(p=1.0, lam=1.0)
        with pytest.raises(ValueError):
            ActivationParams(p=2e4, lam=1.0)

    def test_bad_lam(self):
        with pytest.raises(ValueError):
            ActivationParams(p=2.0, lam=-0.5)
        with pytest.raises(ValueError):
            ActivationParams(p=2.0, lam=np.inf)


class TestClosedForms:
    def test_eval_p2_formula(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-100, 100, N_CASES)
        lam = rng.uniform(0.0, 10.0, N_CASES)
        for ai, li in zip(a, lam):
            assert eval_p2(ai, li) == ai / (1.0 + 2.0 * li)

    def test_evaluate_matches_p2_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(N_CASES):
            a = float(rng.uniform(-100, 100))
            lam = float(rng.uniform(0.0, 10.0))
            v = evaluate(a, ActivationParams(p=2.0, lam=lam))
            assert_allclose(v, a / (1.0 + 2.0 * lam), rtol=0, atol=1e-12)

    def test_lam_zero_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(N_CASES):
            n = int(rng.integers(1, 50))
            a = rng.uniform(-1e6, 1e6, n)
            p = rng.uniform(P_MIN, P_MAX, n)
            assert_array_equal(evaluate_many(a, p, 0.0), a)

    def test_zero_input_maps_to_zero(self):
        rng = np.random.default_rng(14)
        for _ in range(N_CASES):
            p = float(rng.uniform(P_MIN, 500.0))
            lam = float(rng.choice([1e-10, 0.1, 1.0]))
            assert evaluate(0.0, ActivationParams(p=p, lam=lam)) == 0.0


class TestFrozenValues:
    def test_evaluate_frozen(self):
        for (a, p, lam), expected in FROZEN_EVAL.items():
            v = evaluate(a, ActivationParams(p=p, lam=lam))
            assert_allclose(v, expected, rtol=0, atol=1e-12)

    def test_method1_step_frozen(self):
        got = method1_step(2.0, 2.0, ActivationParams(p=1.5, lam=1.0))
        assert_allclose(got, 0.9705627484771405, rtol=0, atol=1e-15)

    def test_method2_step_frozen(self):
        got = method2_step(10.0, 2.0, ActivationParams(p=3.0, lam=1.0))
        assert_allclose(got, 1.632993161855452, rtol=0, atol=1e-15)

    def test_threshold_frozen(self):
        for (p, lam), expected in FROZEN_THRESHOLDS.items():
            got = threshold_input(ActivationParams(p=p, lam=lam))
            assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_derivatives_frozen_p2(self):
        params = ActivationParams(p=2.0, lam=1.0)
        assert_allclose(dv_da(1.0, params), 1.0 / 3.0, rtol=0, atol=1e-15)
        assert_allclose(dv_dp(1.0, params), -1.0 / 3.0, rtol=0, atol=1e-15)


class TestResidual:
    def test_residual_zero_at_root(self):
        # Where the residual is well conditioned in v the root must zero it;
        # on steep branches (slope > 1e3) float cancellation inflates the
        # residual, so agreement is asserted in v-space against bisection.
        rng = np.random.default_rng(15)
        checked = 0
        for _ in range(N_CASES):
            a = float(rng.uniform(-20, 20))
            p = float(rng.uniform(P_MIN, 50.0))
            lam = float(rng.choice([1e-10, 0.1, 1.0]))
            params = ActivationParams(p=p, lam=lam)
            v = evaluate(a, params)
            scale = max(1.0, abs(a))
            with np.errstate(over="ignore"):
                slope = 1.0 + lam * p * (p - 1.0) * abs(v) ** (p - 2.0)
            if np.isfinite(slope) and slope <= 1e3:
                assert abs(residual(a, v, params)) <= 1e-6 * scale * slope
                checked += 1
            else:
                assert abs(v - bisect_root(a, p, lam)) <= 1e-6 * scale
        assert checked >= 50

    def test_residual_sign_structure(self):
        params = ActivationParams(p=3.0, lam=1.0)
        root = evaluate(2.0, params)
        assert residual(2.0, root - 1e-3, params) < 0.0
        assert residual(2.0, root + 1e-3, params) > 0.0

    def test_residual_vectorized(self):
        params = ActivationParams(p=2.0, lam=1.0)
        a = np.array([1.0, 2.0, 3.0])
        v = a / 3.0
        assert_allclose(residual(a, v, params), np.zeros(3), rtol=0, atol=1e-15)


class TestProperties:
    def test_odd_symmetry(self):
        rng = np.random.default_rng(16)
        for _ in range(N_CASES):
            a, p, lam = random_params(rng, int(rng.integers(1, 100)))
            assert_array_equal(evaluate_many(-a, p, lam), -evaluate_many(a, p, lam))

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(17)
        for _ in range(N_CASES):
            p = float(rng.uniform(P_MIN, 150.0))
            lam = float(rng.choice([1e-10, 0.1, 1.0]))
            a = np.sort(rng.uniform(-30, 30, 200))
            v = evaluate_many(a, np.full(a.size, p), lam)
            assert np.all(np.diff(v) >= -1e-12)

    def test_magnitude_bounded_by_input(self):
        rng = np.random.default_rng(18)
        for _ in range(N_CASES):
            a, p, lam = random_params(rng, int(rng.integers(1, 100)))
            v = evaluate_many(a, p, lam)
            assert np.all(np.abs(v) <= np.abs(a))

    def test_determinism(self):
        rng = np.random.default_rng(19)
        for _ in range(N_CASES):
            a, p, lam = random_params(rng, int(rng.integers(1, 60)))
            assert_array_equal(evaluate_many(a, p, lam), evaluate_many(a, p, lam))

    def test_batch_composition_independence(self):
        # The same (a, p, lam) triple must produce the same value whether it
        # is solved alone, in a small fused batch, or in a large batch.
        rng = np.random.default_rng(20)
        a, p, lam = random_params(rng, 600)
        big = evaluate_many(a, p, lam)
        singles = np.array(
            [evaluate_many(a[i : i + 1], p[i : i + 1], lam)[0] for i in range(a.size)]
        )
        assert_array_equal(big, singles)
        half = evaluate_many(a[:300], p[:300], lam)
        assert_array_equal(big[:300], half)

    def test_warm_start_agrees_with_cold(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, p, lam = random_params(rng, 64)
            cold = evaluate_many(a, p, lam)
            warm = evaluate_many(a, p, lam, v0=cold)
            assert np.max(np.abs(warm - cold) / np.maximum(1.0, np.abs(a))) <= 1e-8

    def test_mixed_p2_lanes_use_closed_form(self):
        rng = np.random.default_rng(22)
        a = rng.uniform(-5, 5, 40)
        p = np.where(np.arange(40) % 2 == 0, 2.0, 3.0)
        lam = 1.0
        v = evaluate_many(a, p, lam)
        assert_array_equal(v[::2], a[::2] / 3.0)


def scalar_layer(a, p, lam, inner_iters=100, with_dp=True):
    """`_scalar_layer` on arrays."""
    v, da, dp = _scalar_layer(list(map(float, a)), list(map(float, p)), lam, inner_iters, with_dp)
    return np.array(v), np.array(da), None if dp is None else np.array(dp)


class TestScalarVectorAgreement:
    # The incremental trainer's plain-Python layer routine against the array
    # routines: outputs against `evaluate_many`, slopes and sensitivities
    # against `dv_da_many` and `dv_dp_many` at the same outputs.
    def test_solver_routes_agree(self):
        rng = np.random.default_rng(23)
        for _ in range(N_CASES):
            a, p, lam = random_params(rng, int(rng.integers(1, 40)))
            vec = evaluate_many(a, p, lam)
            scal, _, _ = scalar_layer(a, p, lam, with_dp=False)
            assert np.max(np.abs(scal - vec) / np.maximum(1.0, np.abs(a))) <= 1e-12

    def test_derivative_routes_agree(self):
        rng = np.random.default_rng(24)
        for _ in range(N_CASES):
            a, p, lam = random_params(rng, int(rng.integers(1, 40)))
            v, da_scal, dp_scal = scalar_layer(a, p, lam)
            assert_allclose(da_scal, dv_da_many(v, p, lam), rtol=1e-12, atol=1e-300)
            assert_allclose(dp_scal, dv_dp_many(v, p, lam), rtol=1e-12, atol=1e-300)

    def test_sensitivities_only_on_request(self):
        rng = np.random.default_rng(25)
        a, p, lam = random_params(rng, 12)
        v, da, dp = scalar_layer(a, p, lam, with_dp=False)
        assert dp is None
        v2, da2, _ = scalar_layer(a, p, lam)
        assert_array_equal(v, v2)
        assert_array_equal(da, da2)


class TestScalarLayerEdges:
    P = [1.01, 1.5, 2.0, 3.0, 100.0]

    def test_lam_zero_is_identity(self):
        a = [-2.0, 0.0, 0.5, 7.0, 1e4]
        v, da, dp = scalar_layer(a, self.P, 0.0)
        assert_array_equal(v, a)
        assert_array_equal(da, np.ones(5))
        assert_array_equal(dp, np.zeros(5))

    def test_zero_input(self):
        # v = 0: slope 0 for p < 2 (the power term is inf), 1/(1 + 2 lam)
        # at p = 2 (|0|**0 is 1) and 1 for p > 2; the sensitivity is 0.
        for lam in (1e-10, 1.0):
            v, da, dp = scalar_layer([0.0] * 5, self.P, lam)
            assert_array_equal(v, np.zeros(5))
            assert_array_equal(da, [0.0, 0.0, 1.0 / (1.0 + 2.0 * lam), 1.0, 1.0])
            assert_array_equal(dp, np.zeros(5))
            assert_array_equal(da, dv_da_many(v, np.array(self.P), lam))

    def test_power_overflow_below_p2(self):
        # At p = 1.01, lam = 1 an input of 6e-4 has a subnormal root
        # (2.5e-323), where |v|**(p-2) overflows: the slope is 0 and the
        # sensitivity finite, as in the array routines.
        a, p = np.array([6e-4, -6e-4]), np.array([1.01, 1.01])
        v, da, dp = scalar_layer(a, p, 1.0)
        assert np.all(v != 0.0) and np.all(np.abs(v) < 1e-300)
        assert_array_equal(da, [0.0, 0.0])
        assert np.all(np.isfinite(dp))
        assert_allclose(dp, dv_dp_many(v, p, 1.0), rtol=0, atol=1e-300)

    def test_large_power_at_p_max(self):
        # |v| > 1 at p = 1e4: the power term reaches 9e299 at a = 1e300 and
        # lam = 1e-10, the slope is ~1e-304, and the sensitivity stays finite.
        # (A solved v cannot overflow the power at p > 2: the solve's own
        # y**(p-2) would overflow first.)
        a = np.array([1e4, 1e10, 1e300, -1e300])
        p = np.full(4, P_MAX)
        v, da, dp = scalar_layer(a, p, 1e-10)
        assert np.all(np.abs(v) > 1.0)
        assert np.all(np.isfinite(dp)) and np.all(dp != 0.0)
        assert_allclose(v, evaluate_many(a, p, 1e-10), rtol=1e-12, atol=0)
        assert_allclose(da, dv_da_many(v, p, 1e-10), rtol=1e-12, atol=1e-300)
        assert_allclose(dp, dv_dp_many(v, p, 1e-10), rtol=1e-12, atol=1e-300)

    # The cases below pin `_scalar_layer`'s exact outputs, recorded before
    # its per-neuron path traded the max/min/abs builtins for conditional
    # expressions: any rewrite of that path must keep every bit.

    def test_negative_zero_input(self):
        for lam, da_p2 in ((1.0, 0.3333333333333333), (1e-10, 0.9999999998)):
            v, da, dp = scalar_layer([-0.0] * 5, self.P, lam)
            assert_array_equal(v, np.zeros(5))
            assert np.all(np.signbit(v))
            assert_array_equal(da, [0.0, 0.0, da_p2, 1.0, 1.0])
            assert_array_equal(dp, np.zeros(5))

    def test_subnormal_input(self):
        # |a| = 1e-310 lies below the smallest normal float, where the start's
        # logarithm is taken at the smallest normal instead.
        a = [1e-310, -1e-310, 1e-310, -1e-310, 1e-310]
        for lam, v_p2, dp_p2 in ((1.0, 3.333333333333e-311, 1.5875555358150772e-308),
                                 (1e-10, 9.999999998e-311, 1.4266027e-317)):
            v, da, dp = scalar_layer(a, self.P, lam)
            assert_array_equal(v, [0.0, -0.0, v_p2, -1e-310, 1e-310])
            assert_array_equal(np.signbit(v), [False, True, False, True, False])
            assert_array_equal(da, [0.0, 0.0, 1.0 / (1.0 + 2.0 * lam), 1.0, 1.0])
            assert_array_equal(dp, [0.0, 0.0, dp_p2, 0.0, 0.0])

    @pytest.mark.parametrize(
        "lam, want",
        [
            # log K + log n is at most 0 on lanes 0, 4 and 5 (the start is
            # x/d) and above 0 on the others.
            (1.0, (
                [0.0788353903933773, 6.250000000000003, 0.929337810514492, 1.023520434666863,
                 -0.16666666666666666, -3.3333333333333335],
                [0.2723931248910011, 0.7692307692307694, 0.11726816077551408, 1.0349075744811567e-05,
                 0.3333333333333333, 0.3333333333333333],
                [0.21495830771740726, -7.209369606966284, 0.0005243896520866096, -0.00034373483615615506,
                 -0.14352882991422833, 3.786606231835414],
            )),
            # ... and on lane 2 only at this lambda.
            (1e-10, (
                [0.49999999989393407, 9.99999999952566, 0.9999999900000097, 1.2915328049544343,
                 -0.4999999999, -9.999999998],
                [0.999999999893934, 0.999999999976283, 0.9999990100019502, 1.3062486127581496e-05,
                 0.9999999998, 0.9999999998],
                [2.8086826633904587e-12, -1.4084397759593003e-09, -9.999970200073248e-11,
                 -0.003467912496362461, -1.9314718068268643e-11, 5.605170183346024e-09],
            )),
        ],
    )
    def test_start_on_both_sides_of_its_switch(self, lam, want):
        a = [0.5, 10.0, 1.0, 1e3, -0.5, -10.0]
        p = [1.5, 1.5, 100.0, 100.0, 2.0, 2.0]
        for got, expected in zip(scalar_layer(a, p, lam), want):
            assert_array_equal(got, expected)

    def test_non_finite_input(self):
        # NaN and infinite pre-activations give NaN outputs and
        # sensitivities; only the p = 2 slope, which |v|**0 = 1 makes
        # independent of v, stays finite.
        a = [np.nan] * 5 + [np.inf, -np.inf, np.inf, -np.inf, np.inf]
        v, da, dp = scalar_layer(a, self.P * 2, 1.0)
        assert np.all(np.isnan(v)) and np.all(np.isnan(dp))
        assert_array_equal(np.isnan(da), [True, True, False, True, True] * 2)
        assert_array_equal(da[[2, 7]], [1.0 / 3.0, 1.0 / 3.0])


class TestThreshold:
    def test_slope_is_half_at_threshold(self):
        for (p, lam), a_tau in FROZEN_THRESHOLDS.items():
            params = ActivationParams(p=p, lam=lam)
            v = bisect_root(a_tau, p, lam)
            assert_allclose(dv_da(v, params), 0.5, rtol=0, atol=1e-6)

    def test_continuous_across_threshold(self):
        # The paper switches update rules at the threshold input; the value
        # must not jump there (slope is 0.5, so nearby inputs map nearby).
        for (p, lam), a_tau in FROZEN_THRESHOLDS.items():
            params = ActivationParams(p=p, lam=lam)
            below = evaluate(a_tau * (1.0 - 1e-6), params)
            above = evaluate(a_tau * (1.0 + 1e-6), params)
            assert abs(above - below) <= 1e-4 * max(1.0, a_tau)


class TestDerivativesAgainstFiniteDifferences:
    def test_dv_da_matches_fd(self):
        rng = np.random.default_rng(25)
        checked = 0
        for _ in range(60):
            a = float(rng.uniform(0.5, 8.0)) * float(rng.choice([-1.0, 1.0]))
            p = float(rng.uniform(1.05, 12.0))
            lam = float(rng.choice([0.1, 1.0]))
            v = bisect_root(a, p, lam, tol=None)
            analytic = dv_da(v, ActivationParams(p=p, lam=lam))
            fd = finite_diff(lambda x: bisect_root(x, p, lam, tol=None), a)
            if max(abs(analytic), abs(fd)) <= 1e-6:
                continue
            assert_allclose(analytic, fd, rtol=1e-4, atol=0)
            checked += 1
        assert checked >= 40

    def test_dv_dp_matches_fd(self):
        rng = np.random.default_rng(26)
        checked = 0
        for _ in range(60):
            a = float(rng.uniform(0.5, 8.0)) * float(rng.choice([-1.0, 1.0]))
            p = float(rng.uniform(1.2, 12.0))
            lam = float(rng.choice([0.1, 1.0]))
            v = bisect_root(a, p, lam, tol=None)
            analytic = dv_dp(v, ActivationParams(p=p, lam=lam))
            fd = finite_diff(lambda q: bisect_root(a, q, lam, tol=None), p)
            if max(abs(analytic), abs(fd)) <= 1e-6:
                continue
            assert_allclose(analytic, fd, rtol=1e-4, atol=0)
            checked += 1
        assert checked >= 40

    def test_dv_dp_negligible_below_saturation(self):
        # With negligible regularization the activation is the identity in
        # float64 and the shape derivative is so small that even a huge
        # descent step cannot move p by one representable bit.
        v = evaluate(0.5, ActivationParams(p=100.0, lam=1e-10))
        g = dv_dp(v, ActivationParams(p=100.0, lam=1e-10))
        assert abs(g) < 1e-30
        assert 100.0 - 1e4 * g == 100.0


class TestInputValidation:
    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            evaluate_many(np.array([1.0, np.inf]), np.full(2, 2.0), 0.5)
        with pytest.raises(ValueError):
            evaluate_many(np.array([np.nan]), np.array([2.0]), 0.5)

    def test_inner_iters_below_one_rejected(self):
        # With no Newton step the start bound would be returned as the root.
        for lam in (0.0, 1.0):
            for bad in (0, -3):
                with pytest.raises(ValueError, match="inner_iters must be >= 1"):
                    evaluate_many(np.ones(3), np.full(3, 5.0), lam, bad)

    def test_vector_lam_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            evaluate_many(np.ones(3), np.full(3, 2.0), np.full(3, 0.5))


class TestExtremeInputs:
    def test_huge_inputs_stay_finite_and_bounded(self):
        for a in (1e8, -1e8):
            for p in (1.01, 2.0, 100.0):
                v = evaluate(a, ActivationParams(p=p, lam=1.0))
                assert np.isfinite(v)
                assert abs(v) <= abs(a)

    def test_huge_input_agrees_with_oracle(self):
        for p in (3.0, 100.0):
            v = evaluate(1e8, ActivationParams(p=p, lam=1.0))
            ref = bisect_root(1e8, p, 1.0)
            assert_allclose(v, ref, rtol=1e-9, atol=1e-9)

    def test_soft_threshold_regime_shrinks(self):
        # p near 1 with strong regularization shrinks small inputs hard.
        v = evaluate(0.5, ActivationParams(p=1.01, lam=1.0))
        ref = bisect_root(0.5, 1.01, 1.0)
        assert_allclose(v, ref, rtol=0, atol=1e-9)
        assert abs(v) < 0.5


class TestNewtonKernel:
    # |a| = 10**(i/10) for i in -80..40: log-spaced over [1e-8, 1e4], with
    # 0.1 itself on the grid.  At p = 1.01, lam = 1 its root is 3.7e-101,
    # which only a relative stopping rule resolves.
    MAGNITUDES = 10.0 ** (np.arange(-80, 41) / 10.0)
    GRID_P = (1.01, 1.5, 2.5, 5.0, 100.0, 1210.0, 1e4)
    GRID_LAM = (1e-10, 0.1, 1.0, 10.0)

    def test_budget_of_ten_matches_exact_root(self):
        # Speed must not come from truncated solves: at a budget of 10,
        # twice the cold worst case, every lane is the exact root to
        # EXIT_TOL (1e-12) relative, or both it and the root underflow below
        # the smallest normal float.
        tiny = np.finfo(np.float64).tiny
        a = np.concatenate([self.MAGNITUDES, -self.MAGNITUDES])
        for p in self.GRID_P:
            for lam in self.GRID_LAM:
                v = evaluate_many(a, np.full(a.size, p), lam, inner_iters=10)
                ref = np.array([bisect_root(x, p, lam, tol=None) for x in self.MAGNITUDES])
                ref = np.concatenate([ref, -ref])
                both_tiny = (np.abs(v) < tiny) & (np.abs(ref) < tiny)
                close = np.abs(v - ref) <= EXIT_TOL * np.abs(ref)
                bad = ~(close | both_tiny)
                assert not bad.any(), (
                    f"p={p}, lam={lam}: a={a[bad][:3]} gives {v[bad][:3]}, root {ref[bad][:3]}"
                )

    def test_every_lane_converges_within_five_steps(self):
        # A converged lane is frozen, so more budget cannot change it, in
        # either kernel.  The grid adds |a| = 10**(i/2) over [1e-300, 1e300]:
        # a run that blows up drives weights, so inputs, to about 1e8.
        wide = np.union1d(self.MAGNITUDES, 10.0 ** (np.arange(-600, 601) / 2.0))
        a = np.concatenate([wide, -wide])
        for p in self.GRID_P + (1.02, 1.2, 1.99, 2.0, 2.01, 3.0, 20.0, 3000.0):
            for lam in self.GRID_LAM + (1e-3,):
                pp = np.full(a.size, p)
                v = evaluate_many(a, pp, lam, inner_iters=5)
                assert_array_equal(v, evaluate_many(a, pp, lam, inner_iters=100))
                v = scalar_layer(a, pp, lam, inner_iters=5, with_dp=False)[0]
                assert_array_equal(v, scalar_layer(a, pp, lam, inner_iters=100, with_dp=False)[0])

    def test_warm_start_below_root(self):
        # Starts below the root are used, not discarded: the first step
        # from below lands above the root, and the monotone iteration
        # continues from there to the cold solve's root.
        rng = np.random.default_rng(27)
        for _ in range(50):
            a, p, lam = random_params(rng, 64)
            cold = evaluate_many(a, p, lam)
            for v0 in (np.zeros(a.size), 0.5 * cold, -cold):
                warm = evaluate_many(a, p, lam, inner_iters=10, v0=v0)
                assert_allclose(warm, cold, rtol=1e-12, atol=0)


class TestWarmStart:
    # Warm starts on both sides of the root, near and far, and unusable
    # ones (NaN, inf), over 15 exponents log-spaced across [P_MIN, P_MAX].
    MAGNITUDES = TestNewtonKernel.MAGNITUDES
    GRID_P = np.geomspace(P_MIN, P_MAX, 15)
    GRID_LAM = (1e-10, 1e-3, 0.1, 1.0, 10.0)

    @staticmethod
    def starts(a, root):
        return {
            "0": np.zeros(a.size),
            "1e-8 root": 1e-8 * root,
            "root/2": 0.5 * root,
            "root (1-1e-3)": root * (1.0 - 1e-3),
            "root (1+1e-3)": root * (1.0 + 1e-3),
            "2 root": 2.0 * root,
            "1e8 root": 1e8 * root,
            "-root": -root,
            "a": a,
            "nan": np.full(a.size, np.nan),
            "inf": np.full(a.size, np.inf),
        }

    def test_every_start_reaches_the_root_within_six_steps(self):
        # At a budget of 10 every lane is the exact root to
        # EXIT_TOL (or both underflow), and a budget of 6 (one step from
        # below plus the cold worst case of 5) already gives that output.
        tiny = np.finfo(np.float64).tiny
        a = np.concatenate([self.MAGNITUDES, -self.MAGNITUDES])
        for p in self.GRID_P:
            pp = np.full(a.size, p)
            for lam in self.GRID_LAM:
                with np.errstate(over="ignore"):
                    ref = np.array([bisect_root(x, p, lam, tol=None) for x in self.MAGNITUDES])
                ref = np.concatenate([ref, -ref])
                for name, v0 in self.starts(a, ref).items():
                    v = evaluate_many(a, pp, lam, inner_iters=10, v0=v0)
                    close = np.abs(v - ref) <= EXIT_TOL * np.abs(ref)
                    bad = ~(close | ((np.abs(v) < tiny) & (np.abs(ref) < tiny)))
                    assert not bad.any(), (
                        f"p={p}, lam={lam}, v0={name}: a={a[bad][:3]} gives {v[bad][:3]}, root {ref[bad][:3]}"
                    )
                    assert_array_equal(
                        evaluate_many(a, pp, lam, inner_iters=6, v0=v0),
                        evaluate_many(a, pp, lam, inner_iters=100, v0=v0),
                        err_msg=f"p={p}, lam={lam}, v0={name}",
                    )

    @staticmethod
    def first_step_rule(a, p, lam, v0):
        # The far-lane rule applied to the start and first Newton step of
        # each lane, recomputed here: ``(n-1)*rho`` with the relative step
        # ``rho = |y - y_new| / min(y, y_new)``, NaN where it is undefined.
        x = np.abs(a)
        n, d, k = (p - 1.0, 1.0, lam * p) if p > 2.0 else (1.0 / (p - 1.0), lam * p, 1.0)
        with np.errstate(all="ignore"):
            w = np.abs(v0) ** (p - 1.0) if p < 2.0 else np.abs(v0)
            y = np.fmin(w, x / d)
            u = y ** (n - 1.0)
            y_new = (u * (k * (n - 1.0)) * y + x) / (u * (k * n) + d)
            return (n - 1.0) * np.abs(y - y_new) / np.minimum(y, y_new)

    def test_only_far_lanes_compute_the_cold_bound(self, monkeypatch):
        # Lanes that reach the cold bound, counted by wrapping it.  Starts
        # 1e-6 from the root never need it, except where the root
        # underflows to 0 and so does the start.  From NaN, inf and
        # 1e8 * root (all three capped at x/d) a lane needs it exactly when
        # its first step is far, (n-1)*rho > 1/2 or not finite; a lane whose
        # x/d is already in Newton's basin (tiny |a| at p > 2, where the
        # root is nearly x/d) does not.
        import pnet.activation

        reached = []
        cold_bound = pnet.activation._cold_bound

        def counting(x, *consts):
            reached.append(np.array(x))
            return cold_bound(x, *consts)

        monkeypatch.setattr(pnet.activation, "_cold_bound", counting)
        a = self.MAGNITUDES
        far_total = 0
        for p in self.GRID_P:
            pp = np.full(a.size, p)
            for lam in self.GRID_LAM:
                with np.errstate(over="ignore"):
                    ref = np.array([bisect_root(x, p, lam, tol=None) for x in a])
                keep = ref != 0.0
                for f in (1.0 - 1e-6, 1.0 + 1e-6):
                    evaluate_many(a[keep], pp[keep], lam, inner_iters=10, v0=f * ref[keep])
                    assert not reached, f"p={p}, lam={lam}, v0=root*{f}: {np.concatenate(reached)[:3]}"
                unusable = {"nan": np.full(a.size, np.nan), "inf": np.full(a.size, np.inf), "1e8 root": 1e8 * ref}
                for name, v0 in unusable.items():
                    evaluate_many(a, pp, lam, inner_iters=10, v0=v0)
                    got = np.isin(a, np.concatenate(reached)) if reached else np.zeros(a.size, dtype=bool)
                    reached.clear()
                    rule = self.first_step_rule(a, p, lam, v0)
                    far = ~(rule <= 0.5 * (1.0 + 1e-9))
                    near = rule < 0.5 * (1.0 - 1e-9)
                    assert got[far].all() and not got[near].any(), f"p={p}, lam={lam}, v0={name}"
                    far_total += np.count_nonzero(far)
        # The far lanes are a large share of the grid, not a corner of it.
        assert far_total > 0.25 * 3 * a.size * self.GRID_P.size * len(self.GRID_LAM)


class TestLimits:
    A = np.linspace(-5.0, 5.0, 2001)
    LAMS = (0.1, 1.0, 10.0)

    def test_large_p_approaches_satlins(self):
        # At p = P_MAX the power term pins |v| just below 1 once |a| > 1.
        # The gap is widest at |a| = 1, where v = 1 - e solves
        # lam*p*(1-e)**(p-1) = e, i.e. e ~ log(lam*p/e)/(p-1): 1.8e-3 at
        # lam = 10 (1.4e-3 at lam = 0.1); smaller or larger |a| close it.
        for lam in self.LAMS:
            v = evaluate_many(self.A, P_MAX, lam, inner_iters=10)
            assert np.max(np.abs(v - np.clip(self.A, -1.0, 1.0))) <= 2e-3, f"lam={lam}"

    def test_small_p_approaches_soft_threshold(self):
        # At p = P_MIN the equation is v + p*lam*|v|**(p-1)*sign(v) = a, and
        # |v|**(p-1) = |v|**0.01 is near 1, so v is near the soft-threshold
        # sign(a)*max(|a| - lam, 0).  Off the kink the gap is
        # lam*|1 - p*|v|**0.01|, at most 0.027*lam for |v| <= 5; it is
        # widest at the kink |a| = lam, where v = t*lam solves
        # t + p*(t*lam)**0.01 = 1: t = 0.044, 0.026, 0.012 for lam = 0.1,
        # 1, 10.
        for lam in self.LAMS:
            v = evaluate_many(self.A, P_MIN, lam, inner_iters=10)
            soft = np.sign(self.A) * np.maximum(np.abs(self.A) - lam, 0.0)
            assert np.max(np.abs(v - soft)) <= 0.05 * lam, f"lam={lam}"


class TestExactRoots:
    """`evaluate_many` against exact roots that use neither the kernel nor
    bisection.  For ``a > 0`` the root solves ``v + lam*p*v**(p-1) = a``;
    each form below avoids cancellation, so it is accurate to a few ulps
    over the whole grid, and the map is odd."""

    MAGNITUDES = TestNewtonKernel.MAGNITUDES
    GRID_LAM = TestNewtonKernel.GRID_LAM

    @staticmethod
    def root_p15(x, lam):
        # p = 3/2: s = sqrt(v) solves s**2 + c*s - x = 0 with c = 1.5*lam.
        c = 1.5 * lam
        s = 2.0 * x / (c + np.sqrt(c * c + 4.0 * x))
        return s * s

    @staticmethod
    def root_p3(x, lam):
        # p = 3: the quadratic 3*lam*v**2 + v - x = 0.
        return 2.0 * x / (1.0 + np.sqrt(1.0 + 12.0 * lam * x))

    @staticmethod
    def root_p4(x, lam):
        # p = 4: the depressed cubic v**3 + v/(4*lam) - x/(4*lam) = 0, whose
        # one real root is sinh(asinh(3*r*x)/3)/r with r = sqrt(3*lam).
        r = np.sqrt(3.0 * lam)
        return np.sinh(np.arcsinh(3.0 * r * x) / 3.0) / r

    @pytest.mark.parametrize("p, root", [(1.5, "root_p15"), (3.0, "root_p3"), (4.0, "root_p4")])
    def test_matches_exact_root(self, p, root):
        a = np.concatenate([self.MAGNITUDES, -self.MAGNITUDES])
        for lam in self.GRID_LAM:
            exact = getattr(self, root)(self.MAGNITUDES, lam)
            exact = np.concatenate([exact, -exact])
            v = evaluate_many(a, np.full(a.size, p), lam, inner_iters=10)
            assert_allclose(v, exact, rtol=1e-12, atol=0, err_msg=f"p={p}, lam={lam}")

    def test_exact_roots_solve_the_residual(self):
        # The closed forms themselves, checked against the equation.
        x = self.MAGNITUDES
        for lam in self.GRID_LAM:
            for p, root in ((1.5, self.root_p15), (3.0, self.root_p3), (4.0, self.root_p4)):
                v = root(x, lam)
                assert_allclose(v + lam * p * v ** (p - 1.0), x, rtol=1e-13, atol=0)


class TestGatheredWorkingSet:
    # An ex2a-shaped layer: six p = 100 columns whose lanes (|a| <= 0.5,
    # lam = 0.1) all freeze after one step, next to a p = 1.01 column whose
    # lanes take up to five steps and a p = 1.97 column whose lanes take
    # three.  The working set is gathered after step 1, when under a
    # quarter of it still moves, and again once under half of the rest
    # does (720 and then 313 lanes).
    P_ROW = np.array([[100.0] * 6 + [1.01, 1.97]])
    LAM = 0.1

    def _inputs(self):
        rng = np.random.default_rng(30)
        return rng.uniform(-0.5, 0.5, (400, self.P_ROW.shape[1]))

    def _lane_by_lane(self, a, p, v0=None):
        # One-lane calls, which never gather.
        a, p = np.broadcast_arrays(a, p)
        out = np.empty(a.shape)
        for idx in np.ndindex(a.shape):
            w = None if v0 is None else v0[idx]
            out[idx] = evaluate_many(a[idx], p[idx], self.LAM, 10, v0=w)
        return out

    def test_gathered_lanes_match_single_lanes(self):
        a = self._inputs()
        v = evaluate_many(a, self.P_ROW, self.LAM, inner_iters=10)
        assert_array_equal(v, self._lane_by_lane(a, self.P_ROW))
        assert_array_equal(v, evaluate_many(a, self.P_ROW, self.LAM, inner_iters=100))
        # Gathered lanes are written back by flat index, whatever the layout.
        assert_array_equal(v, evaluate_many(np.asfortranarray(a), self.P_ROW, self.LAM, inner_iters=10))

    def test_gathered_lanes_with_warm_start(self):
        a = self._inputs()
        cold = evaluate_many(a, self.P_ROW, self.LAM, inner_iters=10)
        # Above the root on even rows, below it on odd rows; both are used.
        v0 = cold * np.where(np.arange(a.shape[0]) % 2 == 0, 1.5, 0.5)[:, None]
        warm = evaluate_many(a, self.P_ROW, self.LAM, inner_iters=10, v0=v0)
        assert_array_equal(warm, self._lane_by_lane(a, self.P_ROW, v0))
        assert_allclose(warm, cold, rtol=1e-12, atol=0)

    def test_broadcast_shapes(self):
        a = self._inputs()[:, :1]
        v = evaluate_many(a, self.P_ROW, self.LAM, inner_iters=10)
        assert v.shape == (a.shape[0], self.P_ROW.shape[1])
        assert_array_equal(v, self._lane_by_lane(a, self.P_ROW))
        p = np.concatenate([np.full(30, 100.0), np.linspace(1.01, 1.97, 10)])
        v = evaluate_many(0.3, p, self.LAM, inner_iters=10)
        assert v.shape == p.shape
        assert_array_equal(v, self._lane_by_lane(np.float64(0.3), p))


class TestDerivativeTerms:
    def test_cached_terms_reproduce_derivatives(self):
        rng = np.random.default_rng(29)
        for _ in range(N_CASES):
            a, p, lam = random_params(rng, int(rng.integers(1, 40)))
            v = evaluate_many(a, p, lam)
            power, log_v = derivative_terms(v, p, lam)
            assert_array_equal(dv_da_many(v, p, lam, power), dv_da_many(v, p, lam))
            assert_array_equal(dv_dp_many(v, p, lam, power, log_v), dv_dp_many(v, p, lam))

    def test_zero_output_limits(self):
        for p, slope in ((1.5, 0.0), (2.0, 1.0 / 3.0), (3.0, 1.0)):
            params = ActivationParams(p=p, lam=1.0)
            assert dv_da(0.0, params) == slope
            assert dv_dp(0.0, params) == 0.0
            assert np.all(np.isfinite(derivative_terms(np.zeros(1), np.array([p]), 1.0)[1]))

    def test_dv_dp_finite_on_extreme_powers(self):
        # Deep in the soft-threshold regime the power term overflows; large
        # p above |v| = 1 overflows it too.  dv/dp stays finite and keeps
        # the sign of -v*(1 + p*log|v|).
        for v, p in ((3.7e-101, 1.01), (1e-300, 1.5), (1.5, 1e4), (1e-20, 1e4)):
            g = dv_dp(v, ActivationParams(p=p, lam=1.0))
            assert np.isfinite(g)
            assert g == 0.0 or np.sign(g) == np.sign(-v * (1.0 + p * np.log(v)))
