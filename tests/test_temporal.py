import math

import numpy as np
import pytest

from podvs.config import FrameHistory
from podvs.errors import ConfigError, DimensionError
from podvs.temporal import (
    STRONGLY_PHASIC,
    WEAKLY_PHASIC,
    PhasicParams,
    TemporalKernel,
    apply_temporal,
    make_kernel,
    phasic_degree_index,
)

from conftest import gray_frame

FRAME_PERIOD = 1000.0 / 24.0


def closed_form(t, alpha, beta, tau, delta):
    """Independent evaluation of the filter profile."""
    return alpha * (t - tau - delta) * math.exp(beta * (t - tau) ** 2)


# Frozen from double-precision evaluation of the closed form at
# t = k * 1000/24 with the strongly/weakly phasic parameter rows.
STRONG_TAPS = (
    3.869898435385626e-05,
    0.008931180388453171,
    0.013507557329778831,
    -0.010051739005595379,
    -9.1156378641013677e-05,
    -1.2092075960046832e-08,
)
WEAK_TAPS = (
    0.00012526393719929562,
    0.0034990319410434212,
    0.015599171606241764,
    0.0051585633330499033,
    -0.004515027847859357,
    -0.00066294503073310645,
)


class TestKernelValues:
    @pytest.mark.parametrize(
        "params,frozen",
        [(STRONGLY_PHASIC, STRONG_TAPS), (WEAKLY_PHASIC, WEAK_TAPS)],
        ids=["strong", "weak"],
    )
    def test_taps_match_closed_form(self, params, frozen):
        kern = make_kernel(params, FRAME_PERIOD)
        oracle = [
            closed_form(k * FRAME_PERIOD, params.alpha, params.beta, params.tau, params.delta)
            for k in range(6)
        ]
        np.testing.assert_allclose(kern.taps, oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kern.taps, frozen, rtol=0, atol=1e-12)

    def test_sign_patterns(self):
        strong = make_kernel(STRONGLY_PHASIC, FRAME_PERIOD)
        weak = make_kernel(WEAKLY_PHASIC, FRAME_PERIOD)
        assert list(np.sign(strong.taps)) == [1, 1, 1, -1, -1, -1]
        assert list(np.sign(weak.taps)) == [1, 1, 1, 1, -1, -1]

    def test_zero_crossing_at_tau_plus_delta(self):
        # the linear factor changes sign exactly at tau + delta
        for params in (STRONGLY_PHASIC, WEAKLY_PHASIC):
            t0 = params.tau + params.delta
            assert params.response(t0 - 1e-9) > 0 > params.response(t0 + 1e-9)
        assert STRONGLY_PHASIC.tau + STRONGLY_PHASIC.delta == pytest.approx(91.8)
        assert WEAKLY_PHASIC.tau + WEAKLY_PHASIC.delta == pytest.approx(136.0)

    def test_tap_two_value(self):
        kern = make_kernel(STRONGLY_PHASIC, FRAME_PERIOD)
        assert kern.taps[2] == pytest.approx(0.013507557329778831, abs=1e-15)

    def test_support_bound(self):
        # frames older than 250 ms cannot contribute: with 6 taps at
        # 24 Hz the largest lookback is 208.3 ms, and beyond 250 ms the
        # profile has decayed below a thousandth of its peak
        assert 5 * FRAME_PERIOD < 250.0
        for params in (STRONGLY_PHASIC, WEAKLY_PHASIC):
            t = np.arange(250.0, 400.0, 1.0)
            tail = np.max(np.abs(params.response(t)))
            peak = np.max(np.abs(params.response(np.arange(0.0, 250.0, 0.1))))
            assert tail < 1e-3 * peak

    def test_rebound_to_onset_index(self):
        # dense 0.1 ms sampling; the rebound lobe is smaller than the
        # onset lobe for both profiles, more nearly equal for strong
        idx_strong = phasic_degree_index(STRONGLY_PHASIC)
        idx_weak = phasic_degree_index(WEAKLY_PHASIC)
        assert idx_strong == pytest.approx(0.589055, abs=1e-3)
        assert idx_weak == pytest.approx(0.289425, abs=1e-3)
        assert idx_strong > idx_weak

    def test_beta_must_be_negative(self):
        with pytest.raises(ConfigError):
            PhasicParams(alpha=1.0, beta=0.1, tau=0.0, delta=1.0)

    def test_bad_sampling_arguments(self):
        with pytest.raises(ConfigError):
            make_kernel(STRONGLY_PHASIC, 0.0)


class TestApplyTemporal:
    def test_zero_history(self):
        kern = make_kernel(STRONGLY_PHASIC, FRAME_PERIOD)
        out = apply_temporal(kern, np.zeros((6, 5, 7)))
        assert np.all(out == 0.0)

    def test_impulse_sifts_single_tap(self):
        kern = make_kernel(STRONGLY_PHASIC, FRAME_PERIOD)
        stack = np.zeros((6, 4, 4))
        stack[2] = 100.0
        out = apply_temporal(kern, stack)
        np.testing.assert_allclose(out, 100.0 * kern.taps[2], atol=1e-15)

    def test_constant_history_scales_by_tap_sum(self):
        kern = make_kernel(WEAKLY_PHASIC, FRAME_PERIOD)
        out = apply_temporal(kern, np.full((6, 3, 3), 9.0))
        np.testing.assert_allclose(out, 9.0 * kern.taps.sum(), atol=1e-12)

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(42)
        kern = make_kernel(STRONGLY_PHASIC, FRAME_PERIOD)
        for _ in range(20):
            stack = rng.random((6, 8, 8))
            expected = np.zeros((8, 8))
            for t in range(6):
                for r in range(8):
                    for c in range(8):
                        expected[r, c] += stack[t, r, c] * kern.taps[t]
            np.testing.assert_allclose(
                apply_temporal(kern, stack), expected, rtol=0, atol=1e-12
            )

    def test_linearity(self):
        rng = np.random.default_rng(7)
        kern = make_kernel(WEAKLY_PHASIC, FRAME_PERIOD)
        h1 = rng.random((6, 6, 6))
        h2 = rng.random((6, 6, 6))
        lhs = apply_temporal(kern, 2.5 * h1 + 4.0 * h2)
        rhs = 2.5 * apply_temporal(kern, h1) + 4.0 * apply_temporal(kern, h2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_onset_dominates_under_strongly_phasic(self):
        # step from 0 to c: during the transient the strong kernel's
        # output exceeds the weak kernel's, and its transient-to-steady
        # ratio is larger (the weak kernel is the sustained one)
        strong = make_kernel(STRONGLY_PHASIC, FRAME_PERIOD)
        weak = make_kernel(WEAKLY_PHASIC, FRAME_PERIOD)

        def step_response(kern):
            hist = FrameHistory()
            for _ in range(6):
                hist.push(gray_frame(3, 3, 0))
            out = []
            for _ in range(6):
                hist.push(gray_frame(3, 3, 200))
                out.append(apply_temporal(kern, hist.plane_stack("r"))[0, 0])
            return np.array(out)

        resp_s = step_response(strong)
        resp_w = step_response(weak)
        assert resp_s[2] > resp_w[2]
        steady_s = 200 * strong.taps.sum()
        steady_w = 200 * weak.taps.sum()
        assert resp_s.max() / steady_s > resp_w.max() / steady_w

    def test_tap_count_mismatch(self):
        kern = TemporalKernel(np.ones(4))
        with pytest.raises(DimensionError):
            apply_temporal(kern, np.zeros((6, 2, 2)))
