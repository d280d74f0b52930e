"""Sensor model, Jacobian and CV-dynamics tests."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jtr.models import (
    CVModel,
    Measurement,
    Registration,
    SingularGeometryError,
    TrackState,
    backproject,
    cv_transition,
    jacobians,
    measurement_vector,
    predict_measurement,
    process_noise_covariance,
    process_noise_info,
    standard_cv_covariance,
    whiten_rows,
    wrap_angle,
)


def finite_difference_jacobians(x, a, step=1e-6):
    """Central differences of the measurement function, wrap-aware in theta."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    h0 = measurement_vector(x, a)
    cx = np.zeros((3, 4))
    ca = np.zeros((3, 3))
    for j in range(4):
        dx = np.zeros(4)
        dx[j] = step
        hp = measurement_vector(x + dx, a)
        hm = measurement_vector(x - dx, a)
        diff = hp - hm
        diff[2] = wrap_angle(diff[2])
        cx[:, j] = diff / (2 * step)
    for j in range(3):
        da = np.zeros(3)
        da[j] = step
        hp = measurement_vector(x, a + da)
        hm = measurement_vector(x, a - da)
        diff = hp - hm
        diff[2] = wrap_angle(diff[2])
        ca[:, j] = diff / (2 * step)
    return cx, ca, h0


class TestWrapAngle:
    def test_seam_values(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0

    @given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    def test_range_and_congruence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)


class TestPredictMeasurement:
    def test_on_boresight_static_target(self):
        m = predict_measurement(TrackState(5.0, 0.0, 0.0, 0.0), Registration(0.0, 0.0, 0.0))
        assert m.r == 5.0
        assert m.rdot == 0.0
        assert m.theta == 0.0

    def test_mount_angle_offsets_bearing(self):
        m = predict_measurement((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, math.radians(10.0)))
        assert m.theta == pytest.approx(-0.174533, abs=1e-6)

    def test_opening_range_has_positive_rdot(self):
        vec = measurement_vector((10.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert vec[1] == pytest.approx(1.0)
        closing = measurement_vector((10.0, -1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert closing[1] == pytest.approx(-1.0)

    def test_rdot_sign_matches_range_finite_difference(self):
        x = np.array([3.0, 0.7, -2.0, 1.3])
        a = np.array([0.5, -0.2, 0.3])
        dt = 1e-3
        r_now = measurement_vector(x, a)[0]
        x_next = x.copy()
        x_next[0] += dt * x[1]
        x_next[2] += dt * x[3]
        r_next = measurement_vector(x_next, a)[0]
        assert measurement_vector(x, a)[1] == pytest.approx((r_next - r_now) / dt, abs=1e-3)

    def test_bearing_minus_mount_angle_wraps(self):
        vec = measurement_vector((0.0, 0.0, 10.0, 0.0), (0.0, 0.0, math.pi))
        assert vec[2] == pytest.approx(-math.pi / 2)

    def test_near_sensor_raises(self):
        with pytest.raises(SingularGeometryError):
            measurement_vector((0.05, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    def test_wrap_continuity_near_seam(self):
        a = (0.0, 0.0, 0.0)
        left = measurement_vector((-10.0, 0.0, 1e-4, 0.0), a)[2]
        right = measurement_vector((-10.0, 0.0, -1e-4, 0.0), a)[2]
        assert abs(wrap_angle(left - right)) < 1e-4


class TestJacobians:
    def test_axis_aligned_entries(self):
        cx, ca, _ = jacobians((10.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert cx[0, 0] == 1.0
        assert cx[0, 2] == 0.0
        assert cx[2, 2] == pytest.approx(0.1)
        assert ca[2, 2] == -1.0

    def test_mount_angle_column_is_minus_one_everywhere(self, rng):
        for _ in range(20):
            x = rng.uniform(-20, 20, size=4)
            a = rng.uniform(-1, 1, size=3)
            if math.hypot(x[0] - a[0], x[2] - a[1]) < 1.0:
                continue
            _, ca, _ = jacobians(x, a)
            assert ca[2, 2] == -1.0
            assert ca[0, 2] == 0.0
            assert ca[1, 2] == 0.0

    def test_u1_consistency(self, rng):
        for _ in range(50):
            x = rng.uniform(-20, 20, size=4)
            a = rng.uniform(-2, 2, size=3)
            if math.hypot(x[0] - a[0], x[2] - a[1]) < 1.0:
                continue
            cx, ca, u1 = jacobians(x, a)
            h = measurement_vector(x, a)
            assert np.allclose(cx @ x + ca @ a + u1, h, atol=1e-12)

    def test_matches_central_differences(self, rng):
        checked = 0
        while checked < 200:
            x = rng.uniform(-30, 30, size=4)
            a = np.concatenate([rng.uniform(-3, 3, size=2), [rng.uniform(-math.pi, math.pi)]])
            if math.hypot(x[0] - a[0], x[2] - a[1]) < 1.0:
                continue
            cx, ca, _ = jacobians(x, a)
            fd_cx, fd_ca, _ = finite_difference_jacobians(x, a)
            scale = max(1.0, np.abs(fd_cx).max(), np.abs(fd_ca).max())
            assert np.allclose(cx, fd_cx, atol=1e-6 * scale)
            assert np.allclose(ca, fd_ca, atol=1e-6 * scale)
            checked += 1

    def test_rdot_row_needs_position_terms(self):
        cx, _, _ = jacobians((10.0, 2.0, 5.0, -1.0), (0.0, 0.0, 0.0))
        fd_cx, _, _ = finite_difference_jacobians(
            np.array([10.0, 2.0, 5.0, -1.0]), np.zeros(3))
        assert abs(cx[1, 0] - fd_cx[1, 0]) < 1e-6
        assert abs(cx[1, 0]) > 1e-3


class TestWhitening:
    def test_identity_sigmas_no_change(self, rng):
        rows = rng.normal(size=(3, 7))
        rhs = rng.normal(size=3)
        w_rows, w_rhs = whiten_rows(rows, rhs, np.ones(3))
        assert np.array_equal(w_rows, rows)
        assert np.array_equal(w_rhs, rhs)

    def test_range_row_scaled_by_ten(self, rng):
        rows = rng.normal(size=(3, 5))
        rhs = rng.normal(size=3)
        w_rows, w_rhs = whiten_rows(rows, rhs, np.array([0.1, 0.2, math.radians(1.0)]))
        assert np.allclose(w_rows[0], rows[0] * 10.0)
        assert np.allclose(w_rhs[0], rhs[0] * 10.0)

    def test_roundtrip(self, rng):
        rows = rng.normal(size=(3, 4))
        rhs = rng.normal(size=3)
        sig = np.array([0.1, 0.2, 0.017])
        w_rows, w_rhs = whiten_rows(rows, rhs, sig)
        assert np.allclose(w_rows * sig[:, None], rows, atol=1e-14)
        assert np.allclose(w_rhs * sig, rhs, atol=1e-14)

    def test_whitened_noise_covariance_is_identity(self):
        sig = np.array([0.1, 0.2, math.radians(1.0)])
        rows = np.diag(sig)  # noise square root in measurement space
        w_rows, _ = whiten_rows(rows, np.zeros(3), sig)
        assert np.allclose(w_rows @ w_rows.T, np.eye(3), atol=1e-14)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError):
            whiten_rows(np.eye(3), np.zeros(3), np.array([0.1, 0.0, 1.0]))


class TestCVModel:
    def test_step_example(self):
        phi, g, u2, phi_inv = cv_transition(CVModel(dt=0.1, q_xi=1.0, q_eta=1.0))
        assert np.allclose(phi @ np.array([0.0, 1.0, 0.0, 0.0]), [0.1, 1.0, 0.0, 0.0])
        assert np.array_equal(g, np.eye(4))
        assert np.array_equal(u2, np.zeros(4))

    def test_inverse_exact(self):
        phi, _, _, phi_inv = cv_transition(CVModel(dt=0.1, q_xi=1.0, q_eta=1.0))
        assert np.array_equal(phi @ phi_inv, np.eye(4))
        assert np.array_equal(phi_inv @ phi, np.eye(4))

    def test_transition_entries_at_half_second_step(self):
        phi, *_ = cv_transition(CVModel(dt=0.5, q_xi=1.0, q_eta=1.0))
        expected = np.array([
            [1.0, 0.5, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.5],
            [0.0, 0.0, 0.0, 1.0],
        ])
        assert np.array_equal(phi, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            CVModel(dt=0.0, q_xi=1.0, q_eta=1.0)
        with pytest.raises(ValueError):
            CVModel(dt=0.1, q_xi=0.0, q_eta=1.0)
        with pytest.raises(ValueError):
            CVModel(dt=0.1, q_xi=1.0, q_eta=1.0, noise_form="other")


class TestProcessNoise:
    def test_direct_block_at_unit_parameters(self):
        info = process_noise_info(CVModel(dt=1.0, q_xi=1.0, q_eta=1.0))
        w = info.r[:2, :2]
        assert w[0, 0] == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)
        assert w[0, 1] == pytest.approx(math.sqrt(3.0 / 4.0), abs=1e-15)
        assert w[1, 0] == 0.0
        assert w[1, 1] == pytest.approx(0.5, abs=1e-15)
        assert np.array_equal(info.r[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(info.r[2:, :2], np.zeros((2, 2)))
        assert np.array_equal(info.z, np.zeros(4))

    def test_intensity_scales_direct_blocks(self):
        base = process_noise_info(CVModel(dt=0.1, q_xi=1.0, q_eta=1.0)).r
        scaled = process_noise_info(CVModel(dt=0.1, q_xi=2.0, q_eta=3.0)).r
        assert np.allclose(scaled[:2, :2], 2.0 * base[:2, :2])
        assert np.allclose(scaled[2:, 2:], 3.0 * base[2:, 2:])

    def test_standard_form_matches_textbook_covariance(self):
        model = CVModel(dt=0.1, q_xi=0.7, q_eta=0.7, noise_form="standard")
        cov = process_noise_covariance(model)
        expected = standard_cv_covariance(0.7, 0.1)
        assert np.allclose(cov[:2, :2], expected, rtol=1e-12)
        assert np.allclose(cov[2:, 2:], expected, rtol=1e-12)
        assert np.allclose(cov[:2, 2:], np.zeros((2, 2)), atol=1e-15)

    def test_standard_block_upper_triangular(self):
        info = process_noise_info(CVModel(dt=0.1, q_xi=1.0, q_eta=1.0,
                                          noise_form="standard"))
        assert info.is_upper_triangular()


class TestBackproject:
    def test_roundtrip_through_sensor_pose(self, rng):
        for _ in range(50):
            a = np.concatenate([rng.uniform(-3, 3, size=2),
                                [rng.uniform(-math.pi, math.pi)]])
            x = rng.uniform(-30, 30, size=4)
            if math.hypot(x[0] - a[0], x[2] - a[1]) < 1.0:
                continue
            r, _, theta = measurement_vector(x, a)
            pos = backproject(r, theta, a)
            assert np.allclose(pos, [x[0], x[2]], atol=1e-10)


class TestMeasurementType:
    def test_wraps_theta(self):
        m = Measurement(r=1.0, rdot=0.0, theta=3 * math.pi)
        assert m.theta == pytest.approx(math.pi)

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            Measurement(r=0.0, rdot=0.0, theta=0.0)

    def test_rejects_bad_sigmas(self):
        with pytest.raises(ValueError):
            Measurement(r=1.0, rdot=0.0, theta=0.0, noise_sigmas=(1.0, -1.0, 1.0))

    def test_registration_wraps_mount_angle(self):
        reg = Registration(0.0, 0.0, 3 * math.pi)
        assert reg.psi0 == pytest.approx(math.pi)
