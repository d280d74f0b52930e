"""Rotation, QR-wrapper, solve and marginal tests for the kernel."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import structured_info, upper_tri
from jtr.info_array import (
    AssemblyError,
    DegenerateRotationError,
    SingularBlockError,
    SquareRootInfo,
    _givens_cs,
    back_substitute,
    dense_qr,
    format_info_dump,
)
from jtr.joint_filter import FilterState, FmapConfig, reshape_state
from jtr.layout import JointLayout


def rotate(c, s, top, bot):
    """The pair update the triangularizations apply with (c, s)."""
    return c * top + s * bot, c * bot - s * top


class TestMakeGivens:
    """Construction of the Givens rotation the kernel applies (_givens_cs)."""

    def test_three_four_five(self):
        c, s = _givens_cs(3.0, 4.0)
        assert c == 0.6
        assert s == 0.8
        top, bot = rotate(c, s, 3.0, 4.0)
        assert top == pytest.approx(5.0, rel=1e-15)
        assert bot == pytest.approx(0.0, abs=1e-15)

    def test_zero_beta_gives_identity(self):
        assert _givens_cs(7.5, 0.0) == (1.0, 0.0)

    def test_zero_alpha_swaps_rows(self):
        c, s = _givens_cs(0.0, -2.0)
        assert (c, s) == (0.0, -1.0)
        top, bot = rotate(c, s, 0.0, -2.0)
        assert top == 2.0
        assert bot == 0.0

    def test_both_zero_raises(self):
        with pytest.raises(DegenerateRotationError):
            _givens_cs(0.0, 0.0)

    def test_extreme_magnitude_ratios(self):
        pairs = [(1e-150, 1e150), (1e150, 1e-150), (1e150, 1e150),
                 (1e-150, 1e-150), (-1e150, 1e150), (1e-150, -1e-150)]
        for a, b in pairs:
            c, s = _givens_cs(a, b)
            assert math.isfinite(c) and math.isfinite(s)
            assert abs(c * c + s * s - 1.0) < 1e-14
            top, bot = rotate(c, s, a, b)
            assert math.isfinite(top)
            assert top >= 0.0
            assert abs(bot) <= 1e-15 * math.hypot(a, b)

    def test_unit_norm_over_a_million_inputs(self):
        rng = np.random.default_rng(7)
        n = 1_000_000
        exponents = rng.uniform(-150.0, 150.0, size=(n, 2))
        signs = rng.choice([-1.0, 1.0], size=(n, 2))
        vals = (signs * 10.0 ** exponents).tolist()
        worst = 0.0
        for a, b in vals:
            c, s = _givens_cs(a, b)
            err = abs(c * c + s * s - 1.0)
            if err > worst:
                worst = err
        assert worst < 1e-14

    @given(st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
           st.floats(min_value=-1e150, max_value=1e150, allow_nan=False))
    def test_rotation_property(self, a, b):
        assume(abs(a) > 1e-160 or abs(b) > 1e-160)
        c, s = _givens_cs(a, b)
        assert abs(c * c + s * s - 1.0) < 1e-14
        top, bot = rotate(c, s, a, b)
        assert top >= 0.0
        assert abs(bot) <= 1e-14 * math.hypot(a, b)
        assert top == pytest.approx(math.hypot(a, b), rel=1e-13)


class TestDenseQr:
    def test_triangular_positive_input_unchanged(self, rng):
        m = upper_tri(rng, 6)
        m = np.hstack([m, rng.normal(size=(6, 1))])
        assert np.array_equal(dense_qr(m), m)

    def test_gram_preserved(self, rng):
        m = rng.normal(size=(100, 30))
        u = dense_qr(m)
        g0 = m.T @ m
        g1 = u.T @ u
        assert np.linalg.norm(g1 - g0) < 1e-10 * np.linalg.norm(g0)

    def test_diag_nonnegative(self, rng):
        u = dense_qr(rng.normal(size=(20, 8)))
        assert np.all(np.diag(u) >= 0.0)

    def test_zero_column_allowed(self, rng):
        m = rng.normal(size=(10, 4))
        m[:, 2] = 0.0
        u = dense_qr(m)
        g0, g1 = m.T @ m, u.T @ u
        assert np.allclose(g1, g0, atol=1e-12 * max(1.0, np.linalg.norm(g0)))

    def test_nonfinite_rejected(self):
        m = np.eye(3)
        m[1, 1] = np.nan
        with pytest.raises(AssemblyError):
            dense_qr(m)


class TestSquareRootInfo:
    def test_mean_and_covariance_toy(self):
        info = SquareRootInfo(np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([3.0, 1.0]))
        assert np.allclose(info.mean(), [1.0, 1.0])
        assert np.allclose(info.covariance(), [[0.5, -0.5], [-0.5, 1.0]])

    def test_shape_validation(self):
        with pytest.raises(AssemblyError):
            SquareRootInfo(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(AssemblyError):
            SquareRootInfo(np.eye(2), np.zeros(3))

    def test_layout_dim_checked(self):
        lay = JointLayout((0,), 1)
        with pytest.raises(AssemblyError):
            SquareRootInfo(np.eye(5), np.zeros(5), lay)

    def test_singular_track_named(self, rng):
        info = structured_info(rng, 3, 1)
        blk = info.layout.track_block(1)
        info.r[blk.start, blk.start] = 0.0
        with pytest.raises(SingularBlockError) as exc:
            info.mean()
        assert exc.value.block == "track 1"

    def test_singular_registration_named(self, rng):
        info = structured_info(rng, 2, 1)
        reg = info.layout.reg_slice()
        info.r[reg.start, reg.start] = 0.0
        with pytest.raises(SingularBlockError) as exc:
            info.mean()
        assert exc.value.block == "registration"

    def test_nontriangular_mean_rejected(self, rng):
        r = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        info = SquareRootInfo(r, rng.normal(size=4))
        assert not info.is_upper_triangular()
        with pytest.raises(AssemblyError, match="not upper triangular"):
            info.mean()


class TestBackSubstitute:
    def test_identity_blocks(self):
        lay = JointLayout((4, 9), 1)
        z = np.arange(1.0, 12.0)
        sol = back_substitute(SquareRootInfo(np.eye(11), z, lay))
        assert np.array_equal(sol.estimate, z)
        for cov in sol.track_covariances:
            assert np.allclose(cov, np.eye(4))
        assert np.allclose(sol.registration_covariance, np.eye(3))

    def test_unstructured_two_by_two(self):
        info = SquareRootInfo(np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([3.0, 1.0]))
        sol = back_substitute(info)
        assert np.allclose(sol.estimate, [1.0, 1.0])
        assert np.allclose(sol.registration_covariance, info.covariance())

    @pytest.mark.parametrize("n_tracks,k", [(1, 1), (3, 2), (8, 2), (14, 1), (4, 0)])
    def test_matches_dense_oracle(self, rng, n_tracks, k):
        info = structured_info(rng, n_tracks, k)
        sol = back_substitute(info)
        mean = np.linalg.solve(info.r, info.z)
        cov = info.covariance()
        lay = info.layout
        assert np.allclose(sol.estimate, mean, rtol=1e-8, atol=1e-10)
        for b in range(n_tracks):
            blk = lay.track_block(b)
            assert np.allclose(sol.track_covariances[b], cov[blk, blk],
                               rtol=1e-8, atol=1e-12)
        if k:
            reg = lay.reg_slice()
            assert np.allclose(sol.registration_covariance, cov[reg, reg],
                               rtol=1e-8, atol=1e-12)

    def test_no_covariance_path(self, rng):
        info = structured_info(rng, 2, 1)
        sol = back_substitute(info, with_covariance=False)
        assert sol.track_covariances == []
        assert np.allclose(sol.estimate, np.linalg.solve(info.r, info.z))

    def test_singular_block_named(self, rng):
        info = structured_info(rng, 2, 1)
        blk = info.layout.track_block(0)
        info.r[blk.start + 2, blk.start + 2] = 0.0
        with pytest.raises(SingularBlockError) as exc:
            back_substitute(info)
        assert exc.value.block == "track 0"


class TestMarginalizeLeading:
    def test_matches_moment_marginal(self, rng):
        """Dropping the leading track's rows and columns, as reshape_state
        does, leaves exactly the moment marginal of the rest."""
        info = structured_info(rng, 4, 2)
        st = reshape_state(FilterState(info=info, epoch=0, config=FmapConfig()),
                           deleted_ids=[info.layout.track_ids[0]])
        lead = info.layout.nx
        mean = np.linalg.solve(info.r, info.z)
        cov = info.covariance()
        assert np.allclose(st.info.mean(), mean[lead:], rtol=1e-8, atol=1e-10)
        assert np.allclose(st.info.covariance(), cov[lead:, lead:],
                           rtol=1e-8, atol=1e-10)


class TestDump:
    def test_round_trips_exactly(self, rng):
        info = structured_info(rng, 2, 1)
        text = format_info_dump(info)
        lines = text.strip().splitlines()
        assert lines[0] == f"dim {info.dim}"
        rows = [np.array([float(v) for v in ln.split()]) for ln in lines[2:2 + info.dim]]
        assert np.array_equal(np.vstack(rows), info.r)
        z = np.array([float(v) for v in lines[-1].split()])
        assert np.array_equal(z, info.z)
