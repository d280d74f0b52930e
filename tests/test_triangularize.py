"""Structured Givens triangularization against dense oracles.

The measurement-side reduction is checked against numpy's Householder QR on
the explicitly stacked system, against a least-squares oracle for the solved
mean and residual, and against the moment-form covariance.  The
propagation-side reduction is checked against the same QR oracle and against
direct moment propagation Phi P Phi^T + G Q G^T.
"""

import numpy as np
import pytest

from conftest import (normalize_row_signs, random_x_assembly, random_y_assembly,
                      structured_info)
from jtr.info_array import (
    AssemblyError,
    RotationStats,
    SquareRootInfo,
    XAssembly,
    YAssembly,
    dense_qr,
    triangularize_x,
    triangularize_y,
)
from jtr.layout import JointLayout


def off_block_mask(lay):
    """Boolean mask of entries that must stay exactly zero in R."""
    mask = np.zeros((lay.dim, lay.dim), dtype=bool)
    reg0 = lay.track_dim
    for b in range(lay.n_tracks):
        blk = lay.track_block(b)
        mask[blk, :blk.start] = True
        mask[blk, blk.stop:reg0] = True
    mask[reg0:, :reg0] = True
    return mask


class TestTriangularizeX:
    def test_scalar_worked_example(self):
        lay = JointLayout((0,), 0, nx=1)
        prior = SquareRootInfo(np.array([[1.0]]), np.array([0.0]), lay)
        asm = XAssembly(prior, np.array([[1.0]]), np.zeros((1, 0)), np.array([1.0]))
        post, e = triangularize_x(asm)
        assert post.r[0, 0] == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert post.z[0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
        assert post.mean()[0] == pytest.approx(0.5, rel=1e-14)
        assert np.dot(e, e) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("n_tracks,k,seed", [
        (1, 1, 0), (2, 2, 1), (5, 2, 2), (10, 2, 3), (14, 1, 4), (3, 0, 5),
    ])
    def test_matches_dense_qr_oracle(self, n_tracks, k, seed):
        rng = np.random.default_rng(100 + seed)
        prior = structured_info(rng, n_tracks, k)
        asm = random_x_assembly(rng, prior)
        stacked = asm.stacked()
        post, e = triangularize_x(asm)
        d = prior.dim
        u = dense_qr(stacked)
        mine = normalize_row_signs(np.hstack([post.r, post.z[:, None]]))
        scale = np.linalg.norm(stacked)
        assert np.allclose(mine, u[:d], atol=1e-12 * scale)
        if u.shape[0] > d:
            assert np.linalg.norm(e) == pytest.approx(abs(u[d, d]), abs=1e-12 * scale)

    @pytest.mark.parametrize("n_tracks,k,seed", [(2, 1, 0), (6, 2, 1), (14, 2, 2)])
    def test_mean_covariance_residual_vs_least_squares(self, n_tracks, k, seed):
        rng = np.random.default_rng(200 + seed)
        prior = structured_info(rng, n_tracks, k)
        asm = random_x_assembly(rng, prior)
        stacked = asm.stacked()
        post, e = triangularize_x(asm)
        a, b = stacked[:, :-1], stacked[:, -1]
        sol, resid, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.allclose(post.mean(), sol, rtol=1e-8, atol=1e-10)
        assert np.dot(e, e) == pytest.approx(float(resid[0]), rel=1e-10, abs=1e-12)
        cov_oracle = np.linalg.inv(a.T @ a)
        assert np.allclose(post.covariance(), cov_oracle, rtol=1e-8, atol=1e-10)

    def test_gram_preserved(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n_tracks = int(rng.integers(1, 11))
            prior = structured_info(rng, n_tracks, 2)
            asm = random_x_assembly(rng, prior)
            stacked = asm.stacked()
            g0 = stacked.T @ stacked
            post, e = triangularize_x(asm)
            out = np.hstack([post.r, post.z[:, None]])
            g1 = out.T @ out
            g1[-1, -1] += np.dot(e, e)
            assert np.linalg.norm(g1 - g0) < 1e-10 * np.linalg.norm(g0)

    def test_structural_zeros_exact(self, rng):
        prior = structured_info(rng, 6, 2)
        mask = off_block_mask(prior.layout)
        asm = random_x_assembly(rng, prior)
        post, _ = triangularize_x(asm)
        assert np.all(post.r[mask] == 0.0)
        assert post.is_upper_triangular()

    def test_rotation_count_linear_in_rows(self, rng):
        prior = structured_info(rng, 10, 2)
        asm = random_x_assembly(rng, prior, rows_per_track=4)
        stats = RotationStats()
        m = asm.m
        lay = prior.layout
        triangularize_x(asm, stats)
        assert stats.rotations <= m * lay.nx
        assert stats.pair_ops <= 2 * m * (lay.nx + lay.reg_dim) * lay.nx

    def test_empty_measurement_set(self, rng):
        prior = structured_info(rng, 3, 2)
        keep_r, keep_z = prior.r.copy(), prior.z.copy()
        asm = XAssembly(prior, np.zeros((0, prior.layout.track_dim)),
                        np.zeros((0, prior.layout.reg_dim)), np.zeros(0))
        post, e = triangularize_x(asm)
        assert e.shape == (0,)
        assert np.array_equal(post.r, keep_r)
        assert np.array_equal(post.z, keep_z)

    def test_no_tracks_and_no_rows(self):
        lay = JointLayout((), 2)
        r = np.triu(np.ones((6, 6))) + np.eye(6)
        z = np.arange(6.0)
        asm = XAssembly(SquareRootInfo(r.copy(), z.copy(), lay),
                        np.zeros((0, 0)), np.zeros((0, 6)), np.zeros(0))
        assert asm.row_blocks.shape == (0,)
        post, e = triangularize_x(asm)
        assert e.shape == (0,)
        assert np.array_equal(post.r, r)
        assert np.array_equal(post.z, z)

    def test_row_touching_two_tracks_rejected(self, rng):
        prior = structured_info(rng, 2, 1)
        cx = np.zeros((1, prior.layout.track_dim))
        cx[0, 0] = 1.0
        cx[0, 5] = 1.0
        with pytest.raises(AssemblyError):
            XAssembly(prior, cx, np.zeros((1, 3)), np.zeros(1))

    def test_row_touching_no_track_rejected(self, rng):
        prior = structured_info(rng, 2, 1)
        cx = np.zeros((1, prior.layout.track_dim))
        with pytest.raises(AssemblyError):
            XAssembly(prior, cx, np.ones((1, 3)), np.zeros(1))

    def test_no_registration_residual_passthrough(self):
        lay = JointLayout((0,), 0, nx=1)
        prior = SquareRootInfo(np.array([[2.0]]), np.array([1.0]), lay)
        asm = XAssembly(prior, np.array([[1.0], [1.0]]), np.zeros((2, 0)),
                        np.array([1.0, 2.0]))
        stacked = asm.stacked()
        post, e = triangularize_x(asm)
        a, b = stacked[:, :-1], stacked[:, -1]
        _, resid, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.dot(e, e) == pytest.approx(float(resid[0]), rel=1e-12)


class TestTriangularizeY:
    def test_identity_dynamics_passthrough(self, rng):
        post = structured_info(rng, 3, 2)
        lay = post.layout
        nx = lay.nx
        asm = YAssembly(
            layout=lay,
            rw=[np.eye(nx)] * 3,
            rx_gd=[np.zeros((nx, nx))] * 3,
            rx_d=[post.r[lay.track_block(b), lay.track_block(b)].copy() for b in range(3)],
            zw=[np.zeros(nx)] * 3,
            rxa=post.r[:lay.track_dim, lay.reg_slice()].copy(),
            ra=post.r[lay.reg_slice(), lay.reg_slice()].copy(),
            zx=post.z[:lay.track_dim].copy(),
            za=post.z[lay.reg_slice()].copy(),
        )
        out = triangularize_y(asm)
        assert np.array_equal(out.r, post.r)
        assert np.array_equal(out.z, post.z)

    @pytest.mark.parametrize("n_tracks,k,seed", [
        (1, 1, 0), (3, 2, 1), (8, 2, 2), (14, 1, 3), (2, 0, 4),
    ])
    def test_matches_dense_qr_oracle(self, n_tracks, k, seed):
        rng = np.random.default_rng(300 + seed)
        post = structured_info(rng, n_tracks, k)
        asm = random_y_assembly(rng, post)
        stacked = asm.stacked()
        out = triangularize_y(asm)
        nw = post.layout.n_tracks * post.layout.nx
        u = dense_qr(stacked)
        mine = normalize_row_signs(np.hstack([out.r, out.z[:, None]]))
        oracle = normalize_row_signs(u[nw:, nw:])
        assert np.allclose(mine, oracle, atol=1e-11 * np.linalg.norm(stacked))

    def test_cv_moment_oracle(self, rng):
        from jtr.models import CVModel, cv_transition, process_noise_covariance, process_noise_info

        post = structured_info(rng, 4, 2)
        lay = post.layout
        model = CVModel(dt=0.1, q_xi=0.5, q_eta=0.5, noise_form="standard")
        phi, g, u2, phi_inv = cv_transition(model)
        rw = process_noise_info(model).r
        qcov = process_noise_covariance(model)
        reg = lay.reg_slice()
        rx_gd, rx_d = [], []
        for b in range(lay.n_tracks):
            blk = lay.track_block(b)
            rx = post.r[blk, blk]
            rx_gd.append(-rx @ phi_inv @ g)
            rx_d.append(rx @ phi_inv)
        asm = YAssembly(
            layout=lay, rw=[rw.copy() for _ in range(4)], rx_gd=rx_gd, rx_d=rx_d,
            zw=[np.zeros(4)] * 4,
            rxa=post.r[:lay.track_dim, reg].copy(), ra=post.r[reg, reg].copy(),
            zx=post.z[:lay.track_dim].copy(), za=post.z[reg].copy(),
        )
        out = triangularize_y(asm)

        big_phi = np.eye(lay.dim)
        noise = np.zeros((lay.dim, lay.dim))
        for b in range(lay.n_tracks):
            blk = lay.track_block(b)
            big_phi[blk, blk] = phi
            noise[blk, blk] = g @ qcov @ g.T
        mu, cov = post.mean(), post.covariance()
        assert np.allclose(out.mean(), big_phi @ mu, rtol=1e-8, atol=1e-9)
        assert np.allclose(out.covariance(), big_phi @ cov @ big_phi.T + noise,
                           rtol=1e-8, atol=1e-9)

    def test_gram_preserved_with_noise_rows(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n_tracks = int(rng.integers(1, 11))
            post = structured_info(rng, n_tracks, 2)
            asm = random_y_assembly(rng, post)
            stacked = asm.stacked()
            g0 = stacked.T @ stacked
            out, noise_rows = triangularize_y(asm, keep_noise_rows=True)
            nw = n_tracks * post.layout.nx
            full = np.vstack([
                noise_rows,
                np.hstack([np.zeros((post.layout.dim, nw)), out.r, out.z[:, None]]),
            ])
            g1 = full.T @ full
            assert np.linalg.norm(g1 - g0) < 1e-10 * np.linalg.norm(g0)

    def test_structural_zeros_and_triangularity(self, rng):
        post = structured_info(rng, 5, 2)
        asm = random_y_assembly(rng, post)
        out = triangularize_y(asm)
        from test_triangularize import off_block_mask
        assert np.all(out.r[off_block_mask(post.layout)] == 0.0)
        assert out.is_upper_triangular()

    def test_registration_rows_pass_through(self, rng):
        post = structured_info(rng, 3, 2)
        asm = random_y_assembly(rng, post)
        ra, za = asm.ra.copy(), asm.za.copy()
        out = triangularize_y(asm)
        reg = post.layout.reg_slice()
        assert np.array_equal(out.r[reg, reg], ra)
        assert np.array_equal(out.z[reg], za)

    def test_rotation_count_linear_in_tracks(self, rng):
        post = structured_info(rng, 10, 2)
        asm = random_y_assembly(rng, post)
        stats = RotationStats()
        triangularize_y(asm, stats)
        lay = post.layout
        per_track = lay.nx * lay.nx + lay.nx * (lay.nx - 1) // 2
        assert stats.rotations <= lay.n_tracks * per_track
        width = 2 * lay.nx + lay.reg_dim + 1
        assert stats.pair_ops <= lay.n_tracks * per_track * width

    def test_no_tracks_keeps_registration(self):
        lay = JointLayout((), 2)
        asm = YAssembly(layout=lay, rw=[], rx_gd=[], rx_d=[], zw=[],
                        rxa=np.zeros((0, 6)), ra=np.triu(np.ones((6, 6))),
                        zx=np.zeros(0), za=np.arange(6.0))
        out = triangularize_y(asm)
        assert np.array_equal(out.r, np.triu(np.ones((6, 6))))
        assert np.array_equal(out.z, np.arange(6.0))
