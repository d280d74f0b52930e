"""Filter-level behavior: initialization, update, reset, propagate, reshape."""

import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.stats import chi2

from jtr.baselines import (dense_estimates, dense_initialize, dense_measurement_update,
                           dense_reshape, dense_reset_registration, dense_time_propagate)
from jtr.joint_filter import (FmapConfig, SensorPrior, build_measurement_rows,
                              check_and_reset_registration, initialize,
                              load_state, measurement_update, monitor_innovation,
                              registration_estimate, reset_registration,
                              reshape_state, save_state, solve_estimates,
                              time_propagate, track_estimate, windowed_innovation)
from conftest import loop_measurement_rows
from jtr import joint_filter, simkit
from jtr.models import CVModel, SingularGeometryError, TrackState, predict_measurement

SIGMAS = (0.1, 0.2, math.radians(1.0))
A_TRUE = {0: np.array([2.0, 0.6, math.radians(10.0)]),
          1: np.array([2.0, -0.6, math.radians(-10.0)])}
PRIORS = {0: SensorPrior((2.0, 0.6, math.radians(10.0)), pinned=True),
          1: SensorPrior((2.5, -0.1, math.radians(-5.0)))}


def make_state(track_guesses, priors=PRIORS, config=None):
    st = initialize(2, config or FmapConfig(), priors)
    if track_guesses:
        st = reshape_state(st, new_tracks=list(track_guesses.items()))
    return st


def noisy_assoc(rng, truths, sensors=(0, 1), sigma=SIGMAS):
    assoc = []
    for tid, x in truths.items():
        for s in sensors:
            clean = predict_measurement(x, A_TRUE[s], sensor_id=s, noise_sigmas=sigma)
            noise = rng.normal(size=3) * np.array(sigma)
            from jtr.models import Measurement
            assoc.append((tid, Measurement(
                r=clean.r + noise[0], rdot=clean.rdot + noise[1],
                theta=clean.theta + noise[2], sensor_id=s, noise_sigmas=sigma)))
    return assoc


class TestInitialize:
    def test_bare_noninformative(self):
        st = initialize(2, FmapConfig(epsilon=1e-4))
        assert np.array_equal(st.info.r, 1e-4 * np.eye(6))
        assert np.array_equal(st.info.z, np.zeros(6))
        assert st.epoch == 0
        sol = solve_estimates(st)
        assert np.array_equal(sol.estimate, np.zeros(6))
        assert np.allclose(sol.registration_covariance, 1e8 * np.eye(6))

    def test_pinned_prior_mean_and_weight(self):
        st = initialize(2, FmapConfig(), PRIORS)
        mean0, cov0 = registration_estimate(st, 0)
        assert np.allclose(mean0, A_TRUE[0], atol=1e-12)
        assert np.allclose(cov0, 1e-6 * np.eye(3), atol=1e-18)
        mean1, cov1 = registration_estimate(st, 1)
        assert np.allclose(mean1, [2.5, -0.1, math.radians(-5.0)], atol=1e-12)
        assert np.allclose(cov1, 1e8 * np.eye(3))
        assert st.pinned == frozenset({0})

    def test_needs_a_sensor(self):
        with pytest.raises(ValueError):
            initialize(0)


class TestMeasurementUpdate:
    def test_empty_assoc_is_identity(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        before = solve_estimates(st).estimate
        st2, rss, m = measurement_update(st, [])
        assert rss == 0.0 and m == 0
        assert st2 is st
        assert np.array_equal(solve_estimates(st2).estimate, before)

    def test_self_consistent_measurements_leave_no_residual(self):
        guesses = {1: TrackState(20.0, 1.0, 5.0, -0.5)}
        st = make_state(guesses)
        sol = solve_estimates(st)
        assoc = []
        for s in (0, 1):
            x_star = sol.estimate[st.layout.track_slice(1)]
            a_star = sol.estimate[st.layout.sensor_slice(s)]
            assoc.append((1, predict_measurement(x_star, a_star, sensor_id=s,
                                                 noise_sigmas=SIGMAS)))
        _, rss, m = measurement_update(st, assoc)
        assert m == 6
        assert rss < 1e-16

    def test_unknown_track_rejected(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        meas = predict_measurement((20.0, 1.0, 5.0, -0.5), A_TRUE[0], sensor_id=0,
                                   noise_sigmas=SIGMAS)
        with pytest.raises(KeyError):
            measurement_update(st, [(99, meas)])

    def test_unknown_sensor_rejected(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        meas = predict_measurement((20.0, 1.0, 5.0, -0.5), A_TRUE[0], sensor_id=7,
                                   noise_sigmas=SIGMAS)
        with pytest.raises(KeyError):
            measurement_update(st, [(1, meas)])

    def test_track_inside_min_range_rejected(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5),
                         2: TrackState(2.05, 0.0, 0.6, 0.0)})
        meas = predict_measurement((20.0, 1.0, 5.0, -0.5), A_TRUE[0], sensor_id=0,
                                   noise_sigmas=SIGMAS)
        with pytest.raises(SingularGeometryError):
            measurement_update(st, [(1, meas), (2, meas)])

    def test_posterior_matches_dense_oracle(self, rng):
        truths = {1: (20.0, 1.0, 5.0, -0.5), 2: (30.0, 0.0, -4.0, 0.2),
                  3: (12.0, -0.7, 9.0, 0.4)}
        guesses = {tid: np.asarray(x) + 0.05 for tid, x in truths.items()}
        st = make_state(guesses)
        dst = dense_reshape(dense_initialize(2, FmapConfig(), PRIORS),
                            new_tracks=list(guesses.items()))
        assoc = noisy_assoc(rng, truths)
        st2, rss, _ = measurement_update(st, assoc)
        dst2, drss, _ = dense_measurement_update(dst, assoc)
        sol = solve_estimates(st2)
        mu, tcovs, rcov = dense_estimates(dst2)
        assert np.allclose(sol.estimate, mu, rtol=1e-8, atol=1e-10)
        for b in range(3):
            assert np.allclose(sol.track_covariances[b], tcovs[b], rtol=1e-8, atol=1e-12)
        assert np.allclose(sol.registration_covariance, rcov, rtol=1e-8, atol=1e-12)
        assert rss == pytest.approx(drss, rel=1e-8, abs=1e-12)

    def test_structure_preserved_many_tracks(self, rng):
        from test_triangularize import off_block_mask
        truths = {i: (15.0 + 3 * i, 0.5, -10.0 + 2.5 * i, 0.3) for i in range(10)}
        st = make_state({tid: np.asarray(x) for tid, x in truths.items()})
        assoc = noisy_assoc(rng, truths)
        st2, _, _ = measurement_update(st, assoc)
        mask = off_block_mask(st2.layout)
        assert np.all(st2.info.r[mask] == 0.0)
        model = CVModel(dt=0.1, q_xi=0.1, q_eta=0.1, noise_form="standard")
        st3 = time_propagate(st2, model)
        assert np.all(st3.info.r[mask] == 0.0)
        assert st3.info.is_upper_triangular()


class TestTimePropagate:
    def test_moment_contract_single_track(self, rng):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        assoc = noisy_assoc(rng, {1: (20.0, 1.0, 5.0, -0.5)})
        st, _, _ = measurement_update(st, assoc)
        model = CVModel(dt=0.1, q_xi=0.2, q_eta=0.3, noise_form="standard")
        from jtr.models import cv_transition, process_noise_covariance
        phi, g, _, _ = cv_transition(model)
        sol = solve_estimates(st)
        st2 = time_propagate(st, model)
        sol2 = solve_estimates(st2)
        blk = st.layout.track_block(0)
        assert np.allclose(sol2.estimate[blk], phi @ sol.estimate[blk],
                           rtol=1e-9, atol=1e-11)
        expected = phi @ sol.track_covariances[0] @ phi.T \
            + g @ process_noise_covariance(model) @ g.T
        assert np.allclose(sol2.track_covariances[0], expected, rtol=1e-9, atol=1e-12)
        assert st2.epoch == st.epoch + 1

    def test_registration_rows_unchanged(self, rng):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        st, _, _ = measurement_update(st, noisy_assoc(rng, {1: (20.0, 1.0, 5.0, -0.5)}))
        reg = st.layout.reg_slice()
        ra, za = st.info.r[reg, reg].copy(), st.info.z[reg].copy()
        st2 = time_propagate(st, CVModel(dt=0.1, q_xi=0.1, q_eta=0.1))
        assert np.array_equal(st2.info.r[reg, reg], ra)
        assert np.array_equal(st2.info.z[reg], za)

    def test_no_tracks_keeps_registration(self):
        st = initialize(2, FmapConfig(), PRIORS)
        st2 = time_propagate(st, CVModel(dt=0.1, q_xi=0.1, q_eta=0.1))
        assert np.array_equal(st2.info.r, st.info.r)
        assert np.array_equal(st2.info.z, st.info.z)
        assert st2.epoch == 1


class TestResetRegistration:
    def build_correlated(self, rng, steps=5):
        truths = {1: np.array([20.0, 1.0, 5.0, -0.5]),
                  2: np.array([30.0, 0.0, -4.0, 0.2])}
        st = make_state({tid: x + 0.05 for tid, x in truths.items()})
        model = CVModel(dt=0.1, q_xi=0.1, q_eta=0.1, noise_form="standard")
        phi, _, _, _ = __import__("jtr.models", fromlist=["cv_transition"]).cv_transition(model)
        for _ in range(steps):
            st, _, _ = measurement_update(st, noisy_assoc(rng, truths))
            st = time_propagate(st, model)
            for tid in truths:
                truths[tid] = phi @ truths[tid]
        return st

    def test_reset_marginals(self, rng):
        st = self.build_correlated(rng)
        lay = st.layout
        coupling = st.info.r[:lay.track_dim, lay.sensor_slice(1)]
        assert np.any(coupling != 0.0)
        sol_before = solve_estimates(st)
        st2 = reset_registration(st, [1])
        sol_after = solve_estimates(st2)
        eps = st.config.epsilon
        sl = lay.sensor_slice(1)
        guess = np.array([2.5, -0.1, math.radians(-5.0)])
        assert np.array_equal(st2.info.r[sl, sl], eps * np.eye(3))
        np.testing.assert_allclose(st2.info.z[sl], eps * guess, rtol=1e-12)
        mean_b_after, _ = registration_estimate(st2, 1)
        np.testing.assert_allclose(mean_b_after, guess, rtol=1e-12, atol=1e-12)
        assert np.all(st2.info.r[:lay.track_dim, sl] == 0.0)
        for b in range(lay.n_tracks):
            blk = lay.track_block(b)
            assert np.allclose(sol_after.estimate[blk], sol_before.estimate[blk],
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(sol_after.track_covariances[b],
                               sol_before.track_covariances[b], rtol=1e-12, atol=1e-14)
        mean_a_before, cov_a_before = registration_estimate(st, 0)
        mean_a_after, cov_a_after = registration_estimate(st2, 0)
        assert np.allclose(mean_a_after, mean_a_before, rtol=1e-12, atol=1e-12)
        assert np.allclose(cov_a_after, cov_a_before, rtol=1e-12, atol=1e-18)

    def test_reset_matches_dense_mirror(self, rng):
        st = self.build_correlated(rng)
        st2 = reset_registration(st, [1])
        # rebuild the same history densely
        rng2 = np.random.default_rng(20260816)
        truths = {1: np.array([20.0, 1.0, 5.0, -0.5]),
                  2: np.array([30.0, 0.0, -4.0, 0.2])}
        dst = dense_reshape(dense_initialize(2, FmapConfig(), PRIORS),
                            new_tracks=[(tid, x + 0.05) for tid, x in truths.items()])
        model = CVModel(dt=0.1, q_xi=0.1, q_eta=0.1, noise_form="standard")
        from jtr.models import cv_transition
        phi, _, _, _ = cv_transition(model)
        for _ in range(5):
            dst, _, _ = dense_measurement_update(dst, noisy_assoc(rng2, truths))
            dst = dense_time_propagate(dst, model)
            for tid in truths:
                truths[tid] = phi @ truths[tid]
        dst2 = dense_reset_registration(dst, [1])
        sol = solve_estimates(st2)
        mu, tcovs, rcov = dense_estimates(dst2)
        assert np.allclose(sol.estimate, mu, rtol=1e-7, atol=1e-9)
        for b in range(2):
            assert np.allclose(sol.track_covariances[b], tcovs[b], rtol=1e-7, atol=1e-10)
        assert np.allclose(sol.registration_covariance, rcov, rtol=1e-7, atol=1e-9)


class TestInnovationMonitor:
    def test_nominal_residuals_do_not_fire(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        for _ in range(20):
            st, fired = check_and_reset_registration(st, 30.0, 30)
            assert not fired

    def test_large_residuals_fire_once_window_full(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        fires = []
        for step in range(5):
            st, fired = check_and_reset_registration(st, 120.0, 30)
            fires.append(fired)
        assert fires == [False, False, False, False, True]
        assert st.innovation_history == ()

    def test_zero_dims_skipped(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        st2, fired = check_and_reset_registration(st, 0.0, 0)
        assert not fired
        assert st2.innovation_history == ()

    def test_all_sensors_pinned_never_resets(self):
        priors = {0: SensorPrior(tuple(A_TRUE[0]), pinned=True),
                  1: SensorPrior(tuple(A_TRUE[1]), pinned=True)}
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)}, priors=priors)
        for _ in range(10):
            st, fired = check_and_reset_registration(st, 500.0, 30)
            assert not fired

    def test_false_positive_rate_at_chi2_level(self):
        rng = np.random.default_rng(99)
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        m = 30
        fires = 0
        steps = 1000
        for _ in range(steps):
            rss = float(rng.chisquare(m))
            st, fired = check_and_reset_registration(st, rss, m)
            if fired:
                fires += 1
        windows = steps - st.config.innovation_window + 1
        assert fires / windows < 0.02

    def test_quantile_matches_scipy_stats_bit_for_bit(self):
        for level in (0.9, 0.95, 0.99, 0.999):
            for dof in range(1, 2000):
                assert (joint_filter.chi2_per_dof_quantile(level, dof)
                        == float(chi2.ppf(level, dof)) / dof), (level, dof)

    @settings(max_examples=60, deadline=None)
    @given(window=hst.integers(1, 6),
           all_pinned=hst.booleans(),
           steps=hst.lists(hst.tuples(hst.floats(0.0, 4.0), hst.integers(0, 4)),
                           max_size=20))
    def test_matches_brute_force_window(self, window, all_pinned, steps):
        """Both backends' monitor and the reporting window against a plain
        recomputation: m = 0 epochs are skipped, the stat is nan until the
        window is full, a fire clears the monitor window (never the
        reporting one), and nothing fires when every sensor is pinned."""
        cfg = FmapConfig(innovation_window=window)
        priors = PRIORS
        if all_pinned:
            priors = {s: SensorPrior(tuple(A_TRUE[s]), pinned=True) for s in A_TRUE}
        guess = [(1, np.array([20.0, 1.0, 5.0, -0.5]))]
        fmap = make_state(dict(guess), priors=priors, config=cfg)
        dense = dense_reshape(dense_initialize(2, cfg, priors), new_tracks=guess)
        monitor, report, report_history = [], [], ()
        for per_dof, blocks in steps:
            m = 3 * blocks
            rss = per_dof * max(m, 1)
            expect = False
            if m > 0:
                monitor = (monitor + [(rss, m)])[-window:]
                report = (report + [(rss, m)])[-window:]
                if len(monitor) == window and not all_pinned:
                    dof = sum(d for _, d in monitor)
                    expect = (sum(r for r, _ in monitor) / dof
                              > chi2.ppf(cfg.innovation_threshold, dof) / dof)
            if expect:
                monitor = []
            fmap, fired = check_and_reset_registration(fmap, rss, m)
            dense, dense_fired = monitor_innovation(dense, rss, m,
                                                    dense_reset_registration)
            assert fired == dense_fired == expect
            assert list(fmap.innovation_history) == monitor
            assert list(dense.innovation_history) == monitor

            report_history, stat, _ = windowed_innovation(report_history, rss, m,
                                                          window)
            assert list(report_history) == report
            if len(report) < window:
                assert math.isnan(stat)
            else:
                assert stat == (sum(r for r, _ in report)
                                / sum(d for _, d in report))


class TestReshape:
    def test_identity(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        assert reshape_state(st) is st

    def test_add_leaves_existing_marginals_bitwise(self, rng):
        truths = {1: (20.0, 1.0, 5.0, -0.5)}
        st = make_state({1: np.asarray(truths[1])})
        st, _, _ = measurement_update(st, noisy_assoc(rng, truths))
        mean1, cov1 = track_estimate(st, 1)
        rega, rcov = registration_estimate(st, 1)
        st2 = reshape_state(st, new_tracks=[(7, TrackState(1.0, 0.0, 2.0, 0.0))])
        mean1b, cov1b = track_estimate(st2, 7)
        assert np.allclose(mean1b, [1.0, 0.0, 2.0, 0.0], atol=1e-12)
        mean1c, cov1c = track_estimate(st2, 1)
        assert np.allclose(mean1c, mean1, rtol=1e-12, atol=1e-12)
        assert np.allclose(cov1c, cov1, rtol=1e-12, atol=1e-14)
        regb, rcovb = registration_estimate(st2, 1)
        assert np.allclose(regb, rega, rtol=1e-12, atol=1e-12)
        assert np.allclose(rcovb, rcov, rtol=1e-12, atol=1e-12)

    def test_delete_uncorrelated_keeps_rest_entrywise(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5),
                         2: TrackState(30.0, 0.0, -4.0, 0.2)})
        lay = st.layout
        keep = np.concatenate([np.arange(lay.track_slice(2).start, lay.track_slice(2).stop),
                               np.arange(lay.reg_slice().start, lay.reg_slice().stop)])
        expect_r = st.info.r[np.ix_(keep, keep)]
        expect_z = st.info.z[keep]
        st2 = reshape_state(st, deleted_ids=[1])
        assert st2.track_ids == (2,)
        assert np.array_equal(st2.info.r, expect_r)
        assert np.array_equal(st2.info.z, expect_z)

    def test_delete_correlated_matches_dense_schur(self, rng):
        truths = {1: np.array([20.0, 1.0, 5.0, -0.5]),
                  2: np.array([30.0, 0.0, -4.0, 0.2]),
                  3: np.array([12.0, -0.7, 9.0, 0.4])}
        st = make_state({tid: x + 0.05 for tid, x in truths.items()})
        model = CVModel(dt=0.1, q_xi=0.1, q_eta=0.1, noise_form="standard")
        for _ in range(3):
            st, _, _ = measurement_update(st, noisy_assoc(rng, truths))
            st = time_propagate(st, model)
        joint_cov = st.info.covariance()
        joint_mean = st.info.mean()
        lay = st.layout
        keep = np.concatenate([np.arange(lay.track_slice(t).start, lay.track_slice(t).stop)
                               for t in (1, 3)] + [np.arange(lay.reg_slice().start,
                                                             lay.reg_slice().stop)])
        st2 = reshape_state(st, deleted_ids=[2])
        sol = solve_estimates(st2)
        assert np.allclose(sol.estimate, joint_mean[keep], rtol=1e-9, atol=1e-11)
        marg_cov = joint_cov[np.ix_(keep, keep)]
        out_cov = st2.info.covariance()
        scale = np.abs(marg_cov).max()
        assert np.allclose(out_cov, marg_cov, atol=1e-9 * scale)

    def test_delete_then_readd_uncorrelated_reproduces_marginals(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5),
                         2: TrackState(30.0, 0.0, -4.0, 0.2)})
        mean2, cov2 = track_estimate(st, 2)
        st2 = reshape_state(st, deleted_ids=[2])
        st3 = reshape_state(st2, new_tracks=[(2, TrackState(30.0, 0.0, -4.0, 0.2))])
        mean2b, cov2b = track_estimate(st3, 2)
        assert np.allclose(mean2b, mean2, rtol=1e-12, atol=1e-12)
        assert np.allclose(cov2b, cov2, rtol=1e-12, atol=1e-12)

    def test_unknown_delete_rejected(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        with pytest.raises(KeyError):
            reshape_state(st, deleted_ids=[9])

    def test_duplicate_new_id_rejected(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        with pytest.raises(ValueError):
            reshape_state(st, new_tracks=[(1, TrackState(0.0, 0.0, 5.0, 0.0))])


class TestEstimatesAndFisher:
    def test_fresh_fisher_is_eps_squared_identity(self):
        st = initialize(2, FmapConfig(epsilon=1e-4))
        assert np.array_equal(st.info.r, 1e-4 * np.eye(6))
        assert np.allclose(st.info.r.T @ st.info.r, 1e-8 * np.eye(6))

    def test_covariances_positive_definite_after_update(self, rng):
        truths = {1: (20.0, 1.0, 5.0, -0.5), 2: (30.0, 0.0, -4.0, 0.2)}
        st = make_state({tid: np.asarray(x) for tid, x in truths.items()})
        st, _, _ = measurement_update(st, noisy_assoc(rng, truths))
        sol = solve_estimates(st)
        for cov in sol.track_covariances:
            assert np.linalg.eigvalsh(cov).min() > 0.0
        assert np.linalg.eigvalsh(sol.registration_covariance).min() > 0.0


class TestSnapshot:
    def test_round_trip_bitwise(self, rng):
        truths = {1: (20.0, 1.0, 5.0, -0.5), 2: (30.0, 0.0, -4.0, 0.2)}
        st = make_state({tid: np.asarray(x) for tid, x in truths.items()})
        st, rss, m = measurement_update(st, noisy_assoc(rng, truths))
        st, _ = check_and_reset_registration(st, rss, m)
        st = time_propagate(st, CVModel(dt=0.1, q_xi=0.1, q_eta=0.1, noise_form="standard"))
        text = save_state(st)
        back = load_state(text)
        assert np.array_equal(back.info.r, st.info.r)
        assert np.array_equal(back.info.z, st.info.z)
        assert back.epoch == st.epoch
        assert back.track_ids == st.track_ids
        assert back.pinned == st.pinned
        assert back.config == st.config
        assert back.innovation_history == st.innovation_history

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            load_state("not a snapshot\n")

    def test_entry_below_diagonal_rejected(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        lines = save_state(st).splitlines()
        row2 = lines.index("R") + 3           # third row of R
        vals = lines[row2].split()
        vals[1] = "0.5"
        lines[row2] = " ".join(vals)
        with pytest.raises(ValueError, match="row 2"):
            load_state("\n".join(lines) + "\n")


class TestStackedRowsMatchLoop:
    """``build_measurement_rows`` against the per-detection loop it replaced.

    The bound is set from one recorded measurement (worst 0 for cx and ca,
    1.19e-16 for rhs, times 10 rounded up to a power of ten).
    """

    BOUND = 1e-14

    @pytest.fixture
    def gaps(self, monkeypatch):
        real = joint_filter.build_measurement_rows
        worst = {"cx": 0.0, "ca": 0.0, "rhs": 0.0, "calls": 0}

        def checked(lay, assoc, linearization):
            out = real(lay, assoc, linearization)
            ref = loop_measurement_rows(lay, assoc, linearization)
            assert out[3] == ref[3]
            for name, got, want in zip(("cx", "ca", "rhs"), out[:3], ref[:3]):
                assert got.shape == want.shape
                gap = float(np.linalg.norm(got - want)) / max(
                    float(np.linalg.norm(want)), 1e-300)
                worst[name] = max(worst[name], gap)
            worst["calls"] += 1
            return out

        monkeypatch.setattr(joint_filter, "build_measurement_rows", checked)
        return worst

    @pytest.mark.parametrize("name", ["default_scenario", "replay_crossed",
                                      "step_change"])
    def test_bundled_configs(self, gaps, name):
        cfg = simkit.load_config(resources.files("jtr") / "configs" / f"{name}.json")
        simkit.run_tracker(simkit.generate_scenario(cfg), "fmap")
        assert gaps["calls"] > 100
        assert max(gaps["cx"], gaps["ca"], gaps["rhs"]) <= self.BOUND, gaps

    def test_benchmark_sizes(self, gaps):
        simkit.benchmark([10, 50, 100, 300], trials=5, algos=("fmap",))
        assert gaps["calls"] == 4 * 6
        assert max(gaps["cx"], gaps["ca"], gaps["rhs"]) <= self.BOUND, gaps

    def test_errors_match_loop(self):
        st = make_state({1: TrackState(20.0, 1.0, 5.0, -0.5)})
        lin = solve_estimates(st, with_covariance=False).estimate
        good = predict_measurement((20.0, 1.0, 5.0, -0.5), A_TRUE[0], sensor_id=0,
                                   noise_sigmas=SIGMAS)
        stray = predict_measurement((20.0, 1.0, 5.0, -0.5), A_TRUE[0], sensor_id=None,
                                    noise_sigmas=SIGMAS)
        for assoc in ([(1, good), (99, good)], [(1, good), (1, stray)]):
            for build in (build_measurement_rows, loop_measurement_rows):
                with pytest.raises(KeyError):
                    build(st.layout, assoc, lin)
        empty = build_measurement_rows(st.layout, [], lin)
        assert [a.shape for a in empty[:3]] == [(0, 4), (0, 6), (0,)]
        assert empty[3] == 0


class TestLockstepMiniRun:
    def test_fifty_step_equivalence(self, rng):
        """Joint filter against its dense twin over a full filtering loop."""
        from jtr.baselines import dense_apply_rows

        model = CVModel(dt=0.1, q_xi=0.1, q_eta=0.1, noise_form="standard")
        truths = {1: np.array([20.0, 1.0, 5.0, -0.5]),
                  2: np.array([30.0, 0.0, -4.0, 0.2]),
                  3: np.array([12.0, -0.7, 9.0, 0.4])}
        guesses = {tid: x + 0.05 for tid, x in truths.items()}
        st = make_state(guesses)
        dst = dense_reshape(dense_initialize(2, FmapConfig(), PRIORS),
                            new_tracks=list(guesses.items()))
        from jtr.models import cv_transition
        phi, _, _, _ = cv_transition(model)
        worst = 0.0
        for step in range(50):
            assoc = noisy_assoc(rng, truths)
            sol = solve_estimates(st, with_covariance=False)
            cx, ca, rhs, m = build_measurement_rows(st.layout, assoc, sol.estimate)
            from jtr.info_array import XAssembly, triangularize_x
            asm = XAssembly(st.info.copy(), cx.copy(), ca.copy(), rhs.copy())
            post, e = triangularize_x(asm)
            import dataclasses
            st = dataclasses.replace(st, info=post)
            dst, _ = dense_apply_rows(dst, cx, ca, rhs)

            sol_f = solve_estimates(st)
            mu, tcovs, rcov = dense_estimates(dst)
            num = np.linalg.norm(sol_f.estimate - mu)
            den = max(np.linalg.norm(mu), 1.0)
            worst = max(worst, num / den)
            for b in range(3):
                diff = np.linalg.norm(sol_f.track_covariances[b] - tcovs[b])
                worst = max(worst, diff / max(np.linalg.norm(tcovs[b]), 1e-12))
            diff = np.linalg.norm(sol_f.registration_covariance - rcov)
            worst = max(worst, diff / max(np.linalg.norm(rcov), 1e-12))

            st = time_propagate(st, model)
            dst = dense_time_propagate(dst, model)
            for tid in truths:
                truths[tid] = phi @ truths[tid]
        assert worst < 1e-8
