"""Scenario generation, association, runners, metrics and I/O round-trips."""

import csv
import filecmp
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtr import joint_filter, simkit
from jtr.blas import _openblas_pools, blas_threads
from jtr.joint_filter import FmapConfig
from jtr.models import backproject, measurement_vector, wrap_angle
from jtr.simkit import (AssociationMap, ConfigError, EpochRecord, FieldOfView,
                        ReplayFormatError, RunResult, ScenarioConfig,
                        SensorSpec, SpawnSpec, StepChange, associate, benchmark,
                        config_from_dict, fit_loglog, generate_scenario,
                        linear_crlb_experiment, load_config, metrics,
                        read_replay, run_lockstep, run_replay, run_tracker,
                        synthesize_measurements, write_registration_csv,
                        write_replay, write_timing_csv, write_tracks_csv)

PSI_A = math.radians(10.0)
PSI_B = math.radians(-10.0)


def two_sensor_config(seed=0, duration=5.0, n_targets=3, sigmas=None,
                      q=0.1, spawns=None, **kw):
    """Two offset sensors, the first pinned at truth, targets spanning the run."""
    if sigmas is None:
        sigmas = (0.1, 0.2, math.radians(1.0))
    if spawns is None:
        spawns = tuple(SpawnSpec(0.0, duration, None) for _ in range(n_targets))
    sensors = (SensorSpec(0, np.array([2.0, 0.6, PSI_A]), True,
                          np.array([2.0, 0.6, PSI_A])),
               SensorSpec(1, np.array([2.0, -0.6, PSI_B]), False,
                          np.zeros(3)))
    return ScenarioConfig(seed=seed, duration=duration, dt=0.1, q_xi=q,
                          q_eta=q, sigmas=sigmas, sensors=sensors,
                          spawns=spawns, **kw)


def registration_recovery_config(seed, duration=12.0, n_targets=6):
    """Crossed sensors with the unknown one starting from a coarse guess.

    This is the measurement-driven setting: tracks must be bootstrapped
    from the detections themselves, so association runs in nearest mode
    with a wide monitor window to ride out the birth transients.
    """
    reg_a = np.array([3.724, 0.883, math.radians(45.0)])
    reg_b = np.array([3.720, -0.874, math.radians(-45.0)])
    guess_b = np.array([2.720, -0.126, math.radians(-40.0)])
    return ScenarioConfig(
        seed=seed, duration=duration, dt=0.1, q_xi=0.1, q_eta=0.1,
        sigmas=(0.1, 0.2, math.radians(1.0)),
        sensors=(SensorSpec(0, reg_a, True, reg_a),
                 SensorSpec(1, reg_b, False, guess_b)),
        spawns=tuple(SpawnSpec(0.0, duration, None) for _ in range(n_targets)),
        association="nearest",
        filter_config=FmapConfig(innovation_threshold=0.9999,
                                 innovation_window=10))


class TestScenarioGeneration:
    def test_same_seed_reproduces_truth_and_measurements(self):
        a = generate_scenario(two_sensor_config(seed=11))
        b = generate_scenario(two_sensor_config(seed=11))
        assert sorted(a.truth) == sorted(b.truth)
        for tid in a.truth:
            assert np.array_equal(a.truth[tid].states, b.truth[tid].states)
        assert np.array_equal(a.reg_truth, b.reg_truth)
        for da, db in zip(synthesize_measurements(a), synthesize_measurements(b)):
            assert len(da) == len(db)
            for x, y in zip(da, db):
                assert (x.sensor_id, x.truth_id) == (y.sensor_id, y.truth_id)
                assert x.meas.as_vector().tolist() == y.meas.as_vector().tolist()

    def test_different_seeds_differ(self):
        a = generate_scenario(two_sensor_config(seed=1))
        b = generate_scenario(two_sensor_config(seed=2))
        assert not np.array_equal(a.truth[1].states, b.truth[1].states)

    def test_zero_process_noise_gives_straight_lines(self):
        cfg = two_sensor_config(seed=3, q=0.0)
        scn = generate_scenario(cfg)
        for trk in scn.truth.values():
            x0 = trk.states[0]
            for i in range(trk.states.shape[0]):
                t = i * cfg.dt
                expect = np.array([x0[0] + t * x0[1], x0[1],
                                   x0[2] + t * x0[3], x0[3]])
                np.testing.assert_allclose(trk.states[i], expect, atol=1e-10)

    def test_epoch_grid_and_target_count(self):
        scn = generate_scenario(two_sensor_config(seed=4, duration=50.0,
                                                  n_targets=10))
        assert scn.n_epochs == 500
        assert len(scn.truth) == 10
        np.testing.assert_allclose(scn.times[:3], [0.0, 0.1, 0.2])

    def test_spawn_states_visible_to_every_sensor(self):
        cfg = two_sensor_config(seed=5, n_targets=8)
        scn = generate_scenario(cfg)
        for trk in scn.truth.values():
            x = trk.states[0]
            for s in cfg.sensors:
                dxi, deta = x[0] - s.true_reg[0], x[2] - s.true_reg[1]
                r = math.hypot(dxi, deta)
                theta = wrap_angle(math.atan2(deta, dxi) - s.true_reg[2])
                assert cfg.fov.r_min <= r <= cfg.fov.r_max
                assert abs(theta) <= cfg.fov.half_angle

    def test_step_change_switches_truth_row(self):
        new = np.array([2.0, -0.6, math.radians(-5.0)])
        cfg = two_sensor_config(seed=6, step_changes=(StepChange(2.5, 1, new),))
        scn = generate_scenario(cfg)
        np.testing.assert_array_equal(scn.reg_truth[24, 1],
                                      [2.0, -0.6, PSI_B])
        np.testing.assert_array_equal(scn.reg_truth[25, 1], new)
        np.testing.assert_array_equal(scn.reg_truth[-1, 1], new)

    def test_step_change_outside_run_rejected(self):
        cfg = two_sensor_config(
            seed=6, step_changes=(StepChange(99.0, 1,
                                             np.array([2.0, -0.6, 0.0])),))
        with pytest.raises(ConfigError):
            generate_scenario(cfg)

    def test_empty_spawn_window_rejected(self):
        cfg = two_sensor_config(seed=7, spawns=(SpawnSpec(1.0, 1.0 + 0.01,
                                                          None),))
        with pytest.raises(ConfigError):
            generate_scenario(cfg)


class TestMeasurementSynthesis:
    def test_detections_sorted_by_sensor_then_target(self):
        scn = generate_scenario(two_sensor_config(seed=8, n_targets=5))
        for dets in synthesize_measurements(scn):
            keys = [(d.sensor_id, d.truth_id) for d in dets]
            assert keys == sorted(keys)

    def test_near_zero_noise_inverts_to_truth(self):
        cfg = two_sensor_config(seed=9, sigmas=(1e-9, 1e-9, 1e-12))
        scn = generate_scenario(cfg)
        dets = synthesize_measurements(scn)
        checked = 0
        for e, epoch in enumerate(dets):
            for d in epoch:
                truth = scn.truth[d.truth_id].state_at(e)
                reg = scn.reg_truth[e, d.sensor_id]
                pos = backproject(d.meas.r, d.meas.theta, reg)
                np.testing.assert_allclose(pos, truth[[0, 2]], atol=1e-6)
                clean = measurement_vector(truth, reg)
                assert abs(d.meas.rdot - clean[1]) < 1e-6
                checked += 1
        assert checked > 100

    def test_noise_sample_std_matches_sigmas(self):
        cfg = two_sensor_config(
            seed=10, duration=1000.0, q=0.0,
            spawns=(SpawnSpec(0.0, 1000.0, np.array([12.0, 0.0, 3.0, 0.0])),))
        scn = generate_scenario(cfg)
        resid = []
        for e, epoch in enumerate(synthesize_measurements(scn)):
            for d in epoch:
                clean = measurement_vector(scn.truth[1].state_at(e),
                                           scn.reg_truth[e, d.sensor_id])
                resid.append(d.meas.as_vector() - clean)
        resid = np.array(resid)
        assert resid.shape[0] >= 10_000
        std = resid.std(axis=0)
        for got, want in zip(std, cfg.sigmas):
            assert abs(got - want) / want < 0.05

    def test_measurements_follow_step_change(self):
        new = np.array([2.0, -0.6, math.radians(-5.0)])
        cfg = two_sensor_config(seed=11, sigmas=(1e-9, 1e-9, 1e-12),
                                step_changes=(StepChange(2.5, 1, new),))
        scn = generate_scenario(cfg)
        dets = synthesize_measurements(scn)
        after = [d for d in dets[30] if d.sensor_id == 1]
        assert after
        for d in after:
            truth = scn.truth[d.truth_id].state_at(30)
            with_new = measurement_vector(truth, new)
            with_old = measurement_vector(truth, np.array([2.0, -0.6, PSI_B]))
            assert abs(wrap_angle(d.meas.theta - with_new[2])) < 1e-6
            assert abs(wrap_angle(d.meas.theta - with_old[2])) > math.radians(4.0)


def greedy_oracle(predicted, observed, gate):
    """Repeated global-minimum extraction on the full distance matrix."""
    tids = sorted(predicted)
    dist = {(tid, j): math.hypot(predicted[tid][0] - o[0],
                                 predicted[tid][1] - o[1])
            for tid in tids for j, o in enumerate(observed)}
    pairs = []
    used_t, used_m = set(), set()
    while True:
        best = None
        for (tid, j), d in dist.items():
            if tid in used_t or j in used_m or d > gate:
                continue
            key = (d, j, tid)
            if best is None or key < best:
                best = key
        if best is None:
            break
        _, j, tid = best
        used_t.add(tid)
        used_m.add(j)
        pairs.append((tid, j))
    pairs.sort(key=lambda p: p[1])
    unassoc = tuple(j for j in range(len(observed)) if j not in used_m)
    return tuple(pairs), unassoc


class TestAssociate:
    def test_single_pair_inside_gate(self):
        amap = associate({1: np.array([0.0, 0.0])}, [np.array([0.1, 0.0])], 0.5)
        assert amap.pairs == ((1, 0),)
        assert amap.unassociated == ()

    def test_point_beyond_gate_left_unassociated(self):
        amap = associate({1: np.array([0.0, 0.0])}, [np.array([1.0, 0.0])], 0.5)
        assert amap.pairs == ()
        assert amap.unassociated == (0,)

    def test_crossed_pair_matches_nearest(self):
        predicted = {1: np.array([0.0, 0.0]), 2: np.array([1.0, 0.0])}
        observed = [np.array([0.9, 0.0]), np.array([0.1, 0.0])]
        amap = associate(predicted, observed, 0.5)
        assert set(amap.pairs) == {(1, 1), (2, 0)}

    def test_duplicate_measurement_assignment_rejected(self):
        with pytest.raises(ValueError):
            AssociationMap(pairs=((1, 0), (2, 0)), unassociated=())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 10_000))
    def test_matches_bruteforce_oracle(self, n_tracks, n_meas, seed):
        rng = np.random.default_rng(seed)
        predicted = {tid: rng.uniform(-5, 5, size=2)
                     for tid in range(1, n_tracks + 1)}
        observed = [rng.uniform(-5, 5, size=2) for _ in range(n_meas)]
        gate = float(rng.uniform(0.5, 6.0))
        amap = associate(predicted, observed, gate)
        pairs, unassoc = greedy_oracle(predicted, observed, gate)
        assert amap.pairs == pairs
        assert amap.unassociated == unassoc


class TestRunTracker:
    def test_records_cover_every_epoch(self):
        scn = generate_scenario(two_sensor_config(seed=12, duration=3.0))
        res = run_tracker(scn, "fmap")
        assert len(res.records) == scn.n_epochs
        assert res.algo == "fmap"
        assert all(r.n_tracks == len(r.track_rows) for r in res.records)

    def test_unknown_algorithm_rejected(self):
        scn = generate_scenario(two_sensor_config(seed=12, duration=1.0))
        with pytest.raises(ConfigError):
            run_tracker(scn, "kalman")

    def test_no_targets_still_runs(self):
        cfg = two_sensor_config(seed=13, duration=1.0, spawns=())
        res = run_tracker(generate_scenario(cfg), "fmap")
        assert len(res.records) == 10
        assert all(r.n_tracks == 0 and not r.fired for r in res.records)

    def test_every_backend_tracks_the_same_scenario(self):
        # The decoupled baseline ignores the registration cross-terms, so
        # it carries a visible bias while both joint filters stay tight.
        scn = generate_scenario(two_sensor_config(seed=14, duration=3.0))
        for algo, bound in (("fmap", 0.3), ("dense", 0.3), ("sep", 2.0)):
            res = run_tracker(scn, algo)
            m = metrics(res)
            assert m["track.xi"] < bound, algo
            assert m["track.eta"] < bound, algo

    def test_nearest_association_mode_builds_tracks(self):
        cfg = registration_recovery_config(seed=7)
        res = run_tracker(generate_scenario(cfg), "fmap")
        assert 5 <= res.records[-1].n_tracks <= 7
        err = res.final_registration_errors()[1]
        assert err[2] < math.radians(1.0)
        assert not any(r.fired for r in res.records)

    def test_rebirth_after_leaving_coverage(self):
        # A target marching out through the range limit dies after the miss
        # limit and the survivors keep being tracked.
        spawns = (SpawnSpec(0.0, 6.0, np.array([11.0, 0.0, 0.0, 0.0])),
                  SpawnSpec(0.0, 6.0, np.array([14.5, 4.0, 3.0, 0.0])))
        cfg = two_sensor_config(seed=16, duration=6.0, spawns=spawns,
                                fov=FieldOfView(r_max=15.0))
        res = run_tracker(generate_scenario(cfg), "fmap")
        counts = [r.n_tracks for r in res.records]
        assert max(counts) == 2
        assert counts[-1] < 2


class TestMetrics:
    @staticmethod
    def offset_result(track_offset, reg_offset):
        est_t = np.array([10.0, 1.0, -3.0, 0.5])
        tru_r = np.array([2.0, -0.6, 0.1])
        records = []
        for i in range(4):
            records.append(EpochRecord(
                t=0.1 * i,
                track_rows=((1, est_t + track_offset, est_t.copy()),),
                reg_rows=((0, tru_r + reg_offset, tru_r.copy()),),
                rss=0.0, m=6, innovation_stat=float("nan"), fired=False,
                n_tracks=1))
        return RunResult(algo="fmap", records=tuple(records))

    def test_exact_estimates_score_zero(self):
        m = metrics(self.offset_result(0.0, 0.0))
        for key, val in m.items():
            assert val == 0.0, key

    def test_unit_offset_scores_one(self):
        m = metrics(self.offset_result(1.0, 0.0))
        for c in ("xi", "vxi", "eta", "veta"):
            assert m[f"track.{c}"] == pytest.approx(1.0)

    def test_angle_error_wraps(self):
        m = metrics(self.offset_result(0.0, np.array([0.0, 0.0, 2 * math.pi])))
        assert m["sensor0.psi0"] == pytest.approx(0.0, abs=1e-12)

    def test_matches_value_recomputed_from_csv(self, tmp_path):
        scn = generate_scenario(two_sensor_config(seed=17, duration=3.0))
        res = run_tracker(scn, "fmap")
        path = tmp_path / "registration.csv"
        write_registration_csv(path, [res])
        with open(path) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        errs = [abs(wrap_angle(math.radians(float(r["psi0_est_deg"])
                                            - float(r["psi0_true_deg"]))))
                for r in rows if r["sensor_id"] == "1"]
        assert metrics(res)["sensor1.psi0"] == pytest.approx(
            np.mean(errs), rel=1e-6)


BUNDLED = ("default_scenario", "step_change", "replay_crossed")


def bundled_scenario(name):
    return generate_scenario(simkit.load_config(
        resources.files("jtr") / "configs" / f"{name}.json"))


class CheckedFmapRunner(simkit.FmapRunner):
    """Checks every cached read against a full solve of the same state."""

    reads = 0

    def track(self, track_id):
        got = super().track(track_id)
        want = joint_filter.track_estimate(self.state, track_id)[0]
        assert got.tobytes() == want.tobytes(), track_id
        self.reads += 1
        return got

    def registration(self, sensor_id):
        got = super().registration(sensor_id)
        want = joint_filter.registration_estimate(self.state, sensor_id)[0]
        assert got.tobytes() == want.tobytes(), sensor_id
        self.reads += 1
        return got


class TestFmapMeanCache:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_reads_equal_full_solves_over_bundled_runs(self, name, monkeypatch):
        runners = []

        def checked(cfg):
            runners.append(CheckedFmapRunner(cfg))
            return runners[-1]

        monkeypatch.setitem(simkit.RUNNERS, "fmap", checked)
        scn = bundled_scenario(name)
        run_tracker(scn, "fmap")
        assert runners[0].reads >= scn.n_epochs * scn.config.k

    def test_reads_follow_every_state_change(self):
        scn = generate_scenario(two_sensor_config(seed=21, duration=2.0))
        dets = synthesize_measurements(scn)
        runner = simkit.FmapRunner(scn.config)

        def reads():
            lay = runner.state.layout
            return ([(lay.track_slice(t), runner.track(t))
                     for t in runner.track_ids()]
                    + [(lay.sensor_slice(s), runner.registration(s))
                       for s in range(lay.k)])

        def check(call, *args):
            """Reads after ``call`` equal full solves of the new state and
            differ from what a cache of the old state would return."""
            reads()
            old = joint_filter.solve_estimates(runner.state).estimate
            out = call(*args)
            new = reads()
            for sl, est in new:
                assert est.tobytes() == joint_filter.solve_estimates(
                    runner.state).estimate[sl].tobytes()
            assert any(est.tobytes() != old[sl].tobytes() for sl, est in new)
            return out

        ids = sorted({d.truth_id for d in dets[0]})
        guesses = [(t, scn.truth[t].state_at(0) + 0.5) for t in ids]
        check(runner.add_tracks, guesses[:1])
        check(runner.add_tracks, guesses[1:])
        _, m = check(runner.update, [(d.truth_id, d.meas) for d in dets[0]])
        check(runner.propagate)
        check(runner.remove_tracks, ids[-1:])
        check(runner.remove_tracks, ids[:1])
        window = scn.config.filter_config.innovation_window
        fired = [runner.maybe_reset(1e6, m) for _ in range(window - 1)]
        fired.append(check(runner.maybe_reset, 1e6, m))
        assert fired == [False] * (window - 1) + [True]

    @pytest.mark.parametrize("name", ("step_change", "replay_crossed"))
    def test_at_most_three_solves_per_epoch(self, name, monkeypatch):
        scn = bundled_scenario(name)
        solve = joint_filter.solve_estimates
        calls = []                # one counter per epoch

        class Frames(list):
            def __getitem__(self, e):
                calls.append(0)
                return super().__getitem__(e)

        def counting(*args, **kwargs):
            calls[-1] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(joint_filter, "solve_estimates", counting)
        run_tracker(scn, "fmap", Frames(synthesize_measurements(scn)))
        assert len(calls) == scn.n_epochs
        assert max(calls) <= 3


class TestLockstep:
    def test_structured_and_dense_twins_agree(self):
        scn = generate_scenario(two_sensor_config(seed=18, duration=3.0))
        res = run_lockstep(scn)
        assert res.epochs == 30
        assert res.worst_relative_gap < 1e-8
        assert res.off_block_violations == 0


class TestBlasThreads:
    def test_setting_applied_and_restored(self):
        pools = _openblas_pools()
        threads = lambda: [get() for get, _ in pools]
        with blas_threads(1):
            with blas_threads(2):
                assert threads() == [2] * len(pools)
            assert threads() == [1] * len(pools)

    def test_estimates_do_not_depend_on_thread_count(self):
        """200 targets make dense's matrices large enough for threaded BLAS.
        fmap must come out byte-identical; dense, whose large QR and
        products may sum in a thread-dependent order, only within the
        dense-oracle tolerance."""
        raw = json.loads((resources.files("jtr") / "configs"
                          / "default_scenario.json").read_text())
        raw.update(duration_s=0.5, fov={"r_max_m": 200.0})
        raw["targets"] = {"count": 200,
                          "placement": {"r_min_m": 8.0, "r_max_m": 80.0}}
        scn = generate_scenario(config_from_dict(raw))
        dets = synthesize_measurements(scn)
        runs = {}
        for n in (1, 2):
            with blas_threads(n):
                runs[n] = [run_tracker(scn, algo, dets) for algo in ("fmap", "dense")]

        def estimates(res):
            return np.concatenate([est for rec in res.records
                                   for rows in (rec.track_rows, rec.reg_rows)
                                   for _, est, _ in rows])

        (fmap1, dense1), (fmap2, dense2) = runs[1], runs[2]
        assert len(fmap1.records[-1].track_rows) == 200
        assert estimates(fmap1).tobytes() == estimates(fmap2).tobytes()
        assert fmap1.final_info.r.tobytes() == fmap2.final_info.r.tobytes()
        d1, d2 = estimates(dense1), estimates(dense2)
        assert np.linalg.norm(d1 - d2) <= 1e-5 * np.linalg.norm(d1)


class TestBenchmark:
    def test_grid_shape_and_positive_times(self):
        rows, medians, slopes = benchmark([3, 6], trials=2, algos=("fmap",),
                                          seed=7)
        assert len(rows) == 4
        assert set(medians["fmap"]) == {3, 6}
        assert all(t > 0 for _, _, _, t in rows)
        assert "fmap" in slopes

    def test_unsorted_sizes_rejected(self):
        with pytest.raises(ConfigError):
            benchmark([10, 5], trials=1)

    def test_cells_step_in_interleaved_sweeps(self, monkeypatch):
        steps = []   # (algo, n, step) in the order the steps ran

        class Recording:
            def __init__(self, cfg, algo):
                self.cell = (algo, len(cfg.spawns))
                self.step = 0

            def add_tracks(self, pairs):
                pass

            def update(self, assoc):
                steps.append(self.cell + (self.step,))

            def propagate(self):
                self.step += 1

        algos = ("fmap", "sep", "dense")
        monkeypatch.setattr(simkit, "RUNNERS", {
            a: (lambda cfg, a=a: Recording(cfg, a)) for a in algos})
        progress = []
        n_list, trials = [3, 5, 6], 4
        rows, _, _ = benchmark(n_list, trials=trials, algos=algos,
                               progress=lambda a, n, t: progress.append((a, n)))
        cells = [(a, n) for n in n_list for a in algos]
        for cell in cells:
            assert [s for *c, s in steps if tuple(c) == cell] == list(range(trials + 1))
        for s in range(trials):
            last = max(i for i, (*_, k) in enumerate(steps) if k == s)
            first = min(i for i, (*_, k) in enumerate(steps) if k == s + 1)
            assert last < first
        assert [(a, n, t) for a, n, t, _ in rows] == \
            [c + (t,) for c in cells for t in range(1, trials + 1)]
        assert progress == cells

    def test_fit_loglog_recovers_power_law(self):
        ns = [10, 20, 40, 80]
        for p in (0.5, 1.0, 2.0):
            ts = [3.2e-3 * n ** p for n in ns]
            assert fit_loglog(ns, ts) == pytest.approx(p, abs=1e-9)

    def test_fit_loglog_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog([10], [0.1])


class TestCsvOutputs:
    def test_schema_headers(self, tmp_path):
        scn = generate_scenario(two_sensor_config(seed=19, duration=1.0))
        res = run_tracker(scn, "fmap")
        tracks = tmp_path / "tracks.csv"
        reg = tmp_path / "registration.csv"
        timing = tmp_path / "timing.csv"
        write_tracks_csv(tracks, [res])
        write_registration_csv(reg, [res])
        write_timing_csv(timing, [("fmap", 10, 1, 0.001)])
        assert tracks.read_text().splitlines()[0] == "# schema=tracks-1"
        assert reg.read_text().splitlines()[0] == "# schema=registration-1"
        assert timing.read_text().splitlines()[0] == "# schema=timing-1"

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        for tag in ("a", "b"):
            scn = generate_scenario(two_sensor_config(seed=20, duration=2.0))
            res = run_tracker(scn, "fmap")
            write_tracks_csv(tmp_path / f"tracks_{tag}.csv", [res])
            write_registration_csv(tmp_path / f"reg_{tag}.csv", [res])
        assert filecmp.cmp(tmp_path / "tracks_a.csv", tmp_path / "tracks_b.csv",
                           shallow=False)
        assert filecmp.cmp(tmp_path / "reg_a.csv", tmp_path / "reg_b.csv",
                           shallow=False)

    def test_registration_row_count(self, tmp_path):
        scn = generate_scenario(two_sensor_config(seed=21, duration=1.0))
        res = run_tracker(scn, "fmap")
        path = tmp_path / "registration.csv"
        write_registration_csv(path, [res])
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + scn.n_epochs * 2


class TestReplay:
    def test_round_trip_preserves_detections(self, tmp_path):
        cfg = two_sensor_config(seed=22, duration=2.0)
        scn = generate_scenario(cfg)
        path = tmp_path / "stream.csv"
        write_replay(path, scn)
        epochs = read_replay(path, cfg.sigmas)
        direct = synthesize_measurements(scn)
        nonempty = [(e, dets) for e, dets in enumerate(direct) if dets]
        assert len(epochs) == len(nonempty)
        for (t, dets), (e, want) in zip(epochs, nonempty):
            assert t == pytest.approx(scn.times[e], abs=1e-9)
            assert len(dets) == len(want)
            for got, ref in zip(dets, want):
                assert got.sensor_id == ref.sensor_id
                assert got.truth_id == -1
                assert got.meas.r == pytest.approx(ref.meas.r, rel=1e-8)
                assert got.meas.rdot == pytest.approx(ref.meas.rdot, rel=1e-8)
                assert got.meas.theta == pytest.approx(ref.meas.theta,
                                                       rel=1e-7, abs=1e-10)

    def test_replayed_stream_is_trackable(self, tmp_path):
        cfg = registration_recovery_config(seed=23)
        scn = generate_scenario(cfg)
        path = tmp_path / "stream.csv"
        write_replay(path, scn)
        res = run_replay(read_replay(path, cfg.sigmas), cfg)
        assert res.records
        assert 5 <= res.records[-1].n_tracks <= 7
        err = res.final_registration_errors()[1]
        assert err[2] < math.radians(1.0)

    def test_malformed_line_names_its_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# schema=replay-1\n"
                        "0,0,10.0,0.1,5.0\n"
                        "0,0,10.0,0.1\n")
        with pytest.raises(ReplayFormatError, match=r":3:"):
            read_replay(path, (0.1, 0.2, 0.01))

    def test_non_numeric_field_names_its_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,ten,0.1,5.0\n")
        with pytest.raises(ReplayFormatError, match=r":1:"):
            read_replay(path, (0.1, 0.2, 0.01))

    def test_negative_range_names_its_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,10.0,0.1,5.0\n0.1,0,-3.0,0.1,5.0\n")
        with pytest.raises(ReplayFormatError, match=r":2:"):
            read_replay(path, (0.1, 0.2, 0.01))

    def test_out_of_order_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.2,0,10.0,0.1,5.0\n0.1,0,10.0,0.1,5.0\n")
        with pytest.raises(ReplayFormatError, match="out of order"):
            read_replay(path, (0.1, 0.2, 0.01))

    def test_empty_file_gives_empty_run(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# schema=replay-1\n")
        epochs = read_replay(path, (0.1, 0.2, 0.01))
        assert epochs == []
        res = run_replay(epochs, two_sensor_config(seed=24, duration=1.0))
        assert res.records == ()


class TestConfigParsing:
    @staticmethod
    def raw_config():
        return {
            "seed": 5,
            "duration_s": 2.0,
            "dt_s": 0.1,
            "process_noise": {"q_xi": 0.1, "q_eta": 0.1},
            "measurement_noise": {"sigma_r_m": 0.1, "sigma_rdot_ms": 0.2,
                                  "sigma_theta_deg": 1.0},
            "sensors": [
                {"id": 0, "xi0_m": 2.0, "eta0_m": 0.6, "psi_deg": 10.0,
                 "pinned": True,
                 "initial_guess": {"xi0_m": 2.0, "eta0_m": 0.6,
                                   "psi_deg": 10.0}},
                {"id": 1, "xi0_m": 2.0, "eta0_m": -0.6, "psi_deg": -10.0},
            ],
            "targets": {"count": 4},
        }

    def test_round_trip_through_dict(self):
        cfg = config_from_dict(self.raw_config())
        assert cfg.seed == 5 and cfg.k == 2
        assert cfg.sensors[0].pinned and not cfg.sensors[1].pinned
        assert cfg.sensors[1].true_reg[2] == pytest.approx(PSI_B)
        np.testing.assert_array_equal(cfg.sensors[1].guess, np.zeros(3))
        assert len(cfg.spawns) == 4
        assert cfg.association == "truth"
        generate_scenario(cfg)

    def test_missing_key_is_named(self):
        raw = self.raw_config()
        del raw["seed"]
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(raw)

    def test_unknown_filter_option_rejected(self):
        raw = self.raw_config()
        raw["filter"] = {"innovation_threshold": 0.999, "spin": 3}
        with pytest.raises(ConfigError, match="spin"):
            config_from_dict(raw)

    def test_filter_options_are_applied(self):
        raw = self.raw_config()
        raw["filter"] = {"innovation_threshold": 0.9999, "miss_limit": 5}
        cfg = config_from_dict(raw)
        assert cfg.filter_config.innovation_threshold == 0.9999
        assert cfg.filter_config.miss_limit == 5
        assert cfg.filter_config.innovation_window == \
            FmapConfig().innovation_window

    def test_step_changes_parse_degrees(self):
        raw = self.raw_config()
        raw["step_changes"] = [{"t_s": 1.0, "sensor_id": 1, "xi0_m": 2.0,
                                "eta0_m": -0.6, "psi_deg": -5.0}]
        cfg = config_from_dict(raw)
        assert cfg.step_changes[0].new_reg[2] == pytest.approx(
            math.radians(-5.0))

    def test_sensor_ids_must_be_dense(self):
        raw = self.raw_config()
        raw["sensors"][1]["id"] = 7
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_bad_association_mode_rejected(self):
        raw = self.raw_config()
        raw["association"] = "hungarian"
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestLinearVariant:
    def test_error_covariance_tracks_information_bound(self):
        sample_cov, crlb, trace_ratio, margin = linear_crlb_experiment(
            seed=3, trials=60, n_tracks=1, epochs=3)
        assert sample_cov.shape == crlb.shape
        np.testing.assert_allclose(sample_cov, sample_cov.T, atol=1e-12)
        assert 0.6 < trace_ratio < 1.6
        assert margin > -2.0
