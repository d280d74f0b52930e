"""Scenario generation, measurement synthesis, association, metrics, benchmarks.

Everything here is deterministic given the scenario seed: truth, measurement
noise, and target placement each draw from their own child stream of one seed
sequence, so regenerating a scenario reproduces every byte of its outputs.
Angles cross this module's public boundary in degrees (configs, CSV, replay
files) and are converted to radians on the way in.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import joint_filter
from .baselines import (SepFilter, dense_apply_rows, dense_estimates,
                        dense_initialize, dense_measurement_update,
                        dense_reset_registration, dense_reshape,
                        dense_time_propagate)
from .blas import blas_threads
from .joint_filter import (FilterState, FmapConfig, SensorPrior,
                           apply_measurement_rows, build_measurement_rows,
                           check_and_reset_registration, initialize,
                           measurement_update, monitor_innovation,
                           reshape_state, solve_estimates, time_propagate,
                           windowed_innovation)
from .models import (CVModel, Measurement, backproject, cv_transition,
                     measurement_vector,
                     process_noise_covariance, wrap_angle)


class ConfigError(ValueError):
    """Raised for any malformed scenario or replay configuration."""


class ReplayFormatError(ConfigError):
    """Raised for a malformed or out-of-order replay detection file."""


# ---------------------------------------------------------------------------
# Scenario configuration


@dataclass(frozen=True)
class SensorSpec:
    sensor_id: int
    true_reg: np.ndarray          # (xi0, eta0, psi) radians
    pinned: bool
    guess: np.ndarray             # prior mean for unpinned sensors

    def prior(self) -> SensorPrior:
        mean = self.true_reg if self.pinned else self.guess
        return SensorPrior(mean=tuple(float(v) for v in mean), pinned=self.pinned)


@dataclass(frozen=True)
class StepChange:
    t: float
    sensor_id: int
    new_reg: np.ndarray


@dataclass(frozen=True)
class SpawnSpec:
    t_birth: float
    t_death: float
    state: np.ndarray | None      # None means drawn from the placement stream


@dataclass(frozen=True)
class FieldOfView:
    half_angle: float = math.pi / 2
    r_min: float = 0.5
    r_max: float = 100.0


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration: float
    dt: float
    q_xi: float
    q_eta: float
    sigmas: tuple                 # (sigma_r, sigma_rdot, sigma_theta) radians
    sensors: tuple                # of SensorSpec
    step_changes: tuple = ()
    spawns: tuple = ()            # of SpawnSpec
    fov: FieldOfView = field(default_factory=FieldOfView)
    association: str = "truth"    # "truth" or "nearest"
    cv_noise_form: str = "standard"
    placement: tuple = (8.0, 30.0, math.radians(60.0), 1.0)
    filter_config: FmapConfig = field(default_factory=FmapConfig)

    def __post_init__(self):
        if self.duration <= 0 or self.dt <= 0:
            raise ConfigError("duration and dt must be positive")
        if self.q_xi < 0 or self.q_eta < 0:
            raise ConfigError("process noise intensities must be nonnegative")
        if len(self.sigmas) != 3 or any(s <= 0 for s in self.sigmas):
            raise ConfigError("measurement sigmas must be three positive values")
        if not self.sensors:
            raise ConfigError("at least one sensor is required")
        if self.association not in ("truth", "nearest"):
            raise ConfigError(f"unknown association mode {self.association!r}")
        for sp in self.spawns:
            if not (0.0 <= sp.t_birth < sp.t_death <= self.duration + self.dt):
                raise ConfigError("spawn window must lie within the scenario duration")
        ids = [s.sensor_id for s in self.sensors]
        if ids != list(range(len(ids))):
            raise ConfigError("sensor ids must be 0..k-1 in order")

    @property
    def k(self) -> int:
        return len(self.sensors)

    def model(self) -> CVModel:
        """Filter-side motion model; filters need strictly positive intensities."""
        try:
            return CVModel(dt=self.dt, q_xi=self.q_xi, q_eta=self.q_eta,
                           noise_form=self.cv_noise_form)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def sensor_priors(self) -> dict:
        return {s.sensor_id: s.prior() for s in self.sensors}


def _req(mapping, key, kind, where):
    if key not in mapping:
        raise ConfigError(f"missing {key!r} in {where}")
    try:
        return kind(mapping[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r} in {where}: {exc}") from exc


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a JSON-shaped dict (degrees in)."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario config must be a JSON object")
    seed = _req(raw, "seed", int, "config")
    duration = _req(raw, "duration_s", float, "config")
    dt = _req(raw, "dt_s", float, "config")
    proc = raw.get("process_noise", {})
    q_xi = _req(proc, "q_xi", float, "process_noise")
    q_eta = _req(proc, "q_eta", float, "process_noise")
    noise = raw.get("measurement_noise", {})
    sigmas = (_req(noise, "sigma_r_m", float, "measurement_noise"),
              _req(noise, "sigma_rdot_ms", float, "measurement_noise"),
              math.radians(_req(noise, "sigma_theta_deg", float, "measurement_noise")))

    sensors = []
    for i, s in enumerate(raw.get("sensors", [])):
        where = f"sensors[{i}]"
        true_reg = np.array([_req(s, "xi0_m", float, where),
                             _req(s, "eta0_m", float, where),
                             math.radians(_req(s, "psi_deg", float, where))])
        guess = np.zeros(3)
        if "initial_guess" in s:
            g = s["initial_guess"]
            gw = where + ".initial_guess"
            guess = np.array([_req(g, "xi0_m", float, gw),
                              _req(g, "eta0_m", float, gw),
                              math.radians(_req(g, "psi_deg", float, gw))])
        sensors.append(SensorSpec(sensor_id=int(s.get("id", i)), true_reg=true_reg,
                                  pinned=bool(s.get("pinned", False)), guess=guess))
    if not sensors:
        raise ConfigError("config has no sensors")

    steps = []
    for i, c in enumerate(raw.get("step_changes", [])):
        where = f"step_changes[{i}]"
        steps.append(StepChange(
            t=_req(c, "t_s", float, where),
            sensor_id=_req(c, "sensor_id", int, where),
            new_reg=np.array([_req(c, "xi0_m", float, where),
                              _req(c, "eta0_m", float, where),
                              math.radians(_req(c, "psi_deg", float, where))])))

    targets = raw.get("targets", {})
    spawns = []
    if "spawns" in targets:
        for i, sp in enumerate(targets["spawns"]):
            where = f"targets.spawns[{i}]"
            state = None
            if "state" in sp:
                state = np.asarray(sp["state"], dtype=float)
                if state.shape != (4,):
                    raise ConfigError(f"{where}.state must have 4 entries")
            spawns.append(SpawnSpec(t_birth=_req(sp, "t_birth_s", float, where),
                                    t_death=_req(sp, "t_death_s", float, where),
                                    state=state))
    else:
        count = int(targets.get("count", 10))
        if count < 0:
            raise ConfigError("targets.count must be nonnegative")
        spawns = [SpawnSpec(0.0, duration + dt, None) for _ in range(count)]

    place = targets.get("placement", {})
    placement = (float(place.get("r_min_m", 8.0)), float(place.get("r_max_m", 30.0)),
                 math.radians(float(place.get("half_angle_deg", 60.0))),
                 float(place.get("speed_max_ms", 1.0)))

    fov_raw = raw.get("fov", {})
    fov = FieldOfView(
        half_angle=math.radians(float(fov_raw.get("half_angle_deg", 90.0))),
        r_min=float(fov_raw.get("r_min_m", 0.5)),
        r_max=float(fov_raw.get("r_max_m", 100.0)))

    filt_raw = raw.get("filter", {})
    allowed = {"epsilon", "innovation_threshold", "innovation_window",
               "gate_distance", "miss_limit", "known_sensor_weight"}
    unknown = set(filt_raw) - allowed
    if unknown:
        raise ConfigError(f"unknown filter options: {sorted(unknown)}")
    try:
        filter_config = FmapConfig(**filt_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad filter options: {exc}") from exc

    try:
        return ScenarioConfig(
            seed=seed, duration=duration, dt=dt, q_xi=q_xi, q_eta=q_eta,
            sigmas=sigmas, sensors=tuple(sensors), step_changes=tuple(steps),
            spawns=tuple(spawns), fov=fov,
            association=str(raw.get("association", "truth")),
            cv_noise_form=str(raw.get("cv_noise_form", "standard")),
            placement=placement, filter_config=filter_config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# Truth generation


@dataclass(frozen=True)
class TruthTrack:
    track_id: int
    birth_epoch: int
    death_epoch: int              # exclusive
    states: np.ndarray            # (death-birth, 4)

    def state_at(self, epoch: int) -> np.ndarray:
        return self.states[epoch - self.birth_epoch]

    def alive(self, epoch: int) -> bool:
        return self.birth_epoch <= epoch < self.death_epoch


@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    n_epochs: int
    times: np.ndarray
    truth: dict                   # track_id -> TruthTrack
    reg_truth: np.ndarray         # (n_epochs, k, 3)


def _in_fov(x: np.ndarray, reg: np.ndarray, fov: FieldOfView):
    """(visible, r, theta) of a target through one true sensor pose."""
    dxi = x[0] - reg[0]
    deta = x[2] - reg[1]
    r = math.hypot(dxi, deta)
    if r < max(fov.r_min, 0.11) or r > fov.r_max:
        return False, r, 0.0
    theta = wrap_angle(math.atan2(deta, dxi) - reg[2])
    return abs(theta) <= fov.half_angle, r, theta


def _draw_spawn_state(rng, cfg: ScenarioConfig) -> np.ndarray:
    r_lo, r_hi, half_angle, v_max = cfg.placement
    for _ in range(1000):
        r = rng.uniform(r_lo, r_hi)
        phi = rng.uniform(-half_angle, half_angle)
        v = rng.uniform(-v_max, v_max, size=2)
        x = np.array([r * math.cos(phi), v[0], r * math.sin(phi), v[1]])
        if all(_in_fov(x, s.true_reg, cfg.fov)[0] for s in cfg.sensors):
            return x
    raise ConfigError("could not place a target inside every sensor's field of view")


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """Draw target truth and the registration timeline for one seeded run."""
    n_epochs = int(round(cfg.duration / cfg.dt))
    times = np.arange(n_epochs) * cfg.dt
    root = np.random.SeedSequence(cfg.seed)
    place_seq, noise_seq, _meas_seq = root.spawn(3)
    place_rng = np.random.default_rng(place_seq)
    noise_rng = np.random.default_rng(noise_seq)

    # Truth needs only the transition matrix, so zero intensities are fine
    # here; the filter-side model() still insists on positive values.
    phi = np.kron(np.eye(2), np.array([[1.0, cfg.dt], [0.0, 1.0]]))
    g = np.eye(4)
    q_cov = np.kron(np.diag([cfg.q_xi, cfg.q_eta]),
                    np.array([[cfg.dt ** 3 / 3.0, cfg.dt ** 2 / 2.0],
                              [cfg.dt ** 2 / 2.0, cfg.dt]]))
    q_sqrt = np.linalg.cholesky(q_cov) if (cfg.q_xi > 0 and cfg.q_eta > 0) \
        else np.zeros((4, 4))

    truth = {}
    for tid, spawn in enumerate(cfg.spawns, start=1):
        birth = int(round(spawn.t_birth / cfg.dt))
        death = min(int(round(spawn.t_death / cfg.dt)), n_epochs)
        if birth >= death:
            raise ConfigError(f"target {tid} has an empty lifetime")
        x0 = spawn.state if spawn.state is not None else _draw_spawn_state(place_rng, cfg)
        states = np.empty((death - birth, 4))
        states[0] = x0
        for i in range(1, death - birth):
            w = q_sqrt @ noise_rng.standard_normal(4)
            states[i] = phi @ states[i - 1] + g @ w
        truth[tid] = TruthTrack(tid, birth, death, states)

    reg_truth = np.empty((n_epochs, cfg.k, 3))
    for s in cfg.sensors:
        reg_truth[:, s.sensor_id, :] = s.true_reg
    for change in cfg.step_changes:
        start = int(round(change.t / cfg.dt))
        if not 0 <= start < n_epochs:
            raise ConfigError(f"step change at t={change.t} is outside the run")
        reg_truth[start:, change.sensor_id, :] = change.new_reg

    return Scenario(config=cfg, n_epochs=n_epochs, times=times, truth=truth,
                    reg_truth=reg_truth)


@dataclass(frozen=True)
class Detection:
    sensor_id: int
    meas: Measurement
    truth_id: int                 # -1 when unknown (replay input)


def synthesize_measurements(scenario: Scenario) -> list:
    """Per-epoch detection lists through each sensor's TRUE pose plus noise.

    Detections are ordered by (sensor_id, track_id) within an epoch, and the
    noise stream is its own child of the scenario seed, so association-free
    consumers see identical bytes run to run.
    """
    cfg = scenario.config
    meas_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[2])
    sig = np.asarray(cfg.sigmas)
    epochs = []
    sigmas = tuple(float(v) for v in sig)
    tracks = sorted(scenario.truth.items())
    for e in range(scenario.n_epochs):
        dets = []
        t = float(scenario.times[e])
        for s in cfg.sensors:
            reg = scenario.reg_truth[e, s.sensor_id]
            seen = []
            for tid, trk in tracks:
                if trk.alive(e):
                    x = trk.state_at(e)
                    if _in_fov(x, reg, cfg.fov)[0]:
                        seen.append((tid, x))
            if not seen:
                continue
            clean = measurement_vector(np.array([x for _, x in seen]), reg)
            noisy = clean + sig * meas_rng.standard_normal(clean.shape)
            for (tid, _), (r, rdot, theta) in zip(seen, noisy.tolist()):
                if r <= 0.0:
                    continue
                dets.append(Detection(
                    sensor_id=s.sensor_id,
                    meas=Measurement(r=r, rdot=rdot, theta=theta,
                                     sensor_id=s.sensor_id, t=t,
                                     noise_sigmas=sigmas),
                    truth_id=tid))
        epochs.append(dets)
    return epochs


# ---------------------------------------------------------------------------
# Association


@dataclass(frozen=True)
class AssociationMap:
    pairs: tuple                  # of (track_id, measurement_index)
    unassociated: tuple           # measurement indices

    def __post_init__(self):
        seen_m = [m for _, m in self.pairs]
        if len(seen_m) != len(set(seen_m)):
            raise ValueError("a measurement was assigned to more than one track")


def associate(predicted: dict, observed: list, gate: float) -> AssociationMap:
    """Greedy nearest-neighbor pairing of tracks to Cartesian points.

    predicted maps track_id to a 2-vector; observed is a list of 2-vectors
    indexed by measurement number. Pairs farther than gate are rejected and
    ties break toward the lowest measurement index, then lowest track id.
    """
    cands = []
    for tid, pxy in predicted.items():
        for idx, oxy in enumerate(observed):
            d = float(np.hypot(pxy[0] - oxy[0], pxy[1] - oxy[1]))
            if d <= gate:
                cands.append((d, idx, tid))
    cands.sort()
    used_t, used_m, pairs = set(), set(), []
    for d, idx, tid in cands:
        if tid in used_t or idx in used_m:
            continue
        used_t.add(tid)
        used_m.add(idx)
        pairs.append((tid, idx))
    pairs.sort(key=lambda p: p[1])
    unassoc = tuple(i for i in range(len(observed)) if i not in used_m)
    return AssociationMap(pairs=tuple(pairs), unassociated=unassoc)


# ---------------------------------------------------------------------------
# Filter runners (uniform epoch interface over fmap / dense / sep)


class FmapRunner:
    """fmap behind the runner interface.

    ``track()`` and ``registration()`` slice one mean-only solve per filter
    state: the solved vector is kept with a weak reference to the ``info``
    object it came from and solved again only once ``state.info`` is a
    different object.  The weak reference lets a replaced array be freed
    before the next read.
    """

    algo = "fmap"

    def __init__(self, cfg: ScenarioConfig):
        self.state = initialize(cfg.k, cfg.filter_config, cfg.sensor_priors())
        self.model = cfg.model()
        self._solved = (lambda: None, None)   # (weakref to info, its mean)

    def _mean(self) -> np.ndarray:
        """Solved joint mean of the current belief, cached per ``info``."""
        info_ref, estimate = self._solved
        if info_ref() is not self.state.info:
            estimate = joint_filter.solve_estimates(
                self.state, with_covariance=False).estimate
            self._solved = (weakref.ref(self.state.info), estimate)
        return estimate

    def add_tracks(self, pairs):
        if pairs:
            self.state = reshape_state(self.state, new_tracks=pairs)

    def remove_tracks(self, ids):
        if ids:
            self.state = reshape_state(self.state, deleted_ids=ids)

    def update(self, assoc):
        self.state, rss, m = measurement_update(self.state, assoc)
        return rss, m

    def maybe_reset(self, rss, m):
        self.state, fired = check_and_reset_registration(self.state, rss, m)
        return fired

    def propagate(self):
        self.state = time_propagate(self.state, self.model)

    def registration(self, sensor_id):
        return self._mean()[self.state.layout.sensor_slice(sensor_id)].copy()

    def track(self, track_id):
        return self._mean()[self.state.layout.track_slice(track_id)].copy()

    def track_ids(self):
        return self.state.track_ids


class DenseRunner:
    algo = "dense"

    def __init__(self, cfg: ScenarioConfig):
        self.state = dense_initialize(cfg.k, cfg.filter_config, cfg.sensor_priors())
        self.model = cfg.model()

    def add_tracks(self, pairs):
        if pairs:
            self.state = dense_reshape(self.state, new_tracks=pairs)

    def remove_tracks(self, ids):
        if ids:
            self.state = dense_reshape(self.state, deleted_ids=ids)

    def update(self, assoc):
        self.state, rss, m = dense_measurement_update(self.state, assoc)
        return rss, m

    def maybe_reset(self, rss, m):
        self.state, fired = monitor_innovation(self.state, rss, m,
                                               dense_reset_registration)
        return fired

    def propagate(self):
        self.state = dense_time_propagate(self.state, self.model)

    def registration(self, sensor_id):
        sl = self.state.layout.sensor_slice(sensor_id)
        return self.state.mu[sl].copy()

    def track(self, track_id):
        sl = self.state.layout.track_slice(track_id)
        return self.state.mu[sl].copy()

    def track_ids(self):
        return self.state.layout.track_ids


class SepRunner:
    algo = "sep"

    def __init__(self, cfg: ScenarioConfig):
        self.filter = SepFilter.initialize(cfg.k, cfg.filter_config,
                                           cfg.sensor_priors())
        self.model = cfg.model()

    def add_tracks(self, pairs):
        for tid, guess in pairs:
            if hasattr(guess, "as_array"):
                guess = guess.as_array()
            self.filter.add_track(tid, np.asarray(guess, dtype=float))

    def remove_tracks(self, ids):
        for tid in ids:
            self.filter.remove_track(tid)

    def update(self, assoc):
        self.filter.measurement_update(assoc)
        return float("nan"), 0

    def maybe_reset(self, rss, m):
        return False

    def propagate(self):
        self.filter.time_propagate(self.model)

    def registration(self, sensor_id):
        return self.filter.registration_estimate(sensor_id)

    def track(self, track_id):
        return self.filter.track_estimate(track_id)[0]

    def track_ids(self):
        return tuple(sorted(self.filter.tracks))


RUNNERS = {"fmap": FmapRunner, "dense": DenseRunner, "sep": SepRunner}


# ---------------------------------------------------------------------------
# Epoch records


@dataclass(frozen=True)
class EpochRecord:
    t: float
    track_rows: tuple             # (track_id, est(4,), truth(4,) or None)
    reg_rows: tuple               # (sensor_id, est(3,), truth(3,))
    rss: float
    m: int
    innovation_stat: float        # windowed per-dof statistic, nan until full
    fired: bool
    n_tracks: int


@dataclass(frozen=True)
class RunResult:
    algo: str
    records: tuple
    final_info: object = None     # fmap's SquareRootInfo at the last record

    def final_registration_errors(self) -> dict:
        """sensor_id -> |error| per channel (xi0, eta0, psi0) at the last epoch."""
        out = {}
        for sid, est, tru in self.records[-1].reg_rows:
            err = est - tru
            err[2] = wrap_angle(err[2])
            out[sid] = np.abs(err)
        return out


def _guess_from_detection(det: Detection, reg_est: np.ndarray) -> np.ndarray:
    pos = backproject(det.meas.r, det.meas.theta, reg_est)
    return np.array([pos[0], 0.0, pos[1], 0.0])


# Epochs a newborn track's velocity transient is allowed to settle before the
# residual monitor resumes (nearest-neighbor association mode only).
BIRTH_SETTLE_EPOCHS = 5


def run_tracker(scenario: Scenario, algo: str, detections=None) -> RunResult:
    """Run one filter over the scenario and record every epoch.

    Epoch order: associate, births, measurement update, reset check, record,
    deaths, propagate. Association follows scenario.config.association:
    "truth" uses the synthesis bookkeeping (tracks carry truth ids and birth
    on first detection), "nearest" runs gated nearest-neighbor with two-epoch
    birth confirmation. Either way a track is dropped after miss_limit
    consecutive epochs without an associated measurement, and a truth-mode
    target that later re-enters the field of view is born again under its
    truth id.
    """
    if algo not in RUNNERS:
        raise ConfigError(f"unknown algorithm {algo!r}")
    runner = RUNNERS[algo](scenario.config)
    if detections is None:
        detections = synthesize_measurements(scenario)
    return _run_epochs(scenario, runner, detections)


def _run_epochs(scenario: Scenario, runner, detections) -> RunResult:
    """run_tracker's epoch loop over any runner with FmapRunner's interface."""
    cfg = scenario.config
    window = cfg.filter_config.innovation_window
    stat_history = ()             # reporting window, never cleared by resets
    records = []
    misses = {}
    pending = []                  # [(sensor_id, xy)] unassociated one epoch ago
    next_id = max(scenario.truth, default=0) + 1
    last_birth = None             # epoch of the latest track birth
    final_info = None             # post-update array at the last record

    for e in range(scenario.n_epochs):
        dets = detections[e]
        live = set(runner.track_ids())

        if cfg.association == "truth":
            assoc = [(d.truth_id, d.meas) for d in dets if d.truth_id in live]
            births = []
            for d in dets:
                tid = d.truth_id
                if tid in live or tid < 0:
                    continue
                reg = runner.registration(d.sensor_id)
                births.append((tid, _guess_from_detection(d, reg)))
                live.add(tid)
                assoc.append((tid, d.meas))
            runner.add_tracks(births)
            hit = {tid for tid, _ in assoc}
            misses = {tid: (0 if tid in hit else misses.get(tid, 0) + 1)
                      for tid in live}
        else:
            gate = cfg.filter_config.gate_distance
            predicted = {tid: runner.track(tid)[np.array([0, 2])] for tid in live}
            observed = [backproject(d.meas.r, d.meas.theta,
                                    runner.registration(d.sensor_id))
                        for d in dets]
            # Associate each sensor's detections independently so a track can
            # collect one measurement per sensor each epoch.
            assoc, hit, unassoc_idx = [], set(), []
            for s in cfg.sensors:
                idxs = [i for i, d in enumerate(dets)
                        if d.sensor_id == s.sensor_id]
                amap = associate(predicted, [observed[i] for i in idxs], gate)
                for tid, local in amap.pairs:
                    assoc.append((tid, dets[idxs[local]].meas))
                    hit.add(tid)
                unassoc_idx.extend(idxs[local] for local in amap.unassociated)
            unassoc = [(dets[i].sensor_id, observed[i])
                       for i in sorted(unassoc_idx)]
            confirmed = []
            used_prev = set()
            for sid, xy in unassoc:
                best = None
                for j, (_, pxy) in enumerate(pending):
                    if j in used_prev:
                        continue
                    d = float(np.hypot(xy[0] - pxy[0], xy[1] - pxy[1]))
                    if d <= gate and (best is None or d < best[0]):
                        best = (d, j)
                if best is not None:
                    used_prev.add(best[1])
                    confirmed.append(np.asarray(xy, dtype=float))
            # Confirmed candidates within one gate of each other are the same
            # new target seen from different sensors: one track per cluster.
            clusters = []
            for xy in confirmed:
                for cl in clusters:
                    if math.hypot(xy[0] - cl[0][0], xy[1] - cl[0][1]) <= gate:
                        cl.append(xy)
                        break
                else:
                    clusters.append([xy])
            births = []
            for cl in clusters:
                center = np.mean(cl, axis=0)
                births.append((next_id,
                               np.array([center[0], 0.0, center[1], 0.0])))
                next_id += 1
            runner.add_tracks(births)
            pending = unassoc
            hit.update(tid for tid, _ in births)
            live = set(runner.track_ids())
            misses = {tid: (0 if tid in hit else misses.get(tid, 0) + 1)
                      for tid in live}

        if births:
            last_birth = e
        rss, m = runner.update(assoc)
        # Newborn tracks start with zero velocity and dominate the residual
        # for a few epochs; in nearest mode that transient is routine (every
        # bootstrap and field-of-view entry) and says nothing about the
        # registration, so it is kept out of the reset monitor.  Truth-mode
        # association has no bootstrap and keeps the monitor always on.
        settling = (cfg.association == "nearest" and last_birth is not None
                    and e - last_birth < BIRTH_SETTLE_EPOCHS)
        fired = False if settling else runner.maybe_reset(rss, m)
        if fired and cfg.association == "nearest":
            # A forgotten registration invalidates the gating geometry every
            # surviving track depends on, so re-bootstrap from scratch rather
            # than let stale tracks capture the re-offset detections.
            runner.remove_tracks(list(runner.track_ids()))
            misses = {}
            pending = []

        track_rows = []
        for tid in sorted(runner.track_ids()):
            est = runner.track(tid)
            tru = None
            if tid in scenario.truth and scenario.truth[tid].alive(e):
                tru = scenario.truth[tid].state_at(e).copy()
            track_rows.append((tid, est, tru))
        reg_rows = tuple((s.sensor_id, runner.registration(s.sensor_id),
                          scenario.reg_truth[e, s.sensor_id].copy())
                         for s in cfg.sensors)
        stat_history, stat, _ = windowed_innovation(stat_history, rss, m, window)
        records.append(EpochRecord(
            t=float(scenario.times[e]), track_rows=tuple(track_rows),
            reg_rows=reg_rows, rss=float(rss), m=int(m),
            innovation_stat=stat, fired=bool(fired),
            n_tracks=len(track_rows)))
        if isinstance(runner, FmapRunner):
            final_info = runner.state.info

        dead = [tid for tid, n in misses.items()
                if n >= cfg.filter_config.miss_limit]
        if cfg.association == "truth":
            dead.extend(tid for tid in runner.track_ids()
                        if tid in scenario.truth and tid not in dead
                        and not scenario.truth[tid].alive(e + 1))
        runner.remove_tracks(dead)
        for tid in dead:
            misses.pop(tid, None)

        runner.propagate()

    return RunResult(algo=runner.algo, records=tuple(records),
                     final_info=final_info)


# ---------------------------------------------------------------------------
# Lockstep twin run (fmap and dense fed bit-identical rows)


class LockstepRunner(FmapRunner):
    """fmap driven together with its dense moment-space twin.

    Jacobian rows are built once per update at fmap's prior mean and fed to
    both filters, and resets follow fmap's decision, so the two posteriors
    may differ only through arithmetic.  After each reset check the runner
    records the worst relative gap across solved means, per-track
    covariances and the registration covariance; after each reset check and
    each propagation it counts a violation when fmap's track block carries
    any nonzero entry off its diagonal blocks.
    """

    def __init__(self, cfg: ScenarioConfig):
        super().__init__(cfg)
        self.twin = DenseRunner(cfg)
        self.worst_gap = 0.0
        self.violations = 0

    def add_tracks(self, pairs):
        super().add_tracks(pairs)
        self.twin.add_tracks(pairs)

    def remove_tracks(self, ids):
        super().remove_tracks(ids)
        self.twin.remove_tracks(ids)

    def update(self, assoc):
        if not assoc:
            return 0.0, 0
        cx, ca, rhs, m = build_measurement_rows(self.state.layout, assoc,
                                                self._mean())
        self.twin.state, _ = dense_apply_rows(self.twin.state, cx, ca, rhs)
        self.state, rss = apply_measurement_rows(self.state, cx, ca, rhs)
        return rss, m

    def maybe_reset(self, rss, m):
        fired = super().maybe_reset(rss, m)
        if fired:
            self.twin.state = dense_reset_registration(
                self.twin.state,
                [s for s in range(self.state.layout.k) if s not in self.state.pinned])
        self._check_off_block()
        sol = solve_estimates(self.state)
        mu, tcovs, rcov = dense_estimates(self.twin.state)
        gaps = [_relative_gap(sol.estimate, mu),
                _relative_gap(sol.registration_covariance, rcov)]
        gaps += [_relative_gap(p, q) for p, q in zip(sol.track_covariances, tcovs)]
        self.worst_gap = max([self.worst_gap] + gaps)
        return fired

    def propagate(self):
        super().propagate()
        self.twin.propagate()
        self._check_off_block()

    def _check_off_block(self):
        lay = self.state.layout
        td = lay.track_dim
        mask = np.zeros((td, td), dtype=bool)
        for b in range(lay.n_tracks):
            blk = lay.track_block(b)
            mask[blk, blk] = True
        if np.any(self.state.info.r[:td, :td][~mask] != 0.0):
            self.violations += 1


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(b)), 1.0)
    return float(np.linalg.norm(a - b)) / denom


@dataclass(frozen=True)
class LockstepResult:
    worst_relative_gap: float
    off_block_violations: int
    epochs: int


def run_lockstep(scenario: Scenario) -> LockstepResult:
    """Run fmap and its dense twin through run_tracker's loop in truth mode.

    Births and deaths follow the truth timeline (see LockstepRunner for what
    is compared).  The result carries the worst relative gap and the number
    of checks that found a nonzero off-block entry in the track block.
    """
    cfg = dataclasses.replace(scenario.config, association="truth")
    scenario = dataclasses.replace(scenario, config=cfg)
    runner = LockstepRunner(cfg)
    _run_epochs(scenario, runner, synthesize_measurements(scenario))
    return LockstepResult(worst_relative_gap=runner.worst_gap,
                          off_block_violations=runner.violations,
                          epochs=scenario.n_epochs)


# ---------------------------------------------------------------------------
# Metrics


TRACK_CHANNELS = ("xi", "vxi", "eta", "veta")
REG_CHANNELS = ("xi0", "eta0", "psi0")


def metrics(result: RunResult) -> dict:
    """Mean absolute error per channel, averaged over epochs and tracks.

    Track channels average every (epoch, track) pair with known truth;
    registration channels average over epochs per sensor. Keys look like
    "track.xi" and "sensor1.psi0".
    """
    track_errs = {c: [] for c in TRACK_CHANNELS}
    reg_errs = {}
    for rec in result.records:
        for _, est, tru in rec.track_rows:
            if tru is None:
                continue
            for i, c in enumerate(TRACK_CHANNELS):
                track_errs[c].append(abs(est[i] - tru[i]))
        for sid, est, tru in rec.reg_rows:
            errs = reg_errs.setdefault(sid, {c: [] for c in REG_CHANNELS})
            errs["xi0"].append(abs(est[0] - tru[0]))
            errs["eta0"].append(abs(est[1] - tru[1]))
            errs["psi0"].append(abs(wrap_angle(est[2] - tru[2])))
    out = {}
    for c, vals in track_errs.items():
        out[f"track.{c}"] = float(np.mean(vals)) if vals else float("nan")
    for sid, errs in sorted(reg_errs.items()):
        for c, vals in errs.items():
            out[f"sensor{sid}.{c}"] = float(np.mean(vals)) if vals else float("nan")
    return out


# ---------------------------------------------------------------------------
# CRLB experiment on a linearized variant


def linear_crlb_experiment(seed: int, trials: int = 200, n_tracks: int = 2,
                           epochs: int = 5):
    """Monte-Carlo efficiency check with frozen Jacobians.

    The measurement model is linearized once at the nominal truth and held
    fixed, making the system exactly linear-Gaussian; the MAP estimate is
    then the conditional mean and its error covariance should match the
    inverse Fisher information. Returns (sample_cov, crlb, trace_ratio,
    min_margin_sigma) where min_margin_sigma is the smallest eigenvalue of
    (sample_cov - crlb) in units of the 3-sigma Monte-Carlo band.
    """
    from scipy.linalg import solve_triangular

    from .info_array import SquareRootInfo, XAssembly, triangularize_x
    from .layout import JointLayout

    rng = np.random.default_rng(seed)
    k = 2
    lay = JointLayout(track_ids=tuple(range(1, n_tracks + 1)), k=k)
    dim = lay.dim
    regs = [np.array([2.0, 0.6, math.radians(10.0)]),
            np.array([2.0, -0.6, math.radians(-10.0)])]
    tracks = [np.array([18.0 + 4.0 * b, 0.6, -6.0 + 5.0 * b, -0.4])
              for b in range(n_tracks)]
    mu0 = np.concatenate(tracks + regs)
    r0 = np.eye(dim)
    for b in range(n_tracks):
        r0[lay.track_block(b), lay.track_block(b)] = np.diag([1.0, 2.0, 1.0, 2.0])
    for s in range(k):
        r0[lay.sensor_slice(s), lay.sensor_slice(s)] = np.diag([5.0, 5.0, 20.0])
    z0 = r0 @ mu0

    sig = np.array([0.1, 0.2, math.radians(1.0)])
    from .models import jacobians, whiten_rows
    cx_rows, ca_rows = [], []
    for b in range(n_tracks):
        for s in range(k):
            cx, ca, _ = jacobians(tracks[b], regs[s])
            cxw, _ = whiten_rows(cx, np.zeros(3), sig)
            caw, _ = whiten_rows(ca, np.zeros(3), sig)
            cx_full = np.zeros((3, lay.track_dim))
            cx_full[:, lay.track_block(b)] = cxw
            ca_full = np.zeros((3, lay.reg_dim))
            ca_full[:, 3 * s:3 * s + 3] = caw
            cx_rows.append(cx_full)
            ca_rows.append(ca_full)
    cx_all = np.vstack(cx_rows)
    ca_all = np.vstack(ca_rows)
    c_all = np.hstack([cx_all, ca_all])
    m = c_all.shape[0]

    model = CVModel(dt=0.1, q_xi=0.05, q_eta=0.05, noise_form="standard")
    phi, g, _, _ = cv_transition(model)
    q_sqrt = np.linalg.cholesky(process_noise_covariance(model))
    cfg = FmapConfig()

    errors = np.empty((trials, dim))
    j_final = None
    for trial in range(trials):
        s_true = mu0 + solve_triangular(r0, rng.standard_normal(dim))
        state = FilterState(info=SquareRootInfo(r0.copy(), z0.copy(), lay),
                            epoch=0, config=cfg, innovation_history=(),
                            pinned=frozenset())
        for step in range(epochs):
            y = c_all @ s_true + rng.standard_normal(m)
            post, _ = triangularize_x(
                XAssembly(state.info, cx_all.copy(), ca_all.copy(), y.copy()))
            state = dataclasses.replace(state, info=post)
            if step < epochs - 1:
                state = time_propagate(state, model)
                nxt = s_true.copy()
                for b in range(n_tracks):
                    blk = lay.track_block(b)
                    nxt[blk] = phi @ s_true[blk] + g @ (
                        q_sqrt @ rng.standard_normal(4))
                s_true = nxt
        sol = solve_estimates(state, with_covariance=False)
        errors[trial] = sol.estimate - s_true
        if j_final is None:
            j_final = state.info.r.T @ state.info.r

    crlb = np.linalg.inv(j_final)
    sample_cov = (errors.T @ errors) / trials
    trace_ratio = float(np.trace(sample_cov) / np.trace(crlb))
    band = 3.0 * math.sqrt(2.0 / trials) * float(np.linalg.eigvalsh(crlb).max())
    min_eig = float(np.linalg.eigvalsh(sample_cov - crlb).min())
    return sample_cov, crlb, trace_ratio, min_eig / band


# ---------------------------------------------------------------------------
# Benchmarks


def _benchmark_config(n: int, seed: int, steps: int) -> ScenarioConfig:
    sensors = (SensorSpec(0, np.array([2.0, 0.6, math.radians(10.0)]), True,
                          np.zeros(3)),
               SensorSpec(1, np.array([2.0, -0.6, math.radians(-10.0)]), False,
                          np.array([2.0, -0.6, math.radians(-10.0)])))
    dt = 0.1
    duration = (steps + 2) * dt
    return ScenarioConfig(
        seed=seed, duration=duration, dt=dt, q_xi=0.1, q_eta=0.1,
        sigmas=(0.1, 0.2, math.radians(1.0)), sensors=sensors,
        spawns=tuple(SpawnSpec(0.0, duration, None) for _ in range(n)),
        fov=FieldOfView(r_max=200.0),
        placement=(8.0, 80.0, math.radians(60.0), 1.0))


BENCHMARK_BLAS_THREADS = 1


def benchmark(n_list, trials: int = 5, algos=("fmap", "sep", "dense"),
              seed: int = 7, progress=None):
    """Median wall-clock seconds per filter step at each problem size.

    Every (algo, n) cell gets its own runner, and all runners are built
    before any is timed. The cells are then stepped in `trials + 1` sweeps:
    each sweep advances every cell by one step, in (n, algo) order, and
    sweep 0 is an untimed warmup. A runner still takes consecutive filter
    steps, but a slow phase of the host hits every size alike instead of
    the cells it happens to overlap. A step is one measurement update plus
    one propagation over all n targets seen by both sensors. Every cell runs
    with one BLAS thread (BENCHMARK_BLAS_THREADS), so sizes are compared at
    equal parallelism and the slopes measure the algorithms, not the thread
    pool. Since every cell's state is alive at once, peak memory is the sum
    of the cells' states (about 29 MB at n = 10, 50, 100, 300), and
    `progress(algo, n, median)` is called once per cell after the last
    sweep. Returns (rows, medians, slopes) with rows = [(algo, n, trial,
    seconds)] in (n, algo, trial) order, medians[algo] = {n: median}, and
    slopes[algo] the least-squares log-log slope over n_list.
    """
    if list(n_list) != sorted(n_list):
        raise ConfigError("benchmark sizes must be sorted ascending")
    with blas_threads(BENCHMARK_BLAS_THREADS):
        cells = []
        for n in n_list:
            cfg = _benchmark_config(n, seed, trials)
            scenario = generate_scenario(cfg)
            detections = synthesize_measurements(scenario)
            guesses = [(tid, np.array([trk.states[0, 0], 0.0, trk.states[0, 2], 0.0]))
                       for tid, trk in sorted(scenario.truth.items())]
            for algo in algos:
                runner = RUNNERS[algo](cfg)
                runner.add_tracks(guesses)
                cells.append((algo, n, runner, detections, []))
        for step in range(trials + 1):
            for _, _, runner, detections, samples in cells:
                assoc = [(d.truth_id, d.meas) for d in detections[step]]
                t0 = time.perf_counter()
                runner.update(assoc)
                runner.propagate()
                elapsed = time.perf_counter() - t0
                if step > 0:
                    samples.append(elapsed)
    rows = []
    medians = {a: {} for a in algos}
    for algo, n, _, _, samples in cells:
        rows.extend((algo, n, trial, sec) for trial, sec in enumerate(samples, 1))
        medians[algo][n] = float(np.median(samples))
        if progress is not None:
            progress(algo, n, medians[algo][n])
    slopes = {}
    if len(list(n_list)) >= 2:
        slopes = {a: fit_loglog(list(n_list), [medians[a][n] for n in n_list])
                  for a in algos}
    return rows, medians, slopes


def fit_loglog(ns, ts) -> float:
    """Least-squares slope of log(t) against log(n)."""
    if len(ns) < 2:
        raise ValueError("need at least two sizes to fit a slope")
    return float(np.polyfit(np.log(np.asarray(ns, dtype=float)),
                            np.log(np.asarray(ts, dtype=float)), 1)[0])


# ---------------------------------------------------------------------------
# CSV / replay I/O


def _fmt(x) -> str:
    return "%.9g" % float(x)


def write_tracks_csv(path, results) -> None:
    """tracks.csv rows for one or more RunResults."""
    with open(path, "w") as fh:
        fh.write("# schema=tracks-1\n")
        fh.write("t,algo,track_id,xi_est,vxi_est,eta_est,veta_est,"
                 "xi_true,vxi_true,eta_true,veta_true\n")
        for res in results:
            for rec in res.records:
                for tid, est, tru in rec.track_rows:
                    tvals = [_fmt(v) for v in tru] if tru is not None \
                        else ["nan"] * 4
                    fh.write(",".join([_fmt(rec.t), res.algo, str(tid)]
                                      + [_fmt(v) for v in est] + tvals) + "\n")


def write_registration_csv(path, results) -> None:
    with open(path, "w") as fh:
        fh.write("# schema=registration-1\n")
        fh.write("t,algo,sensor_id,xi0_est,eta0_est,psi0_est_deg,"
                 "xi0_true,eta0_true,psi0_true_deg,innovation_stat,reset_fired\n")
        for res in results:
            for rec in res.records:
                for sid, est, tru in rec.reg_rows:
                    fh.write(",".join([
                        _fmt(rec.t), res.algo, str(sid),
                        _fmt(est[0]), _fmt(est[1]), _fmt(math.degrees(est[2])),
                        _fmt(tru[0]), _fmt(tru[1]), _fmt(math.degrees(tru[2])),
                        _fmt(rec.innovation_stat), str(int(rec.fired))]) + "\n")


def write_timing_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("# schema=timing-1\n")
        fh.write("algo,n,trial,seconds\n")
        for algo, n, trial, seconds in rows:
            fh.write(f"{algo},{n},{trial},{_fmt(seconds)}\n")


def write_replay(path, scenario: Scenario) -> None:
    """Detection stream as `t,sensor_id,r,rdot,theta_deg` lines."""
    detections = synthesize_measurements(scenario)
    with open(path, "w") as fh:
        fh.write("# schema=replay-1\n")
        for e, dets in enumerate(detections):
            for d in dets:
                fh.write(",".join([
                    _fmt(scenario.times[e]), str(d.sensor_id), _fmt(d.meas.r),
                    _fmt(d.meas.rdot), _fmt(math.degrees(d.meas.theta))]) + "\n")


def read_replay(path, sigmas) -> list:
    """Parse a replay file into per-epoch Detection lists.

    Lines must be sorted by time; epochs are runs of equal timestamps.
    Raises ReplayFormatError naming the offending line for malformed input.
    """
    epochs = []
    current_t = None
    try:
        fh = open(path)
    except OSError as exc:
        raise ReplayFormatError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ReplayFormatError(
                    f"{path}:{lineno}: expected 5 comma-separated fields")
            try:
                t = float(parts[0])
                sensor_id = int(parts[1])
                r = float(parts[2])
                rdot = float(parts[3])
                theta = math.radians(float(parts[4]))
            except ValueError as exc:
                raise ReplayFormatError(f"{path}:{lineno}: {exc}") from exc
            if current_t is not None and t < current_t:
                raise ReplayFormatError(
                    f"{path}:{lineno}: timestamps out of order "
                    f"({t} after {current_t})")
            if current_t is None or t > current_t:
                epochs.append((t, []))
                current_t = t
            try:
                meas = Measurement(r=r, rdot=rdot, theta=theta,
                                   sensor_id=sensor_id, t=t,
                                   noise_sigmas=tuple(sigmas))
            except ValueError as exc:
                raise ReplayFormatError(f"{path}:{lineno}: {exc}") from exc
            epochs[-1][1].append(Detection(sensor_id=sensor_id, meas=meas,
                                           truth_id=-1))
    return epochs


def run_replay(epoch_stream, cfg: ScenarioConfig) -> RunResult:
    """Track a replay detection stream with nearest-neighbor association.

    The stream supplies its own timeline, so a synthetic Scenario is built
    around it whose truth tables are empty; track truth columns come out as
    nan and registration truth repeats the configured values.
    """
    if not epoch_stream:
        return RunResult(algo="fmap", records=())
    times = np.array([t for t, _ in epoch_stream])
    n_epochs = len(times)
    reg_truth = np.empty((n_epochs, cfg.k, 3))
    for s in cfg.sensors:
        reg_truth[:, s.sensor_id, :] = s.true_reg
    cfg = dataclasses.replace(cfg, association="nearest")
    scenario = Scenario(config=cfg, n_epochs=n_epochs, times=times, truth={},
                        reg_truth=reg_truth)
    detections = [dets for _, dets in epoch_stream]
    return run_tracker(scenario, "fmap", detections=detections)
