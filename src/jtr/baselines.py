"""Reference filters the structured estimator is judged against.

DenseJointFilter: the same joint tracking-plus-registration problem solved by
a conventional square-root covariance filter on the full dense state.  It is
mathematically identical to the structured filter (same linearization, same
noise models, same reset/reshape semantics) but pays the dense O(d^3) cost,
which makes it both the correctness oracle and the complexity baseline.

SepFilter: the decoupled baseline.  Tracks run as independent per-target
EKFs that trust the current registration point estimate; registration runs as
an exponentially weighted recursive least-squares estimator fed by the
measurement residuals.  No cross-covariance is maintained, which is exactly
the approximation the joint filter exists to avoid.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .joint_filter import FmapConfig, build_measurement_rows
from .layout import JointLayout, REG_DIM, TRACK_DIM
from .models import (CVModel, cv_transition, jacobians, measurement_vector,
                     process_noise_covariance, wrap_angle)


# ----------------------------------------------------------------------
# dense joint square-root covariance filter
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DenseState:
    """Mean and lower-triangular covariance square root of the joint state.

    The fields after ``epoch`` mirror FilterState's, for the shared monitor.
    """

    mu: np.ndarray
    s: np.ndarray
    layout: JointLayout
    epoch: int
    config: FmapConfig
    pinned: frozenset = frozenset()
    reset_means: tuple = ()
    innovation_history: tuple = ()

    @property
    def cov(self) -> np.ndarray:
        return self.s @ self.s.T


def _lower_qr(stack: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = stack @ stack^T."""
    u = np.linalg.qr(stack.T, mode="r")
    ell = u.T
    if ell.shape[1] > ell.shape[0]:
        ell = ell[:, :ell.shape[0]]
    return ell


def dense_initialize(k: int, config: FmapConfig | None = None,
                     sensor_priors: dict | None = None) -> DenseState:
    """Moment-space twin of the structured filter's initialize."""
    if k < 1:
        raise ValueError("need at least one sensor")
    config = config or FmapConfig()
    sensor_priors = sensor_priors or {}
    lay = JointLayout((), k)
    mu = np.zeros(lay.dim)
    s = np.zeros((lay.dim, lay.dim))
    pinned = set()
    reset_means = []
    for sen in range(k):
        sl = lay.sensor_slice(sen)
        prior = sensor_priors.get(sen)
        if prior is None:
            weight = config.epsilon
        else:
            weight = config.known_sensor_weight if prior.pinned else config.epsilon
            mu[sl] = [prior.mean[0], prior.mean[1], wrap_angle(prior.mean[2])]
            if prior.pinned:
                pinned.add(sen)
        s[sl, sl] = np.eye(REG_DIM) / weight
        reset_means.append(tuple(float(v) for v in mu[sl]))
    return DenseState(mu=mu, s=s, layout=lay, epoch=0, config=config,
                      pinned=frozenset(pinned), reset_means=tuple(reset_means))


def dense_apply_rows(state: DenseState, cx, ca, rhs):
    """Fuse pre-whitened measurement rows; returns (state', rss).

    The rows satisfy rhs = [cx ca] @ s + v with v ~ N(0, I); the update is
    one QR pass over the standard square-root covariance prearray, and rss is
    the squared whitened innovation (equal, in exact arithmetic, to the
    structured filter's residual norm).
    """
    m = len(rhs)
    if m == 0:
        return state, 0.0
    d = state.layout.dim
    h = np.hstack([cx, ca])
    pre = np.zeros((m + d, m + d))
    pre[:m, :m] = np.eye(m)
    pre[:m, m:] = h @ state.s
    pre[m:, m:] = state.s
    ell = _lower_qr(pre)
    s_e = ell[:m, :m]
    gain = ell[m:, :m]
    s_post = ell[m:, m:]
    nu = rhs - h @ state.mu
    w = solve_triangular(s_e, nu, lower=True)
    mu_post = state.mu + gain @ w
    return replace(state, mu=mu_post, s=s_post), float(np.dot(w, w))


def dense_measurement_update(state: DenseState, assoc):
    """Standalone update: linearize at the filter's own mean, then fuse."""
    if not assoc:
        return state, 0.0, 0
    cx, ca, rhs, m = build_measurement_rows(state.layout, assoc, state.mu)
    state, rss = dense_apply_rows(state, cx, ca, rhs)
    return state, rss, m


def dense_time_propagate(state: DenseState, model: CVModel) -> DenseState:
    """Full-state constant-velocity step with static registration."""
    lay = state.layout
    phi, g, _, _ = cv_transition(model)
    qcov = process_noise_covariance(model)
    q_sqrt = cholesky(qcov, lower=True)
    big_phi = np.eye(lay.dim)
    noise = np.zeros((lay.dim, lay.track_dim))
    for b in range(lay.n_tracks):
        blk = lay.track_block(b)
        big_phi[blk, blk] = phi
        noise[blk, blk.start:blk.stop] = g @ q_sqrt
    stack = np.hstack([big_phi @ state.s, noise])
    return replace(state, mu=big_phi @ state.mu, s=_lower_qr(stack),
                   epoch=state.epoch + 1)


def dense_reset_registration(state: DenseState, sensors) -> DenseState:
    """Mirror of the structured reset: keep per-block marginals, break
    cross-correlations, return listed sensors to the noninformative prior
    centered on their configured initial guesses."""
    lay = state.layout
    sensors = set(sensors)
    cov = state.cov
    eps = state.config.epsilon
    means = state.reset_means or ((0.0,) * REG_DIM,) * lay.k
    mu = state.mu.copy()
    s = np.zeros((lay.dim, lay.dim))
    for b in range(lay.n_tracks):
        blk = lay.track_block(b)
        s[blk, blk] = cholesky(cov[blk, blk], lower=True)
    for sen in range(lay.k):
        sl = lay.sensor_slice(sen)
        if sen in sensors:
            s[sl, sl] = np.eye(REG_DIM) / eps
            mu[sl] = means[sen]
        else:
            s[sl, sl] = cholesky(cov[sl, sl], lower=True)
    return replace(state, mu=mu, s=s)


def dense_reshape(state: DenseState, new_tracks=(), deleted_ids=()) -> DenseState:
    """Delete = drop mean/covariance rows and columns (moment marginal);
    add = prepend independent noninformative blocks around the guess."""
    lay = state.layout
    deleted = tuple(deleted_ids)
    new_tracks = tuple(new_tracks)
    if not deleted and not new_tracks:
        return state
    keep_lay = lay.with_tracks_removed(deleted)
    keep = lay.kept_columns(keep_lay)
    cov_kept = state.cov[np.ix_(keep, keep)]
    mu_kept = state.mu[keep]

    new_ids = tuple(t for t, _ in new_tracks)
    out_lay = keep_lay.with_tracks_prepended(new_ids)
    lead = len(new_ids) * lay.nx
    mu = np.zeros(out_lay.dim)
    s = np.zeros((out_lay.dim, out_lay.dim))
    for i, (tid, guess) in enumerate(new_tracks):
        blk = slice(i * lay.nx, (i + 1) * lay.nx)
        gv = np.asarray(getattr(guess, "as_array", lambda: guess)(), dtype=float).ravel()
        mu[blk] = gv
        s[blk, blk] = np.eye(lay.nx) / state.config.epsilon
    mu[lead:] = mu_kept
    s[lead:, lead:] = cholesky(cov_kept, lower=True)
    return replace(state, mu=mu, s=s, layout=out_lay)


def dense_estimates(state: DenseState):
    """(estimate vector, per-track covariances, registration covariance)."""
    lay = state.layout
    cov = state.cov
    track_covs = [cov[lay.track_block(b), lay.track_block(b)]
                  for b in range(lay.n_tracks)]
    reg = lay.reg_slice()
    return state.mu.copy(), track_covs, cov[reg, reg]


# ----------------------------------------------------------------------
# decoupled tracking / registration baseline
# ----------------------------------------------------------------------

@dataclass
class SepTrack:
    x: np.ndarray
    p: np.ndarray


@dataclass
class SepSensor:
    """Exponentially weighted least-squares state for one sensor's offsets."""

    a_hat: np.ndarray
    lam_info: np.ndarray
    lam_vec: np.ndarray
    pinned: bool = False


@dataclass
class SepFilter:
    """Decoupled baseline: independent EKFs plus per-sensor RLS registration.

    Tracks ignore registration uncertainty entirely; registration learns from
    measurement residuals with forgetting factor ``forgetting`` applied once
    per epoch.  Pinned sensors stay at their surveyed values.
    """

    config: FmapConfig
    sensors: dict = field(default_factory=dict)
    tracks: dict = field(default_factory=dict)
    epoch: int = 0
    forgetting: float = 0.99

    @classmethod
    def initialize(cls, k, config=None, sensor_priors=None, forgetting=0.99):
        config = config or FmapConfig()
        sensor_priors = sensor_priors or {}
        sensors = {}
        for s in range(k):
            prior = sensor_priors.get(s)
            if prior is None:
                mean = np.zeros(REG_DIM)
                pinned = False
            else:
                mean = np.array([prior.mean[0], prior.mean[1], wrap_angle(prior.mean[2])])
                pinned = prior.pinned
            w = config.known_sensor_weight if pinned else config.epsilon
            lam = (w ** 2) * np.eye(REG_DIM)
            sensors[s] = SepSensor(a_hat=mean.copy(), lam_info=lam,
                                   lam_vec=lam @ mean, pinned=pinned)
        return cls(config=config, sensors=sensors)

    def add_track(self, track_id, guess):
        gv = np.asarray(getattr(guess, "as_array", lambda: guess)(), dtype=float).ravel()
        big = 1.0 / (self.config.epsilon ** 2)
        self.tracks[track_id] = SepTrack(x=gv.copy(), p=big * np.eye(TRACK_DIM))

    def remove_track(self, track_id):
        self.tracks.pop(track_id)

    def measurement_update(self, assoc):
        """EKF per track at the current registration estimates, then RLS on
        the post-update residuals for every non-pinned sensor."""
        for track_id, meas in assoc:
            trk = self.tracks[track_id]
            a_hat = self.sensors[meas.sensor_id].a_hat
            cx, _, _ = jacobians(trk.x, a_hat)
            h = measurement_vector(trk.x, a_hat)
            nu = meas.as_vector() - h
            nu[2] = wrap_angle(nu[2])
            r_noise = np.diag(np.square(meas.noise_sigmas))
            s_mat = cx @ trk.p @ cx.T + r_noise
            gain = np.linalg.solve(s_mat.T, (trk.p @ cx.T).T).T
            trk.x = trk.x + gain @ nu
            ikh = np.eye(TRACK_DIM) - gain @ cx
            trk.p = ikh @ trk.p @ ikh.T + gain @ r_noise @ gain.T

        touched = {}
        for track_id, meas in assoc:
            touched.setdefault(meas.sensor_id, []).append((track_id, meas))
        for sensor_id, items in touched.items():
            sen = self.sensors[sensor_id]
            if sen.pinned:
                continue
            sen.lam_info = self.forgetting * sen.lam_info
            sen.lam_vec = self.forgetting * sen.lam_vec
            for track_id, meas in items:
                trk = self.tracks[track_id]
                _, ca, _ = jacobians(trk.x, sen.a_hat)
                h = measurement_vector(trk.x, sen.a_hat)
                resid = meas.as_vector() - h
                resid[2] = wrap_angle(resid[2])
                inv_sig = 1.0 / np.asarray(meas.noise_sigmas, dtype=float)
                ca_w = ca * inv_sig[:, None]
                y_w = (resid + ca @ sen.a_hat) * inv_sig
                sen.lam_info = sen.lam_info + ca_w.T @ ca_w
                sen.lam_vec = sen.lam_vec + ca_w.T @ y_w
            sen.a_hat = np.linalg.solve(sen.lam_info, sen.lam_vec)
            sen.a_hat[2] = wrap_angle(sen.a_hat[2])

    def time_propagate(self, model: CVModel):
        phi, g, _, _ = cv_transition(model)
        qcov = process_noise_covariance(model)
        for trk in self.tracks.values():
            trk.x = phi @ trk.x
            trk.p = phi @ trk.p @ phi.T + g @ qcov @ g.T
        self.epoch += 1

    def registration_estimate(self, sensor_id):
        return self.sensors[sensor_id].a_hat.copy()

    def track_estimate(self, track_id):
        trk = self.tracks[track_id]
        return trk.x.copy(), trk.p.copy()
