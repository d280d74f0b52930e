"""Joint target-tracking and sensor-registration filter.

One filter epoch, matching the update loop of the fast MAP estimator:

    estimates   = solve_estimates(state)            # linearization points
    state, r, m = measurement_update(state, assoc)  # structured fusion
    state, hit  = check_and_reset_registration(state, r, m)
    state       = reshape_state(state, births, deaths)   # as needed
    state       = time_propagate(state, model)

The joint belief is a square-root information array over all track states
followed by all sensor registration blocks.  Updates and propagation keep the
track portion block-diagonal, which is what makes every epoch linear in the
number of tracks.

Registration reset note: when the innovation monitor fires, each non-pinned
sensor's registration block is returned to the noninformative prior.  The
surviving blocks (tracks, pinned sensors) keep exactly their current marginal
distributions and are declared mutually independent; correlations carried
through the discarded registration estimate are dropped by design ("forget
all past registration knowledge").  This keeps every track marginal bitwise
intact up to the refactorization and preserves the block structure.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import cholesky
from scipy.special import gammaincinv

from .info_array import (
    BackSubstitution,
    SquareRootInfo,
    XAssembly,
    YAssembly,
    back_substitute,
    triangularize_x,
    triangularize_y,
)
from .layout import JointLayout, REG_DIM
from .models import (CVModel, cv_transition, jacobians, measurement_vector,
                     process_noise_info, wrap_angle)


@dataclass(frozen=True)
class FmapConfig:
    """Tuning knobs for the joint filter.

    epsilon: noninformative prior scale (whitened units).
    innovation_threshold: chi-square quantile level for the reset monitor.
    innovation_window: number of update residuals averaged by the monitor.
    gate_distance: association gate in meters (used by the simulation layer).
    miss_limit: consecutive missed epochs before a track is dropped.
    known_sensor_weight: information weight pinning a surveyed sensor.
    """

    epsilon: float = 1e-4
    innovation_threshold: float = 0.99
    innovation_window: int = 5
    gate_distance: float = 2.0
    miss_limit: int = 3
    known_sensor_weight: float = 1e3

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.innovation_threshold < 1.0:
            raise ValueError("innovation_threshold must be a quantile in (0, 1)")
        if self.innovation_window < 1:
            raise ValueError("innovation_window must be at least 1")
        if self.gate_distance <= 0.0 or self.miss_limit < 1:
            raise ValueError("bad gate/miss settings")
        if not self.known_sensor_weight > 0.0:
            raise ValueError("known_sensor_weight must be positive")


@dataclass(frozen=True)
class SensorPrior:
    """Initial belief about one sensor's registration.

    mean: (xi0, eta0, psi0) in meters / radians.
    pinned: surveyed sensor; gets the strong known_sensor_weight prior and is
        never touched by registration resets.  Unpinned sensors with a mean
        start noninformative but centered on the guess.
    """

    mean: tuple
    pinned: bool = False

    def __post_init__(self):
        if len(self.mean) != REG_DIM:
            raise ValueError("sensor prior mean must have 3 entries")


@dataclass(frozen=True)
class FilterState:
    """Immutable snapshot of the filter between operations.

    reset_means holds, per sensor, the registration mean a reset returns to
    (the configured initial guess); an empty tuple means all zeros.
    """

    info: SquareRootInfo
    epoch: int
    config: FmapConfig
    innovation_history: tuple = ()
    pinned: frozenset = frozenset()
    reset_means: tuple = ()

    @property
    def layout(self) -> JointLayout:
        return self.info.layout

    @property
    def track_ids(self) -> tuple:
        return self.info.layout.track_ids


def initialize(k: int, config: FmapConfig | None = None,
               sensor_priors: dict | None = None) -> FilterState:
    """Fresh filter with no tracks and k sensor registration blocks.

    Without priors every registration block is the noninformative epsilon*I
    with zero right-hand side.  ``sensor_priors`` maps sensor index to a
    SensorPrior; pinned sensors get known_sensor_weight * I instead.
    """
    if k < 1:
        raise ValueError("need at least one sensor")
    config = config or FmapConfig()
    sensor_priors = sensor_priors or {}
    lay = JointLayout((), k)
    r = np.zeros((lay.dim, lay.dim))
    z = np.zeros(lay.dim)
    pinned = set()
    reset_means = []
    for s in range(k):
        sl = lay.sensor_slice(s)
        prior = sensor_priors.get(s)
        if prior is None:
            weight = config.epsilon
            mean = np.zeros(REG_DIM)
        else:
            weight = config.known_sensor_weight if prior.pinned else config.epsilon
            mean = np.array([prior.mean[0], prior.mean[1], wrap_angle(prior.mean[2])])
            if prior.pinned:
                pinned.add(s)
        r[sl, sl] = weight * np.eye(REG_DIM)
        z[sl] = weight * mean
        reset_means.append(tuple(float(v) for v in mean))
    info = SquareRootInfo(r, z, lay)
    return FilterState(info=info, epoch=0, config=config,
                       pinned=frozenset(pinned), reset_means=tuple(reset_means))


def solve_estimates(state: FilterState, with_covariance: bool = True) -> BackSubstitution:
    """Solved means and blockwise covariances of the current belief."""
    return back_substitute(state.info, with_covariance=with_covariance)


def registration_estimate(state: FilterState, sensor: int):
    """(mean, covariance) of one sensor's registration block."""
    sol = solve_estimates(state)
    lay = state.layout
    sl = lay.sensor_slice(sensor)
    off = sl.start - lay.track_dim
    mean = sol.estimate[sl]
    cov = sol.registration_covariance[off:off + REG_DIM, off:off + REG_DIM]
    return mean, cov


def track_estimate(state: FilterState, track_id):
    """(mean, covariance) of one track."""
    sol = solve_estimates(state)
    b = state.layout.track_ordinal(track_id)
    return sol.estimate[state.layout.track_block(b)], sol.track_covariances[b]


def build_measurement_rows(lay: JointLayout, assoc, linearization: np.ndarray):
    """Whitened linearized rows for the update stack.

    Linearizes every measurement at the given joint state vector, wraps the
    bearing innovation before whitening, and returns (cx, ca, rhs, m).  All
    detections go through one stacked ``jacobians`` and one stacked
    ``measurement_vector`` call.  Shared by the structured filter and the
    dense baseline so that lockstep runs use bit-identical rows.
    """
    m = 3 * len(assoc)
    cx = np.zeros((m, lay.track_dim))
    ca = np.zeros((m, lay.reg_dim))
    rhs = np.zeros(m)
    if not assoc:
        return cx, ca, rhs, m
    ordinal = lay.ordinals
    unknown = [tid for tid, _ in assoc if tid not in ordinal]
    if unknown:
        raise KeyError(f"track id {unknown[0]!r} not in layout")
    sensors = [meas.sensor_id for _, meas in assoc]
    bad = [s for s in sensors if s is None or not 0 <= s < lay.k]
    if bad:
        raise KeyError(f"measurement has unknown sensor id {bad[0]!r}")
    owner = np.array([ordinal[tid] for tid, _ in assoc])
    sensors = np.array(sensors)
    z = np.array([(meas.r, meas.rdot, meas.theta) for _, meas in assoc])
    inv = 1.0 / np.array([meas.noise_sigmas for _, meas in assoc], dtype=float)

    x_star = linearization[:lay.track_dim].reshape(-1, lay.nx)[owner]
    a_star = linearization[lay.track_dim:].reshape(-1, lay.na)[sensors]
    cx_b, ca_b, _ = jacobians(x_star, a_star)
    h_star = measurement_vector(x_star, a_star)
    resid = z - h_star
    resid[:, 2] = wrap_angle(resid[:, 2])
    row_rhs = (resid + (cx_b * x_star[:, None, :]).sum(axis=-1)
               + (ca_b * a_star[:, None, :]).sum(axis=-1))

    rows = np.arange(m).reshape(-1, 3, 1)
    x_cols = (owner * lay.nx)[:, None, None] + np.arange(lay.nx)
    a_cols = (sensors * lay.na)[:, None, None] + np.arange(lay.na)
    cx[rows, x_cols] = cx_b * inv[:, :, None]
    ca[rows, a_cols] = ca_b * inv[:, :, None]
    rhs[:] = (row_rhs * inv).ravel()
    return cx, ca, rhs, m


def measurement_update(state: FilterState, assoc):
    """Fuse associated measurements; returns (state', residual_norm_sq, m_dims).

    ``assoc`` is a list of (track_id, Measurement) pairs.  Every track id must
    already be in the layout; measurements are linearized at the solved prior
    mean and whitened by their own noise sigmas.  The returned residual is the
    squared norm of the least-squares innovation of the whitened stack, and
    m_dims the stacked measurement dimension, for the reset monitor.
    """
    if not assoc:
        return state, 0.0, 0
    sol = solve_estimates(state, with_covariance=False)
    cx, ca, rhs, m = build_measurement_rows(state.layout, assoc, sol.estimate)
    state, rss = apply_measurement_rows(state, cx, ca, rhs)
    return state, rss, m


def apply_measurement_rows(state: FilterState, cx, ca, rhs):
    """Fuse whitened rows from ``build_measurement_rows``; returns (state', rss).

    The row arrays are consumed: the triangularization works in them in place.
    """
    posterior, e = triangularize_x(XAssembly(state.info.copy(), cx, ca, rhs))
    return replace(state, info=posterior), float(np.dot(e, e))


@lru_cache
def chi2_per_dof_quantile(level: float, dof: int) -> float:
    """Chi-square quantile at ``level`` for ``dof`` degrees of freedom, per dof.

    The chi-square quantile is twice the inverse regularized lower incomplete
    gamma function at half the dof; this avoids importing ``scipy.stats``.
    """
    return float(2.0 * gammaincinv(dof / 2, level)) / dof


def windowed_innovation(history: tuple, residual_norm_sq: float, m_dims: int,
                        window: int):
    """Push one epoch's (residual_norm_sq, m_dims), skipping m_dims <= 0.

    Returns (history', stat, dof): the last ``window`` entries, their summed
    residual per summed degree of freedom, and that dof; nan and 0 until the
    window is full.
    """
    if m_dims > 0:
        history = (history + ((float(residual_norm_sq), int(m_dims)),))[-window:]
    if len(history) < window:
        return history, float("nan"), 0
    dof = sum(h[1] for h in history)
    return history, sum(h[0] for h in history) / dof, dof


def monitor_innovation(state, residual_norm_sq: float, m_dims: int, reset):
    """Window the normalized innovation and reset registration on exceedance.

    ``state`` is a FilterState or a DenseState.  Once the window is full and
    its residual per degree of freedom exceeds the chi-square quantile of the
    stacked window, ``reset(state, sensors)`` returns every non-pinned sensor
    to the noninformative prior and the window is cleared.  Returns
    (state', reset_fired).
    """
    if m_dims <= 0:
        return state, False
    cfg = state.config
    history, stat, dof = windowed_innovation(
        state.innovation_history, residual_norm_sq, m_dims, cfg.innovation_window)
    state = replace(state, innovation_history=history)
    if not dof or stat <= chi2_per_dof_quantile(cfg.innovation_threshold, dof):
        return state, False
    resettable = [s for s in range(state.layout.k) if s not in state.pinned]
    if not resettable:
        return state, False
    return replace(reset(state, resettable), innovation_history=()), True


def check_and_reset_registration(state: FilterState, residual_norm_sq: float, m_dims: int):
    """The innovation monitor on the structured filter; returns (state', reset_fired)."""
    return monitor_innovation(state, residual_norm_sq, m_dims, reset_registration)


def reset_registration(state: FilterState, sensors) -> FilterState:
    """Return listed sensors to the noninformative prior, keeping all other
    block marginals exactly.

    The new joint belief is the product of the current per-track marginals,
    the current marginals of the untouched sensors, and fresh epsilon*I blocks
    for the reset sensors, centered on their configured initial guesses.
    Cross-correlations that existed only through the forgotten registration
    estimates are dropped.
    """
    lay = state.layout
    sensors = set(sensors)
    unknown = sensors - set(range(lay.k))
    if unknown:
        raise KeyError(f"unknown sensor indices {sorted(unknown)}")
    sol = solve_estimates(state)
    eps = state.config.epsilon
    means = state.reset_means or ((0.0,) * REG_DIM,) * lay.k
    r = np.zeros((lay.dim, lay.dim))
    z = np.zeros(lay.dim)
    for b in range(lay.n_tracks):
        blk = lay.track_block(b)
        rb = cholesky(np.linalg.inv(sol.track_covariances[b]), lower=False)
        r[blk, blk] = rb
        z[blk] = rb @ sol.estimate[blk]
    for s in range(lay.k):
        sl = lay.sensor_slice(s)
        if s in sensors:
            r[sl, sl] = eps * np.eye(REG_DIM)
            z[sl] = eps * np.asarray(means[s])
        else:
            off = sl.start - lay.track_dim
            cov = sol.registration_covariance[off:off + REG_DIM, off:off + REG_DIM]
            rs = cholesky(np.linalg.inv(cov), lower=False)
            r[sl, sl] = rs
            z[sl] = rs @ sol.estimate[sl]
    return replace(state, info=SquareRootInfo(r, z, lay))


def time_propagate(state: FilterState, model: CVModel) -> FilterState:
    """Push the belief through one constant-velocity step.

    Registration blocks are static (identity dynamics) and pass through
    unchanged; each track is propagated with its own transition, which keeps
    the track block of the new prior block-diagonal.
    """
    lay = state.layout
    phi, g, u2, phi_inv = cv_transition(model)
    rw = process_noise_info(model).r
    info = state.info
    reg = lay.reg_slice()
    rw_blocks, rx_gd, rx_d, zw = [], [], [], []
    zx = np.array(info.z[:lay.track_dim], copy=True)
    for b in range(lay.n_tracks):
        blk = lay.track_block(b)
        rx = info.r[blk, blk]
        rx_phi_inv = rx @ phi_inv
        rw_blocks.append(rw)
        rx_gd.append(-rx_phi_inv @ g)
        rx_d.append(rx_phi_inv)
        zw.append(np.zeros(lay.nx))
        zx[blk] += rx_phi_inv @ u2
    asm = YAssembly(
        layout=lay, rw=rw_blocks, rx_gd=rx_gd, rx_d=rx_d, zw=zw,
        rxa=info.r[:lay.track_dim, reg].copy(), ra=info.r[reg, reg].copy(),
        zx=zx, za=info.z[reg].copy(),
    )
    prior_next = triangularize_y(asm)
    return replace(state, info=prior_next, epoch=state.epoch + 1)


def reshape_state(state: FilterState, new_tracks=(), deleted_ids=()) -> FilterState:
    """Delete dead tracks and prepend noninformative blocks for new ones.

    Deletion drops the dead tracks' rows and columns.  Because the track
    block is block-diagonal and each track's rows carry that track's entire
    coupling to the registration columns, dropping those rows performs the
    exact marginalization (the leading-block marginal of the equivalent
    permuted triangular array); the surviving rows are untouched.

    New tracks are prepended as independent epsilon*I blocks whose right-hand
    side encodes the initial guess, so the new marginal mean is the guess and
    the covariance the noninformative epsilon^{-2} I.
    """
    lay = state.layout
    deleted = tuple(deleted_ids)
    new_tracks = tuple(new_tracks)
    if not deleted and not new_tracks:
        return state
    info = state.info
    eps = state.config.epsilon

    keep_lay = lay.with_tracks_removed(deleted)
    keep_cols = lay.kept_columns(keep_lay)
    r_kept = info.r[np.ix_(keep_cols, keep_cols)]
    z_kept = info.z[keep_cols]

    new_ids = tuple(tid for tid, _ in new_tracks)
    out_lay = keep_lay.with_tracks_prepended(new_ids)
    lead = len(new_ids) * lay.nx
    r = np.zeros((out_lay.dim, out_lay.dim))
    z = np.zeros(out_lay.dim)
    for i, (tid, guess) in enumerate(new_tracks):
        blk = slice(i * lay.nx, (i + 1) * lay.nx)
        gv = np.asarray(getattr(guess, "as_array", lambda: guess)(), dtype=float).ravel()
        if gv.shape != (lay.nx,):
            raise ValueError(f"initial guess for track {tid!r} has shape {gv.shape}")
        r[blk, blk] = eps * np.eye(lay.nx)
        z[blk] = eps * gv
    r[lead:, lead:] = r_kept
    z[lead:] = z_kept
    return replace(state, info=SquareRootInfo(r, z, out_lay))


# ----------------------------------------------------------------------
# snapshot serialization (replay determinism)
# ----------------------------------------------------------------------

_STATE_MAGIC = "jtrstate 1"


def save_state(state: FilterState) -> str:
    """Versioned plain-text snapshot; %.17g round-trips every double."""
    lay = state.layout
    cfg = state.config
    g = lambda v: format(v, ".17g")
    lines = [
        _STATE_MAGIC,
        f"epoch {state.epoch}",
        f"k {lay.k}",
        "tracks " + " ".join(str(t) for t in lay.track_ids),
        "pinned " + " ".join(str(s) for s in sorted(state.pinned)),
        ("config " + " ".join([
            g(cfg.epsilon), g(cfg.innovation_threshold), str(cfg.innovation_window),
            g(cfg.gate_distance), str(cfg.miss_limit), g(cfg.known_sensor_weight),
        ])),
        "window " + " ".join(f"{g(rss)}:{m}" for rss, m in state.innovation_history),
        "resetmeans " + " ".join(g(v) for mean in state.reset_means for v in mean),
        "R",
    ]
    lines.extend(" ".join(g(v) for v in row) for row in state.info.r)
    lines.append("z")
    lines.append(" ".join(g(v) for v in state.info.z))
    return "\n".join(lines) + "\n"


def load_state(text: str) -> FilterState:
    """Parse a ``save_state`` snapshot; raises ValueError for malformed text,
    including an R with nonzero entries below the diagonal."""
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != _STATE_MAGIC:
        raise ValueError("unrecognized filter snapshot header")
    fields = {}
    idx = 1
    while idx < len(lines) and lines[idx].strip() != "R":
        key, _, rest = lines[idx].partition(" ")
        fields[key] = rest.strip()
        idx += 1
    if idx >= len(lines):
        raise ValueError("snapshot missing R section")
    epoch = int(fields["epoch"])
    k = int(fields["k"])
    track_ids = tuple(int(t) for t in fields.get("tracks", "").split())
    pinned = frozenset(int(s) for s in fields.get("pinned", "").split())
    cvals = fields["config"].split()
    config = FmapConfig(
        epsilon=float(cvals[0]), innovation_threshold=float(cvals[1]),
        innovation_window=int(cvals[2]), gate_distance=float(cvals[3]),
        miss_limit=int(cvals[4]), known_sensor_weight=float(cvals[5]),
    )
    history = tuple(
        (float(pair.split(":")[0]), int(pair.split(":")[1]))
        for pair in fields.get("window", "").split()
    )
    flat = [float(v) for v in fields.get("resetmeans", "").split()]
    if flat and len(flat) != 3 * k:
        raise ValueError("snapshot resetmeans length does not match k")
    reset_means = tuple(tuple(flat[3 * s:3 * s + 3]) for s in range(k)) \
        if flat else ()
    lay = JointLayout(track_ids, k)
    rows = []
    for off in range(lay.dim):
        rows.append([float(v) for v in lines[idx + 1 + off].split()])
    z_at = idx + 1 + lay.dim
    if lines[z_at].strip() != "z":
        raise ValueError("snapshot missing z section")
    z = np.array([float(v) for v in lines[z_at + 1].split()]) if lay.dim else np.zeros(0)
    r = np.array(rows).reshape(lay.dim, lay.dim)
    below = np.flatnonzero(np.tril(r, -1).any(axis=1))
    if below.size:
        raise ValueError(f"snapshot R is not upper triangular: row {int(below[0])} "
                         "has a nonzero entry below the diagonal")
    info = SquareRootInfo(r, z, lay)
    return FilterState(info=info, epoch=epoch, config=config,
                       innovation_history=history, pinned=pinned,
                       reset_means=reset_means)
