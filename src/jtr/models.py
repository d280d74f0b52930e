"""Range/range-rate/bearing sensor model and constant-velocity dynamics.

Track state order is (xi, v_xi, eta, v_eta) in the common vehicle frame;
registration per sensor is (xi0, eta0, psi0): mount position and azimuth
of the boresight.  Angles are radians everywhere inside the library and are
wrapped to (-pi, pi].  Range rate is positive for an opening range.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky

from .info_array import SquareRootInfo

TWO_PI = 2.0 * math.pi
R_MIN = 0.1  # m; below this the bearing/range-rate geometry is singular


class SingularGeometryError(ValueError):
    """Target too close to the sensor for a well-posed linearization."""


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = (a + math.pi) % TWO_PI - math.pi
    if w == -math.pi:
        return math.pi
    return w


@dataclass(frozen=True)
class TrackState:
    xi: float
    v_xi: float
    eta: float
    v_eta: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.xi, self.v_xi, self.eta, self.v_eta)):
            raise ValueError("non-finite track state")

    def as_array(self) -> np.ndarray:
        return np.array([self.xi, self.v_xi, self.eta, self.v_eta])

    @classmethod
    def from_array(cls, arr) -> "TrackState":
        xi, v_xi, eta, v_eta = np.asarray(arr, dtype=float).ravel()
        return cls(xi, v_xi, eta, v_eta)


@dataclass(frozen=True)
class Registration:
    """Sensor mount pose in the vehicle frame; psi0 is stored wrapped."""

    xi0: float
    eta0: float
    psi0: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.xi0, self.eta0, self.psi0)):
            raise ValueError("non-finite registration")
        object.__setattr__(self, "psi0", wrap_angle(self.psi0))

    def as_array(self) -> np.ndarray:
        return np.array([self.xi0, self.eta0, self.psi0])

    @classmethod
    def from_array(cls, arr) -> "Registration":
        xi0, eta0, psi0 = np.asarray(arr, dtype=float).ravel()
        return cls(xi0, eta0, psi0)


@dataclass(frozen=True)
class Measurement:
    """One sensor return: range (m), range rate (m/s), bearing (rad)."""

    r: float
    rdot: float
    theta: float
    sensor_id: int | None = None
    t: float | None = None
    noise_sigmas: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError(f"range must be positive and finite, got {self.r}")
        if not all(s > 0.0 and math.isfinite(s) for s in self.noise_sigmas):
            raise ValueError("noise sigmas must be positive")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def as_vector(self) -> np.ndarray:
        return np.array([self.r, self.rdot, self.theta])


@dataclass(frozen=True)
class CVModel:
    """Discrete constant-velocity motion model.

    ``noise_form`` selects the square-root process-noise information block:
    'direct' scales the fixed upper-triangular block
    W = [[sqrt(dt^3/3), sqrt(3 dt/4)], [0, sqrt(dt/4)]] by the walking
    parameter q to form the information square root itself, a
    velocity-random-walk weighting whose implied covariance is not the
    discretized white-noise-acceleration form, while 'standard' derives
    the block from the textbook discrete white-noise-acceleration
    covariance q * [[dt^3/3, dt^2/2], [dt^2/2, dt]].
    """

    dt: float
    q_xi: float
    q_eta: float
    noise_form: str = "direct"

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive")
        if not (self.q_xi > 0.0 and self.q_eta > 0.0):
            raise ValueError("process intensities must be positive")
        if self.noise_form not in ("direct", "standard"):
            raise ValueError(f"unknown noise form {self.noise_form!r}")


def _as_x(x) -> np.ndarray:
    if isinstance(x, TrackState):
        return x.as_array()
    arr = np.asarray(x, dtype=float).ravel()
    if arr.shape != (4,):
        raise ValueError(f"track state must have 4 entries, got {arr.shape}")
    return arr


def _as_a(a) -> np.ndarray:
    if isinstance(a, Registration):
        return a.as_array()
    arr = np.asarray(a, dtype=float).ravel()
    if arr.shape != (3,):
        raise ValueError(f"registration must have 3 entries, got {arr.shape}")
    return arr


def measurement_vector(x, a) -> np.ndarray:
    """Noise-free (r, rdot, theta) of track ``x`` seen from sensor pose ``a``."""
    xv, av = _as_x(x), _as_a(a)
    dxi = xv[0] - av[0]
    deta = xv[2] - av[1]
    r = math.hypot(dxi, deta)
    if r <= R_MIN:
        raise SingularGeometryError(f"range {r:.3g} m at or below minimum {R_MIN} m")
    rdot = (xv[1] * dxi + xv[3] * deta) / r
    theta = wrap_angle(math.atan2(deta, dxi) - av[2])
    return np.array([r, rdot, theta])


def predict_measurement(x, a, sensor_id: int | None = None, t: float | None = None,
                        noise_sigmas: tuple = (1.0, 1.0, 1.0)) -> Measurement:
    r, rdot, theta = measurement_vector(x, a)
    return Measurement(r, rdot, theta, sensor_id=sensor_id, t=t, noise_sigmas=noise_sigmas)


def jacobians(x, a):
    """Exact measurement Jacobians and linearization offset at (x, a).

    Returns (cx, ca, u1) with cx 3x4, ca 3x3 and u1 the offset such that
    h(x, a) == cx @ x + ca @ a + u1 at the expansion point.  The range-rate
    row carries the position-derivative terms (v/r - rdot d/r^2 and their
    negatives on the registration side) and d(theta)/d(xi0, eta0) is nonzero;
    d(theta)/d(psi0) is exactly -1.
    """
    xv, av = _as_x(x), _as_a(a)
    dxi = xv[0] - av[0]
    deta = xv[2] - av[1]
    r = math.hypot(dxi, deta)
    if r <= R_MIN:
        raise SingularGeometryError(f"range {r:.3g} m at or below minimum {R_MIN} m")
    r2 = r * r
    rdot = (xv[1] * dxi + xv[3] * deta) / r

    cx = np.array([
        [dxi / r, 0.0, deta / r, 0.0],
        [xv[1] / r - rdot * dxi / r2, dxi / r,
         xv[3] / r - rdot * deta / r2, deta / r],
        [-deta / r2, 0.0, dxi / r2, 0.0],
    ])
    ca = np.array([
        [-dxi / r, -deta / r, 0.0],
        [-(xv[1] / r - rdot * dxi / r2), -(xv[3] / r - rdot * deta / r2), 0.0],
        [deta / r2, -dxi / r2, -1.0],
    ])
    h = np.array([r, rdot, wrap_angle(math.atan2(deta, dxi) - av[2])])
    u1 = h - cx @ xv - ca @ av
    return cx, ca, u1


def whiten_rows(rows: np.ndarray, rhs: np.ndarray, sigmas: np.ndarray):
    """Scale each row and its right-hand side by 1/sigma of its channel."""
    sigmas = np.asarray(sigmas, dtype=float).ravel()
    if np.any(sigmas <= 0.0) or not np.all(np.isfinite(sigmas)):
        raise ValueError("sigmas must be positive and finite")
    rows = np.asarray(rows, dtype=float)
    rhs = np.asarray(rhs, dtype=float).ravel()
    if rows.shape[0] != sigmas.size or rhs.size != sigmas.size:
        raise ValueError("row/sigma count mismatch")
    inv = 1.0 / sigmas
    return rows * inv[:, None], rhs * inv


def cv_transition(model: CVModel):
    """(Phi, G, u2, Phi_inverse) for one constant-velocity step."""
    dt = model.dt
    phi = np.array([
        [1.0, dt, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, dt],
        [0.0, 0.0, 0.0, 1.0],
    ])
    phi_inv = np.array([
        [1.0, -dt, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, -dt],
        [0.0, 0.0, 0.0, 1.0],
    ])
    g = np.eye(4)
    u2 = np.zeros(4)
    return phi, g, u2, phi_inv


def _direct_noise_block(dt: float) -> np.ndarray:
    return np.array([
        [math.sqrt(dt ** 3 / 3.0), math.sqrt(3.0 * dt / 4.0)],
        [0.0, math.sqrt(dt / 4.0)],
    ])


def standard_cv_covariance(q: float, dt: float) -> np.ndarray:
    """Textbook discrete white-noise-acceleration covariance for one axis."""
    return q * np.array([
        [dt ** 3 / 3.0, dt ** 2 / 2.0],
        [dt ** 2 / 2.0, dt],
    ])


def _standard_noise_block(q: float, dt: float) -> np.ndarray:
    qcov = standard_cv_covariance(q, dt)
    return cholesky(np.linalg.inv(qcov), lower=False)


def process_noise_info(model: CVModel) -> SquareRootInfo:
    """Square-root information array of the 4-dim process noise w.

    The per-axis 2x2 block is q * W in 'direct' form, or the exact
    square-root information of the textbook covariance in 'standard'
    form; axes are stacked as (xi, v_xi) then (eta, v_eta).
    """
    r = np.zeros((4, 4))
    if model.noise_form == "direct":
        w = _direct_noise_block(model.dt)
        r[:2, :2] = model.q_xi * w
        r[2:, 2:] = model.q_eta * w
    else:
        r[:2, :2] = _standard_noise_block(model.q_xi, model.dt)
        r[2:, 2:] = _standard_noise_block(model.q_eta, model.dt)
    return SquareRootInfo(r, np.zeros(4), None)


def process_noise_covariance(model: CVModel) -> np.ndarray:
    """Covariance implied by the filter's process-noise information block."""
    rw = process_noise_info(model).r
    rinv = np.linalg.inv(rw)
    return rinv @ rinv.T


def backproject(r: float, theta: float, a) -> np.ndarray:
    """Cartesian position implied by (r, theta) through sensor pose ``a``."""
    av = _as_a(a)
    bearing = theta + av[2]
    return np.array([av[0] + r * math.cos(bearing), av[1] + r * math.sin(bearing)])
