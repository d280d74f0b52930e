"""Square-root information array kernel.

A Gaussian belief over a state vector s is held as the pair [R, z] where R is
upper triangular, the mean solves R s = z and the covariance is
R^{-1} R^{-T}.  Measurement fusion and time propagation reduce to
triangularizing structured stacked arrays with Givens rotations; the block
structure of the joint tracking problem (independent track blocks coupled
only through the trailing registration columns) is preserved exactly because
rotations never touch columns outside the active block.

Conventions used throughout:
  * columns are ordered track blocks first, registration blocks last,
    as described by ``layout.JointLayout``;
  * rotations are applied column by column left to right, and for each
    column row by row top to bottom;
  * a structural zero is an exact 0.0, never a small number; the kernel
    tests entries with ``== 0.0`` and skips them, so entries that start
    as exact zeros stay exact zeros.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .layout import JointLayout


class DegenerateRotationError(ValueError):
    """Both rotation inputs are zero; the rotation is undefined."""


class SingularBlockError(ValueError):
    """A diagonal block of R is singular; names the offending block."""

    def __init__(self, block, message=None):
        self.block = block
        super().__init__(message or f"singular diagonal in block {block!r}")


class AssemblyError(ValueError):
    """Malformed stacked assembly (shape, finiteness or sparsity pattern)."""


def _givens_cs(alpha: float, beta: float):
    """(c, s) of the rotation zeroing ``beta`` against pivot ``alpha``.

    c**2 + s**2 == 1.  Applied to a column pair (top, bot) the rotation
    computes (c*top + s*bot, c*bot - s*top), which maps (alpha, beta) to
    (hypot(alpha, beta), 0).  hypot keeps wildly scaled inputs
    (1e-150 .. 1e150) from overflowing or underflowing.  Raises
    DegenerateRotationError when both inputs are exactly zero.
    """
    if alpha == 0.0 and beta == 0.0:
        raise DegenerateRotationError("cannot build a rotation from (0, 0)")
    r = math.hypot(alpha, beta)
    return alpha / r, beta / r


@dataclass
class RotationStats:
    """Operation counters for the structured triangularizations."""

    rotations: int = 0  # Givens rotations constructed
    pair_ops: int = 0   # column positions touched by rotation applications


@dataclass
class SquareRootInfo:
    """Information array [R, z] with R upper triangular.

    Every producer in this package returns a triangular factor; ``mean``
    rejects one that is not.  ``layout`` ties columns to track/sensor blocks
    and may be None for unstructured arrays.
    """

    r: np.ndarray
    z: np.ndarray
    layout: JointLayout | None = None

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.r.ndim != 2 or self.r.shape[0] != self.r.shape[1]:
            raise AssemblyError(f"R must be square, got {self.r.shape}")
        if self.z.shape != (self.r.shape[0],):
            raise AssemblyError(f"z shape {self.z.shape} does not match R {self.r.shape}")
        if self.layout is not None and self.layout.dim != self.r.shape[0]:
            raise AssemblyError("layout dimension does not match R")

    @property
    def dim(self) -> int:
        return self.r.shape[0]

    def copy(self) -> "SquareRootInfo":
        return SquareRootInfo(self.r.copy(), self.z.copy(), self.layout)

    def is_upper_triangular(self) -> bool:
        return bool(np.all(self.r[np.tril_indices(self.dim, k=-1)] == 0.0))

    def mean(self) -> np.ndarray:
        """Implied mean R^{-1} z by back substitution.

        Raises AssemblyError when R is not upper triangular, and
        SingularBlockError naming the block of a zero diagonal entry.
        """
        if not self.is_upper_triangular():
            raise AssemblyError("R is not upper triangular")
        _check_diag(self.r, self.layout)
        return solve_triangular(self.r, self.z)

    def covariance(self) -> np.ndarray:
        """Implied covariance R^{-1} R^{-T} (dense; intended for tests)."""
        rinv = np.linalg.inv(self.r)
        return rinv @ rinv.T


def _check_diag(r: np.ndarray, layout: JointLayout | None):
    zero = np.flatnonzero(np.diag(r) == 0.0)
    if zero.size == 0:
        return
    col = int(zero[0])
    if layout is None:
        raise SingularBlockError(col, f"singular diagonal at column {col}")
    if col < layout.track_dim:
        tid = layout.track_ids[col // layout.nx]
        raise SingularBlockError(f"track {tid}")
    raise SingularBlockError("registration")


# ======================================================================
# measurement-side stacked assembly
# ======================================================================

@dataclass
class XAssembly:
    """Prior plus whitened linearized measurement rows awaiting fusion.

    Rows of ``cx`` must each have their nonzeros confined to exactly one
    track block (the associated track).  Rows are assumed pre-whitened:
    unit measurement noise.  The assembly owns its arrays; triangularizing
    it consumes them in place.
    """

    prior: SquareRootInfo
    cx: np.ndarray
    ca: np.ndarray
    rhs: np.ndarray
    row_blocks: np.ndarray = field(init=False)

    def __post_init__(self):
        lay = self.prior.layout
        if lay is None:
            raise AssemblyError("measurement assembly requires a layout")
        self.cx = np.atleast_2d(np.asarray(self.cx, dtype=float))
        self.ca = np.atleast_2d(np.asarray(self.ca, dtype=float))
        self.rhs = np.asarray(self.rhs, dtype=float).ravel()
        m = self.rhs.size
        if m == 0:
            self.cx = self.cx.reshape(0, lay.track_dim)
            self.ca = self.ca.reshape(0, lay.reg_dim)
        if self.cx.shape != (m, lay.track_dim):
            raise AssemblyError(f"Cx shape {self.cx.shape}, expected {(m, lay.track_dim)}")
        if self.ca.shape != (m, lay.reg_dim):
            raise AssemblyError(f"Ca shape {self.ca.shape}, expected {(m, lay.reg_dim)}")
        for arr, name in ((self.cx, "Cx"), (self.ca, "Ca"), (self.rhs, "rhs")):
            if not np.all(np.isfinite(arr)):
                raise AssemblyError(f"non-finite entries in {name}")
        if m == 0:
            self.row_blocks = np.zeros(0, dtype=int)
            return
        nonzero = self.cx != 0.0
        has_any = nonzero.any(axis=1)
        if not has_any.all():
            i = int(np.flatnonzero(~has_any)[0])
            raise AssemblyError(f"measurement row {i} touches no track block")
        first = nonzero.argmax(axis=1)
        last = lay.track_dim - 1 - nonzero[:, ::-1].argmax(axis=1)
        blocks = first // lay.nx
        spread = np.flatnonzero(last // lay.nx != blocks)
        if spread.size:
            raise AssemblyError(
                f"measurement row {int(spread[0])} touches several track blocks")
        self.row_blocks = blocks

    @property
    def m(self) -> int:
        return self.rhs.size

    def stacked(self) -> np.ndarray:
        """Dense [[R, z]; [C, rhs]] stack (oracle/debug helper)."""
        top = np.hstack([self.prior.r, self.prior.z[:, None]])
        bot = np.hstack([self.cx, self.ca, self.rhs[:, None]])
        return np.vstack([top, bot])


def triangularize_x(assembly: XAssembly, stats: RotationStats | None = None):
    """Fuse measurement rows into the prior by structured Givens elimination.

    Each nonzero of the track-coupling block is zeroed against the diagonal
    element of its own column; rotations only touch the owning track block,
    the registration columns and the right-hand side, so other track blocks
    keep exact structural zeros.  What remains of the measurement rows is
    folded into the registration sub-array by one dense QR, whose trailing
    right-hand-side row is the least-squares residual.

    Returns:
        (posterior, e): the updated SquareRootInfo and a residual vector
        with ||e||**2 equal to the least-squares residual of the stack.
    """
    lay = assembly.prior.layout
    r, z = assembly.prior.r, assembly.prior.z
    cx, ca, rhs = assembly.cx, assembly.ca, assembly.rhs
    m = assembly.m
    reg0 = lay.track_dim
    ka = lay.reg_dim

    nx = lay.nx
    for b in range(lay.n_tracks):
        rows = np.flatnonzero(assembly.row_blocks == b)
        if rows.size == 0:
            continue
        blk = lay.track_block(b)
        # Work on contiguous [track segment | registration | rhs] copies so
        # each rotation is two fused slice expressions, then scatter back.
        pivot = np.empty((nx, nx + ka + 1))
        pivot[:, :nx] = r[blk, blk]
        pivot[:, nx:nx + ka] = r[blk, reg0:]
        pivot[:, nx + ka] = z[blk]
        work = np.empty((rows.size, nx + ka + 1))
        work[:, :nx] = cx[np.ix_(rows, range(blk.start, blk.stop))]
        work[:, nx:nx + ka] = ca[rows]
        work[:, nx + ka] = rhs[rows]
        for j in range(nx):
            pj = pivot[j]
            for i in range(rows.size):
                wi = work[i]
                beta = wi[j]
                if beta == 0.0:
                    continue
                c, s = _givens_cs(pj[j], beta)
                top = pj[j:]
                bot = wi[j:]
                new_top = c * top + s * bot
                wi[j:] = c * bot - s * top
                pj[j:] = new_top
                wi[j] = 0.0
                if stats is not None:
                    stats.rotations += 1
                    stats.pair_ops += (nx - j) + ka + 1
        r[blk, blk] = pivot[:, :nx]
        r[blk, reg0:] = pivot[:, nx:nx + ka]
        z[blk] = pivot[:, nx + ka]
        cx[np.ix_(rows, range(blk.start, blk.stop))] = work[:, :nx]
        ca[rows] = work[:, nx:nx + ka]
        rhs[rows] = work[:, nx + ka]

    if m == 0:
        return assembly.prior, np.zeros(0)

    if ka == 0:
        return assembly.prior, rhs.copy()

    lam = np.zeros((ka + m, ka + 1))
    lam[:ka, :ka] = r[reg0:, reg0:]
    lam[:ka, ka] = z[reg0:]
    lam[ka:, :ka] = ca
    lam[ka:, ka] = rhs
    u = dense_qr(lam)
    r[reg0:, reg0:] = u[:ka, :ka]
    z[reg0:] = u[:ka, ka]
    e = np.zeros(m)
    if u.shape[0] > ka:
        e[0] = u[ka, ka]
    return assembly.prior, e


# ======================================================================
# propagation-side stacked assembly
# ======================================================================

@dataclass
class YAssembly:
    """Posterior plus process-noise rows arranged for time propagation.

    Per-track blocks (lists indexed like ``layout.track_ids``):
        rw:    upper-triangular square-root information of the track's
               process noise w;
        rx_gd: -R_x @ Phi^{-1} @ G for the track;
        rx_d:  R_x @ Phi^{-1} for the track;
        zw:    process-noise right-hand side (zero mean noise -> zeros);
    Shared arrays:
        rxa, ra, zx, za: registration coupling, registration block and the
        corresponding right-hand sides; ``zx`` already carries any control
        adjustment R_x @ Phi^{-1} @ u.
    """

    layout: JointLayout
    rw: list
    rx_gd: list
    rx_d: list
    zw: list
    rxa: np.ndarray
    ra: np.ndarray
    zx: np.ndarray
    za: np.ndarray

    def __post_init__(self):
        lay = self.layout
        n, nx, ka = lay.n_tracks, lay.nx, lay.reg_dim
        for name, blocks in (("rw", self.rw), ("rx_gd", self.rx_gd), ("rx_d", self.rx_d)):
            if len(blocks) != n:
                raise AssemblyError(f"{name} has {len(blocks)} blocks, expected {n}")
            for blk in blocks:
                if np.shape(blk) != (nx, nx):
                    raise AssemblyError(f"{name} block shape {np.shape(blk)}")
                if not np.all(np.isfinite(blk)):
                    raise AssemblyError(f"non-finite entries in {name}")
        if len(self.zw) != n:
            raise AssemblyError("zw block count mismatch")
        self.rxa = np.asarray(self.rxa, dtype=float).reshape(lay.track_dim, ka)
        self.ra = np.asarray(self.ra, dtype=float).reshape(ka, ka)
        self.zx = np.asarray(self.zx, dtype=float).ravel()
        self.za = np.asarray(self.za, dtype=float).ravel()
        if self.zx.shape != (lay.track_dim,) or self.za.shape != (ka,):
            raise AssemblyError("right-hand-side shape mismatch")
        for arr in (self.rxa, self.ra, self.zx, self.za):
            if not np.all(np.isfinite(arr)):
                raise AssemblyError("non-finite entries in propagation assembly")

    def stacked(self) -> np.ndarray:
        """Dense stacked array including the w columns (oracle helper)."""
        lay = self.layout
        n, nx, ka = lay.n_tracks, lay.nx, lay.reg_dim
        nw = n * nx
        d = lay.dim
        out = np.zeros((nw + d, nw + d + 1))
        for b in range(n):
            ws = slice(b * nx, (b + 1) * nx)
            xs = slice(nw + b * nx, nw + (b + 1) * nx)
            out[ws, ws] = self.rw[b]
            out[ws, -1] = self.zw[b]
            out[xs, ws] = self.rx_gd[b]
            out[xs, xs] = self.rx_d[b]
        out[nw:nw + lay.track_dim, nw + lay.track_dim:nw + d] = self.rxa
        out[nw:nw + lay.track_dim, -1] = self.zx
        out[nw + lay.track_dim:nw + d, nw + lay.track_dim:nw + d] = self.ra
        out[nw + lay.track_dim:nw + d, -1] = self.za
        return out


def triangularize_y(assembly: YAssembly, stats: RotationStats | None = None,
                    keep_noise_rows: bool = False):
    """Propagate the belief one step and marginalize out the process noise.

    Works track by track on a local stack of the track's noise rows over its
    state rows.  First sweep zeroes the state rows' noise columns against the
    noise block's diagonal; second sweep restores triangularity of the state
    block.  The leading noise rows are then dropped (marginalization of the
    leading block of a triangular information array), and the registration
    rows pass through untouched.

    With ``keep_noise_rows=True`` returns ``(info, noise_rows)`` where
    ``noise_rows`` holds the triangularized leading rows in the column
    convention of ``YAssembly.stacked()``, letting tests verify that the
    orthogonal reduction preserved the full stack's Gram matrix.
    """
    lay = assembly.layout
    n, nx, ka, d = lay.n_tracks, lay.nx, lay.reg_dim, lay.dim
    reg0 = lay.track_dim
    nw = n * nx
    r_out = np.zeros((d, d))
    z_out = np.zeros(d)
    noise_rows = np.zeros((nw, nw + d + 1)) if keep_noise_rows else None

    if n:
        # One local stack per track, batched along axis 0.  Rotation (i, j)
        # of a sweep is independent across tracks, so each step rotates all
        # tracks at once; a track whose pivot entry is already zero gets the
        # identity, exactly like the skip in the scalar formulation.
        width = 2 * nx + ka + 1
        t = np.zeros((n, 2 * nx, width))
        t[:, :nx, :nx] = np.stack([np.asarray(b, dtype=float) for b in assembly.rw])
        t[:, :nx, -1] = np.stack([np.asarray(b, dtype=float).ravel()
                                  for b in assembly.zw])
        t[:, nx:, :nx] = np.stack([np.asarray(b, dtype=float)
                                   for b in assembly.rx_gd])
        t[:, nx:, nx:2 * nx] = np.stack([np.asarray(b, dtype=float)
                                         for b in assembly.rx_d])
        t[:, nx:, 2 * nx:2 * nx + ka] = assembly.rxa.reshape(n, nx, ka)
        t[:, nx:, -1] = assembly.zx.reshape(n, nx)

        def rotate_all(j, i):
            beta = t[:, i, j]
            active = beta != 0.0
            if not active.any():
                return
            alpha = t[:, j, j]
            hyp = np.hypot(alpha, beta)
            bad = active & (hyp == 0.0)
            if bad.any():
                raise DegenerateRotationError("cannot build a rotation from (0, 0)")
            safe = np.where(hyp == 0.0, 1.0, hyp)
            c = np.where(active, alpha / safe, 1.0)[:, None]
            s = np.where(active, beta / safe, 0.0)[:, None]
            top = t[:, j, j:]
            bot = t[:, i, j:]
            new_top = c * top + s * bot
            t[:, i, j:] = c * bot - s * top
            t[:, j, j:] = new_top
            t[:, i, j] = 0.0
            if stats is not None:
                stats.rotations += int(np.count_nonzero(active))
                stats.pair_ops += (width - j) * int(np.count_nonzero(active))

        # sweep 1: eliminate the state rows' noise columns
        for j in range(nx):
            for i in range(nx, 2 * nx):
                rotate_all(j, i)
        # sweep 2: restore triangularity of the state block
        for j in range(nx, 2 * nx):
            for i in range(j + 1, 2 * nx):
                rotate_all(j, i)

        state_rows = t[:, nx:, :]
        for b in range(n):
            blk = lay.track_block(b)
            r_out[blk, blk] = state_rows[b, :, nx:2 * nx]
            r_out[blk, reg0:] = state_rows[b, :, 2 * nx:2 * nx + ka]
            z_out[blk] = state_rows[b, :, -1]
            if keep_noise_rows:
                ws = slice(b * nx, (b + 1) * nx)
                noise_rows[ws, ws] = t[b, :nx, :nx]
                noise_rows[ws, nw + blk.start:nw + blk.stop] = t[b, :nx, nx:2 * nx]
                noise_rows[ws, nw + reg0:nw + d] = t[b, :nx, 2 * nx:2 * nx + ka]
                noise_rows[ws, -1] = t[b, :nx, -1]

    r_out[reg0:, reg0:] = assembly.ra
    z_out[reg0:] = assembly.za
    info = SquareRootInfo(r_out, z_out, lay)
    if keep_noise_rows:
        return info, noise_rows
    return info


# ======================================================================
# solves and dense factorization
# ======================================================================

@dataclass
class BackSubstitution:
    """Solved estimate with per-block covariances."""

    estimate: np.ndarray
    track_covariances: list
    registration_covariance: np.ndarray | None


def back_substitute(info: SquareRootInfo, with_covariance: bool = True) -> BackSubstitution:
    """Solve means and blockwise covariances by structured back substitution.

    Registration first: a = Ra^{-1} za, Pa = Ra^{-1} Ra^{-T}.  Each track is
    then independent given the registration:
        x_b = Rb^{-1} (zb - Rba a)
        Pb  = Rb^{-1} Rb^{-T} + (Rb^{-1} Rba) Pa (Rb^{-1} Rba)^T
    which costs O(n) for fixed block sizes plus one small registration solve.
    Without a layout the whole array is treated as a single block.
    """
    r, z, lay = info.r, info.z, info.layout
    _check_diag(r, lay)
    if lay is None:
        est = solve_triangular(r, z)
        if not with_covariance:
            return BackSubstitution(est, [], None)
        rinv = solve_triangular(r, np.eye(r.shape[0]))
        return BackSubstitution(est, [], rinv @ rinv.T)

    est = np.empty(lay.dim)
    reg = lay.reg_slice()
    ka = lay.reg_dim
    pa = None
    if ka:
        ra = r[reg, reg]
        a_hat = solve_triangular(ra, z[reg])
        est[reg] = a_hat
        if with_covariance:
            ra_inv = solve_triangular(ra, np.eye(ka))
            pa = ra_inv @ ra_inv.T
    else:
        a_hat = np.zeros(0)

    track_covs = []
    eye = np.eye(lay.nx)
    for b in range(lay.n_tracks):
        blk = lay.track_block(b)
        rb = r[blk, blk]
        rba = r[blk, reg]
        est[blk] = solve_triangular(rb, z[blk] - rba @ a_hat)
        if with_covariance:
            rb_inv = solve_triangular(rb, eye)
            pb = rb_inv @ rb_inv.T
            if ka:
                coup = rb_inv @ rba
                pb = pb + coup @ pa @ coup.T
            track_covs.append(pb)
    return BackSubstitution(est, track_covs, pa)


def dense_qr(stacked: np.ndarray) -> np.ndarray:
    """Upper-triangular U with U^T U = M^T M, diagonal normalized >= 0.

    Thin wrapper over Householder QR; the row-sign normalization makes the
    factor unique for full-rank inputs, so an already-triangular M with a
    positive diagonal comes back unchanged.
    """
    stacked = np.asarray(stacked, dtype=float)
    if not np.all(np.isfinite(stacked)):
        raise AssemblyError("non-finite entries in stacked matrix")
    u = np.linalg.qr(stacked, mode="r")
    k = min(u.shape)
    signs = np.ones(u.shape[0])
    diag = np.sign(np.diag(u)[:k])
    diag[diag == 0.0] = 1.0
    signs[:k] = diag
    return signs[:, None] * u


def format_info_dump(info: SquareRootInfo) -> str:
    """Plain-text dump (row-major, %.17g) for cross-checking against oracles."""
    lines = [f"dim {info.dim}"]
    lines.append("R")
    for row in info.r:
        lines.append(" ".join(format(v, ".17g") for v in row))
    lines.append("z")
    lines.append(" ".join(format(v, ".17g") for v in info.z))
    return "\n".join(lines) + "\n"
