"""Column bookkeeping for the stacked joint state vector.

The joint state stacks one block of track states per tracked target followed
by one block of registration parameters per sensor.  Track blocks always come
first, in the order given by ``track_ids``; registration blocks always trail
every track block.  All kernel routines rely on this ordering.
"""

from dataclasses import dataclass
from functools import cached_property

# Default block widths for the 2-D constant-velocity / range-bearing problem.
TRACK_DIM = 4  # (xi, v_xi, eta, v_eta)
REG_DIM = 3    # (xi0, eta0, psi0)


@dataclass(frozen=True)
class JointLayout:
    """Maps track ids and sensor indices to column ranges of the joint state.

    Args:
        track_ids: ordered tuple of integer track identifiers.
        k: number of sensors carrying registration blocks (k >= 0; the
            filter requires k >= 1 but the kernel is happy with bare tracks).
        nx: state dimension per track.
        na: registration dimension per sensor.
    """

    track_ids: tuple = ()
    k: int = 0
    nx: int = TRACK_DIM
    na: int = REG_DIM

    def __post_init__(self):
        if len(set(self.track_ids)) != len(self.track_ids):
            raise ValueError("duplicate track ids in layout")
        if self.k < 0 or self.nx < 1 or self.na < 0:
            raise ValueError("bad layout dimensions")

    @property
    def n_tracks(self) -> int:
        return len(self.track_ids)

    @property
    def track_dim(self) -> int:
        """Total number of track columns."""
        return self.n_tracks * self.nx

    @property
    def reg_dim(self) -> int:
        """Total number of registration columns."""
        return self.k * self.na

    @property
    def dim(self) -> int:
        return self.track_dim + self.reg_dim

    @cached_property
    def ordinals(self) -> dict:
        """Track id -> position in ``track_ids``, built once per layout."""
        return {tid: b for b, tid in enumerate(self.track_ids)}

    def track_ordinal(self, track_id) -> int:
        try:
            return self.ordinals[track_id]
        except (KeyError, TypeError):
            raise KeyError(f"track id {track_id!r} not in layout") from None

    def track_block(self, ordinal: int) -> slice:
        """Column slice of the track block at position ``ordinal``."""
        if not 0 <= ordinal < self.n_tracks:
            raise IndexError(f"track ordinal {ordinal} out of range")
        return slice(ordinal * self.nx, (ordinal + 1) * self.nx)

    def track_slice(self, track_id) -> slice:
        return self.track_block(self.track_ordinal(track_id))

    def sensor_slice(self, sensor: int) -> slice:
        """Column slice of sensor ``sensor``'s registration block."""
        if not 0 <= sensor < self.k:
            raise IndexError(f"sensor index {sensor} out of range")
        start = self.track_dim + sensor * self.na
        return slice(start, start + self.na)

    def reg_slice(self) -> slice:
        """Column slice covering every registration block."""
        return slice(self.track_dim, self.dim)

    def with_tracks_removed(self, ids) -> "JointLayout":
        ids = set(ids)
        missing = ids - set(self.track_ids)
        if missing:
            raise KeyError(f"cannot remove unknown track ids {sorted(missing)}")
        kept = tuple(t for t in self.track_ids if t not in ids)
        return JointLayout(kept, self.k, self.nx, self.na)

    def kept_columns(self, kept: "JointLayout") -> list:
        """This layout's columns, in order, that carry the blocks of ``kept``
        (this layout with some tracks removed)."""
        cols = []
        for t in kept.track_ids:
            sl = self.track_slice(t)
            cols.extend(range(sl.start, sl.stop))
        return cols + list(range(self.track_dim, self.dim))

    def with_tracks_prepended(self, ids) -> "JointLayout":
        ids = tuple(ids)
        clash = set(ids) & set(self.track_ids)
        if clash:
            raise ValueError(f"track ids already present: {sorted(clash)}")
        return JointLayout(ids + self.track_ids, self.k, self.nx, self.na)
