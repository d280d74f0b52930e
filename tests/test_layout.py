"""Column bookkeeping for the joint state."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtr.layout import JointLayout


def test_dimensions():
    lay = JointLayout((3, 7, 9), 2)
    assert lay.n_tracks == 3
    assert lay.track_dim == 12
    assert lay.reg_dim == 6
    assert lay.dim == 18


def test_slices_and_ordinals():
    lay = JointLayout((3, 7), 2)
    assert lay.track_ordinal(7) == 1
    assert lay.track_block(1) == slice(4, 8)
    assert lay.track_slice(7) == slice(4, 8)
    assert lay.sensor_slice(1) == slice(11, 14)
    assert lay.reg_slice() == slice(8, 14)


def test_unknown_track_rejected():
    lay = JointLayout((3,), 1)
    with pytest.raises(KeyError):
        lay.track_ordinal(4)


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        JointLayout((1, 1), 1)


def test_remove_and_prepend():
    lay = JointLayout((3, 7, 9), 2)
    smaller = lay.with_tracks_removed((7,))
    assert smaller.track_ids == (3, 9)
    assert smaller.dim == 14
    bigger = smaller.with_tracks_prepended((11,))
    assert bigger.track_ids == (11, 3, 9)
    assert bigger.track_block(0) == slice(0, 4)


def test_empty_layout():
    lay = JointLayout((), 1)
    assert lay.dim == 3
    assert lay.track_dim == 0


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(st.integers(-50, 50), unique=True, max_size=30),
       data=st.data())
def test_ordinal_lookup_matches_index(ids, data):
    """The id -> ordinal map agrees with ``track_ids.index`` on every layout,
    also after removing and prepending tracks, and rejects unknown ids."""
    lay = JointLayout(tuple(ids), 1)
    removed = data.draw(st.lists(st.sampled_from(ids), unique=True)
                        if ids else st.just([]))
    lay = lay.with_tracks_removed(removed)
    fresh = data.draw(st.lists(st.integers(51, 80), unique=True, max_size=10))
    for layout in (lay, lay.with_tracks_prepended(fresh)):
        for tid in layout.track_ids:
            assert layout.track_ordinal(tid) == layout.track_ids.index(tid)
            assert layout.track_slice(tid) == layout.track_block(
                layout.track_ids.index(tid))
        for tid in set(range(-50, 81)) - set(layout.track_ids):
            with pytest.raises(KeyError, match="not in layout"):
                layout.track_ordinal(tid)
