"""Joint multi-sensor target tracking and sensor registration.

The package keeps the joint density of all track states and all sensor
registration biases as a single square-root information array and exploits
its block sparsity so that one filter cycle costs O(n + m) for n tracks and
m measurement rows, against O(n^3) for the equivalent dense filter.
"""

__version__ = "0.1.0"

from .layout import JointLayout, TRACK_DIM, REG_DIM
from .info_array import (
    SquareRootInfo,
    XAssembly,
    YAssembly,
    triangularize_x,
    triangularize_y,
    back_substitute,
    dense_qr,
)
from .models import (
    TrackState,
    Registration,
    Measurement,
    CVModel,
    predict_measurement,
    jacobians,
    wrap_angle,
)
from .joint_filter import (
    FmapConfig,
    SensorPrior,
    FilterState,
    initialize,
    measurement_update,
    check_and_reset_registration,
    reset_registration,
    time_propagate,
    reshape_state,
    solve_estimates,
    save_state,
    load_state,
)
from .baselines import DenseState, SepFilter, dense_initialize

__all__ = [
    "JointLayout", "TRACK_DIM", "REG_DIM",
    "SquareRootInfo", "XAssembly", "YAssembly",
    "triangularize_x", "triangularize_y", "back_substitute", "dense_qr",
    "TrackState", "Registration", "Measurement", "CVModel",
    "predict_measurement", "jacobians", "wrap_angle",
    "FmapConfig", "SensorPrior", "FilterState", "initialize",
    "measurement_update", "check_and_reset_registration", "reset_registration",
    "time_propagate", "reshape_state", "solve_estimates",
    "save_state", "load_state",
    "DenseState", "SepFilter", "dense_initialize",
]
