"""Span tracer that wraps jtr's public functions where the tracking loop looks them up.

A hook replaces one attribute of a module or class with a wrapper for as long
as the tracer is installed, and restores the original on exit.  Each call to a
span hook records (name, start, end, parent) in memory; count hooks only count
calls, for functions so small and frequent that a span would mostly measure the
tracer.  A layer's self time is its span minus its direct child spans.  The
wrapped layers never call themselves, so summing a layer's spans does not count
any interval twice.
"""

import importlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

MIB = 2.0 ** 20


@dataclass(frozen=True)
class Hook:
    """One wrapped name.

    layer: metric prefix, named after the module that defines the function.
    owner: module (``jtr.simkit``) or class (``jtr.simkit:FmapRunner``) whose
        attribute is replaced; the name is wrapped where callers look it up.
    kinds: metric suffixes derived from this hook, see ``KIND_UNITS``.
    spans: False for count-only hooks.
    stats: pass a ``RotationStats`` through the function's ``stats`` argument.
    """

    layer: str
    owner: str
    attr: str
    kinds: tuple
    spans: bool = True
    stats: bool = False


HOOKS = (
    Hook("simkit.generate_scenario", "jtr.simkit", "generate_scenario", ("ms",)),
    Hook("simkit.synthesize_measurements", "jtr.simkit", "synthesize_measurements",
         ("ms",)),
    Hook("simkit.run_tracker", "jtr.simkit", "run_tracker", ("self_ms_per_epoch",)),
    Hook("simkit.associate", "jtr.simkit", "associate",
         ("calls_per_epoch", "ms_per_epoch")),
    Hook("simkit.FmapRunner.track", "jtr.simkit:FmapRunner", "track",
         ("calls_per_epoch",)),
    Hook("simkit.FmapRunner.registration", "jtr.simkit:FmapRunner", "registration",
         ("calls_per_epoch",)),
    # FmapRunner looks the filter operations up in simkit's namespace.
    Hook("joint_filter.measurement_update", "jtr.simkit", "measurement_update",
         ("self_ms_per_epoch",)),
    Hook("joint_filter.check_and_reset_registration", "jtr.simkit",
         "check_and_reset_registration", ("ms_per_epoch", "resets")),
    Hook("joint_filter.reshape_state", "jtr.simkit", "reshape_state",
         ("calls", "ms_per_epoch")),
    Hook("joint_filter.time_propagate", "jtr.simkit", "time_propagate",
         ("self_ms_per_epoch",)),
    Hook("joint_filter.solve_estimates", "jtr.joint_filter", "solve_estimates",
         ("calls_per_epoch", "ms_per_epoch")),
    Hook("joint_filter.build_measurement_rows", "jtr.joint_filter",
         "build_measurement_rows", ("ms_per_epoch", "rows_per_epoch", "cx_mb")),
    Hook("info_array.back_substitute", "jtr.joint_filter", "back_substitute",
         ("ms_per_epoch",)),
    Hook("info_array.solve_triangular", "jtr.info_array", "solve_triangular",
         ("calls_per_epoch",), spans=False),
    Hook("info_array.XAssembly", "jtr.joint_filter", "XAssembly", ("ms_per_epoch",)),
    Hook("info_array.triangularize_x", "jtr.joint_filter", "triangularize_x",
         ("ms_per_epoch", "rotations_per_epoch"), stats=True),
    Hook("info_array.triangularize_y", "jtr.joint_filter", "triangularize_y",
         ("ms_per_epoch", "rotations_per_epoch"), stats=True),
    Hook("info_array.dense_qr", "jtr.info_array", "dense_qr", ("ms_per_epoch",)),
    Hook("models.jacobians", "jtr.joint_filter", "jacobians",
         ("calls_per_epoch", "ms_per_epoch")),
    Hook("models.measurement_vector", "jtr.joint_filter", "measurement_vector",
         ("ms_per_epoch",)),
    Hook("layout.track_ordinal", "jtr.layout:JointLayout", "track_ordinal",
         ("calls_per_epoch",), spans=False),
)

# Set-up runs before the tracking loop, so its hooks get a tracer of their own.
SETUP_HOOKS = tuple(h for h in HOOKS if h.kinds == ("ms",))
LOOP_HOOKS = tuple(h for h in HOOKS if h.kinds != ("ms",))

KIND_UNITS = {
    "ms": "ms",                         # summed over the run's set-up
    "calls": "count",
    "calls_per_epoch": "calls/epoch",
    "ms_per_epoch": "ms",               # inclusive span time per epoch
    "self_ms_per_epoch": "ms",
    "rows_per_epoch": "rows/epoch",     # whitened measurement rows
    "cx_mb": "MiB",                     # largest computed m x 4n cx
    "resets": "count",
    "rotations_per_epoch": "rotations/epoch",
}

# Per-layer metrics the worker measures outside the hooks.
OTHER_UNITS = {
    "simkit.oracle_gap": "rel",
    "info_array.r_mb": "MiB",
    "baselines.dense.run_s": "s",
    "baselines.sep.run_s": "s",
    "joint_filter.step_ms.n300": "ms",
    "joint_filter.step_ms.n1000": "ms",
    "joint_filter.step_slope": "1",
    "trace.overhead_ms_per_epoch": "ms",
}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, hook metrics first."""
    units = {f"{h.layer}.{k}": KIND_UNITS[k] for h in HOOKS for k in h.kinds}
    units.update(OTHER_UNITS)
    return units


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError as exc:
        raise LookupError(f"cannot import {module}: {exc}") from None
    if cls:
        if not hasattr(obj, cls):
            raise LookupError(f"{module} has no attribute {cls}")
        obj = getattr(obj, cls)
    return obj


class Tracer:
    """Installs the hooks on enter and restores the originals on exit.

    Spans accumulate across installations until the tracer is discarded.
    """

    def __init__(self, hooks):
        self.hooks = tuple(hooks)
        self.missing = {}           # layer -> reason its hook could not be set
        self.name, self.start, self.end, self.parent = [], [], [], []
        self.stack = [-1]
        self.counts = np.zeros(len(self.hooks), dtype=np.int64)
        self.rows = 0
        self.cx_bytes = 0
        self.resets = 0
        self.stats = {}             # hook index -> RotationStats
        self._saved = []

    def __enter__(self):
        for hid, hook in enumerate(self.hooks):
            try:
                owner = _resolve(hook.owner)
            except LookupError as exc:
                self.missing[hook.layer] = str(exc)
                continue
            if not hasattr(owner, hook.attr):
                self.missing[hook.layer] = f"{hook.owner} has no attribute {hook.attr}"
                continue
            fn = getattr(owner, hook.attr)
            self._saved.append((owner, hook.attr, fn))
            setattr(owner, hook.attr, self._wrap(hid, hook, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def _rotation_stats(self, hid, hook):
        if hid not in self.stats:
            try:
                from jtr.info_array import RotationStats
            except ImportError as exc:
                self.missing[f"{hook.layer}.rotations_per_epoch"] = str(exc)
                self.stats[hid] = None
            else:
                self.stats[hid] = RotationStats()
        return self.stats[hid]

    def _wrap(self, hid, hook, fn):
        stats = self._rotation_stats(hid, hook) if hook.stats else None
        observe = {
            "joint_filter.build_measurement_rows": self._observe_rows,
            "joint_filter.check_and_reset_registration": self._observe_reset,
        }.get(hook.layer)
        counts = self.counts

        if not hook.spans:
            def counted(*args, **kwargs):
                counts[hid] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            if stats is not None and "stats" not in kwargs:
                kwargs["stats"] = stats
            i = len(self.start)
            self.name.append(hid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(out)
            return out
        return traced

    def _observe_rows(self, out):
        cx, _, _, m = out
        self.rows += int(m)
        self.cx_bytes = max(self.cx_bytes, int(cx.nbytes))

    def _observe_reset(self, out):
        self.resets += int(bool(out[1]))

    def span_arrays(self) -> dict:
        """Spans as flat arrays, for writing out once the run ends."""
        return {
            "names": np.array([h.layer for h in self.hooks]),
            "name": np.asarray(self.name, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }

    def metrics(self, epochs: int):
        """(values, missing) of every metric of this tracer's hooks.

        ``epochs`` normalizes the per-epoch metrics; "ms" metrics are totals.
        A metric whose hook could not be installed is missing, never zero.
        """
        hid = np.asarray(self.name, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        n = len(self.hooks)
        child = np.zeros(dur.size)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        calls = np.bincount(hid, minlength=n) + self.counts
        incl = np.bincount(hid, weights=dur, minlength=n)
        own = np.bincount(hid, weights=dur - child, minlength=n)

        values, missing = {}, {}
        for i, hook in enumerate(self.hooks):
            for kind in hook.kinds:
                name = f"{hook.layer}.{kind}"
                reason = self.missing.get(hook.layer) or self.missing.get(name)
                if reason:
                    missing[name] = reason
                    continue
                if kind == "rotations_per_epoch":
                    value = self.stats[i].rotations / epochs
                else:
                    value = {
                        "ms": incl[i] * 1e3,
                        "calls": calls[i],
                        "calls_per_epoch": calls[i] / epochs,
                        "ms_per_epoch": incl[i] * 1e3 / epochs,
                        "self_ms_per_epoch": own[i] * 1e3 / epochs,
                        "rows_per_epoch": self.rows / epochs,
                        "cx_mb": self.cx_bytes / MIB,
                        "resets": self.resets,
                    }[kind]
                values[name] = float(value)
        return values, missing
