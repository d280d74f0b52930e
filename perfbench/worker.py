"""One benchmark worker: a fresh, single-threaded process per measurement.

Modes:
  setup  import jtr and build the workload's inputs, then report the set-up time;
  run    set up, replay the inputs closed-loop through the fmap tracker for
         --seconds, read peak RSS, then check every input against the dense
         oracle;
  trace  set up under the tracer, run one untraced and one traced pass over the
         first input, check it, time the baselines and the scaling benchmark.

The worker prints one JSON object as the last line of its standard output.
Run it through run.py, which starts workers one at a time.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these once, when numpy and scipy load their libraries.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import LOOP_HOOKS, MIB, SETUP_HOOKS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# fmap and the dense oracle linearize at their own estimates, so their gap
# grows with the run; 1e-12..1e-9 is typical, and a registration reset, which
# refactorizes through cholesky(inv(cov)), has reached 1.2e-6.
ORACLE_TOL = 1e-5

# Scaling sizes of the traced run: where the quadratic terms show.
SCALING_N = (300, 1000)


class CheckFailed(Exception):
    """An output or bookkeeping check failed; the run is not correct."""


def manifest(load_start) -> dict:
    """What shaped the numbers: versions, BLAS libraries, threads, CPUs, load."""
    import scipy
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) >= 6 and re.search(r"blas|lapack|mkl", parts[5], re.I):
                libs.add(parts[5])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_libraries": sorted(libs),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def setup(workload, seed: int):
    """Import jtr and build every input of the run: [(scenario, detections)]."""
    from jtr import simkit
    if not Path(simkit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise CheckFailed(f"jtr imported from {simkit.__file__}, not this checkout")
    with open(ROOT / "src" / "jtr" / "configs" / workload.config) as fh:
        raw = json.load(fh)
    raw.update(workload.overrides)
    cfg = simkit.config_from_dict(raw)
    truth = simkit.generate_scenario(cfg)
    inputs = []
    for noise_seed in workload.noise_seeds(seed):
        scenario = dataclasses.replace(
            truth, config=dataclasses.replace(cfg, seed=noise_seed))
        inputs.append((scenario, simkit.synthesize_measurements(scenario)))
    return simkit, inputs


class EpochClock:
    """Detections sequence that timestamps each ``detections[e]`` access.

    run_tracker reads ``detections[e]`` once at the start of epoch e, so the
    stamps are the epoch boundaries, observed at O(1) cost per epoch.
    """

    def __init__(self, frames):
        self.frames = frames
        self.index = []
        self.stamps = []

    def __len__(self):
        return len(self.frames)

    def __getitem__(self, e):
        self.stamps.append(time.perf_counter())
        self.index.append(e)
        return self.frames[e]


class NumericalFailure(Exception):
    """A numerical exception stopped a pass; ``attempted`` counts its epochs."""

    def __init__(self, attempted, exc):
        super().__init__(f"epoch {attempted - 1}: {type(exc).__name__}: {exc}")
        self.attempted = attempted


def numerical_errors():
    """The exceptions that fail an epoch; jtr is importable once set-up ran."""
    from jtr.info_array import DegenerateRotationError, SingularBlockError
    return (SingularBlockError, DegenerateRotationError, np.linalg.LinAlgError)


def run_pass(simkit, scenario, frames):
    """(result, epoch seconds, pass seconds) of one fmap pass over one input."""
    clock = EpochClock(frames)
    t0 = time.perf_counter()
    try:
        result = simkit.run_tracker(scenario, "fmap", clock)
    except numerical_errors() as exc:
        raise NumericalFailure(len(clock.index), exc) from exc
    t1 = time.perf_counter()
    if clock.index != list(range(scenario.n_epochs)):
        raise CheckFailed(f"observed epochs {len(clock.index)} do not match "
                          f"scenario.n_epochs {scenario.n_epochs}")
    return result, np.diff(clock.stamps + [t1]), t1 - t0


def compare_runs(fmap, oracle, tol: float):
    """(worst relative gap, reason or None) between two RunResults.

    Track-id sets and reset epochs must match exactly; every track and
    registration estimate must be within ``tol`` of the oracle's, relative to
    max(|oracle|, 1).
    """
    if len(fmap.records) != len(oracle.records):
        return float("inf"), "epoch counts differ"
    worst = 0.0
    for e, (a, b) in enumerate(zip(fmap.records, oracle.records)):
        if [row[0] for row in a.track_rows] != [row[0] for row in b.track_rows]:
            return float("inf"), f"epoch {e}: track ids differ"
        if a.fired != b.fired:
            return float("inf"), f"epoch {e}: reset decisions differ"
        for x, y in zip(a.track_rows + a.reg_rows, b.track_rows + b.reg_rows):
            gap = float(np.linalg.norm(x[1] - y[1])) / max(float(np.linalg.norm(y[1])), 1.0)
            worst = max(worst, gap)
    if worst > tol:
        return worst, f"estimate gap {worst:.3g} above tolerance {tol:g}"
    return worst, None


def closed_loop(simkit, inputs, seconds: float) -> dict:
    """Replay rounds of every input as fast as possible for about ``seconds``.

    A round is one pass over each input; rounds continue while the next one
    is expected to end within ``seconds``, and at least one round runs.
    Returns the epoch samples, loop and simulated seconds, and the first
    round's results.  Later rounds must reproduce the first exactly.
    """
    epoch_s, first = [], []
    loop_s = simulated_s = 0.0
    attempted = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, (scenario, frames) in enumerate(inputs):
            try:
                result, ep, wall = run_pass(simkit, scenario, frames)
            except NumericalFailure as exc:
                exc.attempted += attempted
                raise
            attempted += scenario.n_epochs
            epoch_s.extend(ep.tolist())
            loop_s += wall
            simulated_s += scenario.n_epochs * scenario.config.dt
            if len(first) == i:
                first.append(result)
            else:
                _, why = compare_runs(result, first[i], 0.0)
                if why:
                    raise CheckFailed(f"input {i} did not repeat: {why}")
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return {"epoch_s": epoch_s, "loop_s": loop_s, "simulated_s": simulated_s,
            "first": first}


def check_all(simkit, inputs, results):
    """(worst gap, failures) of every input's fmap result against dense."""
    worst, failures = 0.0, []
    for i, ((scenario, frames), result) in enumerate(zip(inputs, results)):
        oracle = simkit.run_tracker(scenario, "dense", frames)
        gap, why = compare_runs(result, oracle, ORACLE_TOL)
        worst = max(worst, gap)
        if why:
            failures.append(f"input {i}: {why}")
    return worst, failures


def mode_run(args, t_spawn, load_start) -> dict:
    simkit, inputs = setup(WORKLOADS[args.workload], args.seed)
    setup_s = time.monotonic() - t_spawn
    out = {"setup_s": setup_s, "attempted": 0, "failed": 0, "failures": []}
    try:
        loop = closed_loop(simkit, inputs, args.seconds)
    except NumericalFailure as exc:
        out.update(attempted=exc.attempted, failed=exc.attempted, failures=[str(exc)])
        out["manifest"] = manifest(load_start)
        return out
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gap, failures = check_all(simkit, inputs, loop["first"])
    out.update(
        epoch_s=loop["epoch_s"], loop_s=loop["loop_s"],
        simulated_s=loop["simulated_s"], attempted=len(loop["epoch_s"]),
        failed=len(loop["epoch_s"]) if failures else 0,
        failures=failures, oracle_gap=gap, oracle_tol=ORACLE_TOL,
        manifest=manifest(load_start))
    return out


def mode_trace(args, load_start) -> dict:
    setup_tracer, loop_tracer = Tracer(SETUP_HOOKS), Tracer(LOOP_HOOKS)
    with setup_tracer:
        simkit, inputs = setup(WORKLOADS[args.workload], args.seed)
    scenario, frames = inputs[0]
    epochs = scenario.n_epochs
    out = {"attempted": epochs, "failed": 0, "failures": []}
    try:
        _, _, untraced_s = run_pass(simkit, scenario, frames)
        with loop_tracer:
            result, _, traced_s = run_pass(simkit, scenario, frames)
    except NumericalFailure as exc:
        out.update(failed=epochs, failures=[str(exc)], manifest=manifest(load_start))
        return out

    values, missing = setup_tracer.metrics(1)
    loop_values, loop_missing = loop_tracer.metrics(epochs)
    values.update(loop_values)
    missing.update(loop_missing)
    values["trace.overhead_ms_per_epoch"] = (traced_s - untraced_s) * 1e3 / epochs
    try:
        values["info_array.r_mb"] = result.final_info.layout.dim ** 2 * 8 / MIB
    except AttributeError as exc:
        missing["info_array.r_mb"] = str(exc)

    t0 = time.perf_counter()
    oracle = simkit.run_tracker(scenario, "dense", frames)
    values["baselines.dense.run_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    simkit.run_tracker(scenario, "sep", frames)
    values["baselines.sep.run_s"] = time.perf_counter() - t0
    gap, why = compare_runs(result, oracle, ORACLE_TOL)
    values["simkit.oracle_gap"] = gap
    if why:
        out.update(failed=epochs, failures=[why])

    _, medians, slopes = simkit.benchmark(list(SCALING_N), algos=("fmap",),
                                          seed=args.seed)
    for n in SCALING_N:
        values[f"joint_filter.step_ms.n{n}"] = medians["fmap"][n] * 1e3
    values["joint_filter.step_slope"] = slopes["fmap"]

    if args.spans:
        np.savez_compressed(args.spans, **{
            f"{part}_{key}": arr
            for part, tr in (("setup", setup_tracer), ("loop", loop_tracer))
            for key, arr in tr.span_arrays().items()})
    out.update(values=values, missing=missing, oracle_tol=ORACLE_TOL,
               untraced_s=untraced_s, traced_s=traced_s,
               manifest=manifest(load_start))
    return out


def main(argv=None) -> int:
    t_parse = time.monotonic()
    load_start = os.getloadavg()
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--spawned-at", type=float, default=None,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--spans", default=None, help="where the trace mode writes spans")
    args = p.parse_args(argv)
    t_spawn = args.spawned_at if args.spawned_at is not None else t_parse

    try:
        if args.mode == "setup":
            setup(WORKLOADS[args.workload], args.seed)
            out = {"setup_s": time.monotonic() - t_spawn}
        else:
            out = mode_run(args, t_spawn, load_start) if args.mode == "run" \
                else mode_trace(args, load_start)
    except CheckFailed as exc:
        out = {"attempted": 1, "failed": 1, "failures": [str(exc)]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
