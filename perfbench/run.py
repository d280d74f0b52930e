"""jtr's benchmark: end-to-end epoch latency of the fmap tracking loop.

    python3 perfbench/run.py --workload step10 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Load model: closed loop, one client.  One single-threaded worker process at a
time replays pre-generated detection frames through ``simkit.run_tracker`` as
fast as it can; a deployment receives one frame per dt (100 ms), and
``realtime_factor`` says whether the loop keeps up with that rate.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time (the
median over SETUP_REPEATS fresh workers), epoch latency median and tail, the
real-time factor and peak RSS.  With ``--trace 1`` it reports per-layer metrics
from a traced pass.  Both check fmap's outputs against the dense oracle.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a human-readable table precedes it and the full
record, environment manifest included, is written under .perfbench_out/.
Exit codes: 0 correct, 1 output check failed, 2 not a jtr checkout or bad
arguments, 3 a worker crashed or ran out of time.  Self-tests:
python3 -m pytest perfbench
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import per_layer_units
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

E2E_UNITS = {
    "setup_s": "s",
    "epoch_ms_p50": "ms",
    "epoch_ms_tail": "ms",
    "realtime_factor": "x",
    "peak_rss_mb": "MiB",
}

SETUP_REPEATS = 3        # fresh workers timed for set-up, the main one included
TAIL_BEYOND = 10         # samples the tail percentile must leave beyond it
DEADLINE_S = 170.0       # per workload; the caller allows 180


class WorkerError(Exception):
    """A worker crashed, printed no result or ran past the deadline."""


def tail(samples):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond.

    Nearest rank: of N sorted samples, the value at 0-based rank N-11 has ten
    above it and is the 100*(N-10)/N-th percentile.  None below 11 samples.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def end_to_end(setup_samples, result) -> dict:
    """End-to-end metric values from the set-up samples and the main worker."""
    epoch_ms = [s * 1e3 for s in result.get("epoch_s", ())]
    values = {}
    if setup_samples:
        values["setup_s"] = statistics.median(setup_samples)
    if epoch_ms:
        values["epoch_ms_p50"] = statistics.median(epoch_ms)
        values["realtime_factor"] = result["simulated_s"] / result["loop_s"]
    if len(epoch_ms) > TAIL_BEYOND:
        values["epoch_ms_tail"] = tail(epoch_ms)[1]
    if "peak_rss_mb" in result:
        values["peak_rss_mb"] = result["peak_rss_mb"]
    return {k: values[k] for k in E2E_UNITS if k in values}


def spawn(mode, workload, seed, seconds, deadline, spans=None) -> dict:
    """Run one fresh worker to completion and return its JSON result."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--mode", mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--spawned-at", repr(time.monotonic())]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0),
                              text=True)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker for {workload} ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker for {workload} exited with "
                          f"{proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace) -> dict:
    """One workload's record: metrics, counts, failures and the manifest."""
    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        res = spawn("trace", workload, seed, seconds, deadline,
                    spans=OUT_DIR / f"spans-{workload}-seed{seed}.npz")
        units = per_layer_units()
        values = res.get("values", {})
        metrics = {k: values[k] for k in units if k in values}
        extra = {"missing": res.get("missing", {}),
                 "untraced_s": res.get("untraced_s"), "traced_s": res.get("traced_s")}
    else:
        samples = [spawn("setup", workload, seed, seconds, deadline).get("setup_s")
                   for _ in range(SETUP_REPEATS - 1)]
        res = spawn("run", workload, seed, seconds, deadline)
        samples.append(res.get("setup_s"))
        setup_samples = [s for s in samples if s is not None]
        units = E2E_UNITS
        metrics = end_to_end(setup_samples, res)
        epoch_ms = [s * 1e3 for s in res.get("epoch_s", ())]
        extra = {"setup_samples_s": setup_samples,
                 "tail_percentile": (tail(epoch_ms) or (None,))[0],
                 "epoch_samples": len(epoch_ms), "epoch_ms": epoch_ms,
                 "oracle_gap": res.get("oracle_gap")}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not res["failures"], "attempted": res["attempted"],
        "failed": res["failed"], "failures": res["failures"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "oracle_tol": res.get("oracle_tol"), **extra,
        "manifest": dict(res.get("manifest", {}), controller_loadavg_start=list(load_start),
                         controller_loadavg_end=list(os.getloadavg())),
    }


def report(rec) -> None:
    """Human-readable lines for one workload's record."""
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"correct={rec['correct']} attempted={rec['attempted']} "
          f"failed={rec['failed']} "
          f"failed_frac={rec['failed'] / max(rec['attempted'], 1):g}")
    for name, m in rec["metrics"].items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    if rec.get("tail_percentile") is not None:
        print(f"  epoch_ms_tail is p{rec['tail_percentile']:.2f} "
              f"of {rec['epoch_samples']} epochs")
    for name, why in rec.get("missing", {}).items():
        print(f"  MISSING {name}: {why}")
    for why in rec["failures"]:
        print(f"  FAILED {why}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   help=f"one of {', '.join(WORKLOADS)}, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "jtr" / "simkit.py").is_file():
        print(f"error: {ROOT} holds no jtr source tree (src/jtr)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    records = []
    for name in names:
        try:
            rec = measure(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(rec, indent=1) + "\n")
        report(rec)
        records.append(rec)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records
                   for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
