"""Command-line front end: simulate, benchmark, replay and compare.

Every command writes its outputs under an explicit directory and drops a
manifest.json there before exiting, so a finished (or crashed) run is always
attributable to a command line, a seed and a build. Exit codes are CI-ready:
0 success, 2 configuration problems, 3 numerical failures.

All angles cross this boundary in degrees; conversion to radians happens in
the config parser and the CSV writers, never in the filter code.
"""

import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .info_array import (DegenerateRotationError, SingularBlockError,
                         format_info_dump)
from .simkit import (BENCHMARK_BLAS_THREADS, ConfigError, benchmark,
                     fit_loglog, generate_scenario, load_config, metrics,
                     read_replay, run_replay, run_tracker,
                     write_registration_csv, write_timing_csv, write_tracks_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

ALGOS = ("fmap", "sep", "dense")


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Provenance record written to <out>/manifest.json on every run."""

    command: str
    config_path: str
    seed: int
    build: str
    out_dir: str
    wall_time_s: float


def _git_describe() -> str:
    """Build identifier from git; "unknown" outside a checkout."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _resolve_seed(config_seed: int, flag_seed) -> int:
    """Seed precedence: --seed flag, then JTR_SEED env, then the config."""
    if flag_seed is not None:
        return int(flag_seed)
    env = os.environ.get("JTR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"JTR_SEED must be an integer, got {env!r}")
    return int(config_seed)


def _write_manifest(out_dir, command, config_path, seed, t0, **extra) -> None:
    """Write the manifest; ``extra`` adds command-specific fields."""
    man = RunManifest(command=command, config_path=str(config_path),
                      seed=int(seed), build=_git_describe(),
                      out_dir=str(out_dir),
                      wall_time_s=time.perf_counter() - t0)
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump({**dataclasses.asdict(man), **extra}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def _dump_states(out_dir, results) -> None:
    for res in results:
        if res.final_info is not None:
            with open(Path(out_dir) / f"state_{res.algo}.txt", "w") as fh:
                fh.write(format_info_dump(res.final_info))


def _print_final_registration(results) -> None:
    for res in results:
        if not res.records:
            continue
        for sid, err in sorted(res.final_registration_errors().items()):
            print(f"{res.algo} sensor {sid} final |error|: "
                  f"xi0 {err[0]:.4f} m, eta0 {err[1]:.4f} m, "
                  f"psi0 {math.degrees(err[2]):.4f} deg")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg.seed, args.seed)
    cfg = dataclasses.replace(cfg, seed=seed)
    algos = ALGOS if args.algo == "all" else (args.algo,)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        scenario = generate_scenario(cfg)
        results = [run_tracker(scenario, a) for a in algos]
        write_tracks_csv(out / "tracks.csv", results)
        write_registration_csv(out / "registration.csv", results)
        if args.dump_state:
            _dump_states(out, results)
        _print_final_registration(results)
    finally:
        _write_manifest(out, "simulate", args.config, seed, t0)
    return EXIT_OK


def _parse_sizes(text: str) -> list:
    try:
        sizes = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"--n expects comma-separated integers, got {text!r}")
    if not sizes or any(n <= 0 for n in sizes):
        raise ConfigError("--n sizes must be positive integers")
    if sizes != sorted(sizes):
        raise ConfigError("--n sizes must be ascending")
    return sizes


def _benchmark_cell(task):
    n, algo, trials, seed = task
    rows, _, _ = benchmark([n], trials=trials, algos=(algo,), seed=seed)
    return rows


def _benchmark_parallel(n_list, trials, seed, jobs):
    """Farm independent (size, algorithm) cells out to worker processes.

    Trials inside a cell stay consecutive on one runner, so each cell's
    timings keep their meaning; only the sweep order is parallelized.
    Expect noisier numbers than the single-process default when workers
    share cores.
    """
    tasks = [(n, algo, trials, seed) for n in n_list for algo in ALGOS]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        chunks = list(pool.map(_benchmark_cell, tasks))
    return [row for chunk in chunks for row in chunk]


def _summarize_rows(rows, n_list):
    medians = {a: {} for a in ALGOS}
    for algo in ALGOS:
        for n in n_list:
            vals = [sec for a, nn, _, sec in rows if a == algo and nn == n]
            medians[algo][n] = float(np.median(vals))
    slopes = {a: fit_loglog(list(n_list), [medians[a][n] for n in n_list])
              for a in ALGOS}
    return medians, slopes


def cmd_benchmark(args) -> int:
    n_list = _parse_sizes(args.n)
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    seed = _resolve_seed(7, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        if args.jobs > 1:
            rows = _benchmark_parallel(n_list, args.trials, seed, args.jobs)
            medians, slopes = _summarize_rows(rows, n_list)
        else:
            rows, medians, slopes = benchmark(n_list, trials=args.trials,
                                              seed=seed)
        write_timing_csv(out / "timing.csv", rows)
        if len(n_list) >= 2:
            for algo in ALGOS:
                cells = "  ".join(f"n={n} {medians[algo][n] * 1e3:.3f}ms"
                                  for n in n_list)
                print(f"{algo}: {cells}")
                print(f"slope {algo} {slopes[algo]:.6f}")
    finally:
        _write_manifest(out, "benchmark", "", seed, t0,
                        blas_threads=BENCHMARK_BLAS_THREADS)
    return EXIT_OK


def _write_track_counts(path, result) -> None:
    with open(path, "w") as fh:
        fh.write("# schema=track-counts-1\n")
        fh.write("t,n_tracks\n")
        for rec in result.records:
            fh.write(f"{format(rec.t, '.9g')},{rec.n_tracks}\n")


def cmd_replay(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg.seed, args.seed)
    cfg = dataclasses.replace(cfg, seed=seed)
    stream = read_replay(args.detections, cfg.sigmas)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        res = run_replay(stream, cfg)
        write_registration_csv(out / "registration.csv", [res])
        _write_track_counts(out / "track_counts.csv", res)
        if args.dump_state:
            _dump_states(out, [res])
        if res.records:
            last = res.records[-1]
            for sid, est, _ in last.reg_rows:
                print(f"sensor {sid} final registration: "
                      f"xi0 {est[0]:.4f} m, eta0 {est[1]:.4f} m, "
                      f"psi0 {math.degrees(est[2]):.4f} deg")
            print(f"tracks at end of stream: {last.n_tracks}")
        else:
            print("empty detection stream; wrote headers only")
    finally:
        _write_manifest(out, "replay", args.config, seed, t0)
    return EXIT_OK


def _metric_surface_rows(table):
    """(channel, {algo: value}) rows with angles converted to degrees."""
    channels = []
    for algo_metrics in table.values():
        for ch in algo_metrics:
            if ch not in channels:
                channels.append(ch)
    rows = []
    for ch in channels:
        name = ch + "_deg" if ch.endswith(".psi0") else ch
        vals = {}
        for algo, algo_metrics in table.items():
            v = algo_metrics.get(ch, float("nan"))
            vals[algo] = math.degrees(v) if ch.endswith(".psi0") else v
        rows.append((name, vals))
    return rows


def _write_metrics_csv(path, table) -> None:
    with open(path, "w") as fh:
        fh.write("# schema=metrics-1\n")
        fh.write("channel," + ",".join(table) + "\n")
        for name, vals in _metric_surface_rows(table):
            cells = ",".join(format(vals[a], ".9g") for a in table)
            fh.write(f"{name},{cells}\n")


def _print_metrics_table(table) -> None:
    algos = list(table)
    width = max(len("channel"),
                *(len(name) for name, _ in _metric_surface_rows(table)))
    print("mean absolute error per channel (psi0 in degrees):")
    print("  " + "channel".ljust(width) + "".join(f"{a:>12}" for a in algos))
    for name, vals in _metric_surface_rows(table):
        cells = "".join(f"{vals[a]:>12.6f}" for a in algos)
        print("  " + name.ljust(width) + cells)


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg.seed, args.seed)
    cfg = dataclasses.replace(cfg, seed=seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        scenario = generate_scenario(cfg)
        results = [run_tracker(scenario, a) for a in ALGOS]
        write_tracks_csv(out / "tracks.csv", results)
        write_registration_csv(out / "registration.csv", results)
        table = {res.algo: metrics(res) for res in results}
        _write_metrics_csv(out / "metrics.csv", table)
        _print_metrics_table(table)
    finally:
        _write_manifest(out, "compare", args.config, seed, t0)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jtr",
        description="Joint tracking and sensor registration runner")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate",
                         help="run one scenario config end to end")
    sim.add_argument("config", help="scenario config JSON")
    sim.add_argument("out_dir", help="output directory")
    sim.add_argument("--algo", choices=ALGOS + ("all",), default="fmap",
                     help="which filter(s) to run (default fmap)")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sim.add_argument("--dump-state", action="store_true",
                     help="write the final square-root information array "
                          "as plain text (%%.17g) for cross-checks")
    sim.set_defaults(func=cmd_simulate)

    ben = sub.add_parser("benchmark",
                         help="time filter steps across problem sizes")
    ben.add_argument("out_dir", help="output directory")
    ben.add_argument("--n", default="10,50,100,300",
                     help="comma-separated ascending track counts")
    ben.add_argument("--trials", type=int, default=5,
                     help="timed steps per (algorithm, size) cell")
    ben.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the sweep; the default of 1 "
                          "keeps timings contention-free")
    ben.add_argument("--seed", type=int, default=None,
                     help="override the benchmark scenario seed")
    ben.set_defaults(func=cmd_benchmark)

    rep = sub.add_parser("replay",
                         help="track a recorded detection stream")
    rep.add_argument("detections", help="replay CSV (t,sensor_id,r,rdot,"
                                        "theta_deg per line)")
    rep.add_argument("config", help="scenario config JSON supplying sensor "
                                    "priors and noise levels")
    rep.add_argument("out_dir", help="output directory")
    rep.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    rep.add_argument("--dump-state", action="store_true",
                     help="write the final square-root information array "
                          "as plain text (%%.17g) for cross-checks")
    rep.set_defaults(func=cmd_replay)

    cmp_ = sub.add_parser("compare",
                          help="run every filter on one scenario and "
                               "tabulate errors")
    cmp_.add_argument("config", help="scenario config JSON")
    cmp_.add_argument("out_dir", help="output directory")
    cmp_.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    cmp_.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularBlockError as exc:
        print(f"numerical failure in block {exc.block!r}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except (DegenerateRotationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
