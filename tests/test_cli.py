"""CLI exit codes, artifacts, reproducibility and bundled-config behavior."""

import csv
import json
import math
import re
import subprocess
import sys
from importlib import resources

import pytest

from jtr.cli import main
from jtr.info_array import SingularBlockError
from jtr.simkit import fit_loglog, generate_scenario, load_config, write_replay

CONFIG_DIR = resources.files("jtr") / "configs"


def short_config(tmp_path, **overrides):
    raw = {
        "seed": 3,
        "duration_s": 4.0,
        "dt_s": 0.1,
        "process_noise": {"q_xi": 0.1, "q_eta": 0.1},
        "measurement_noise": {"sigma_r_m": 0.1, "sigma_rdot_ms": 0.2,
                              "sigma_theta_deg": 1.0},
        "sensors": [
            {"id": 0, "xi0_m": 2.0, "eta0_m": 0.6, "psi_deg": 10.0,
             "pinned": True,
             "initial_guess": {"xi0_m": 2.0, "eta0_m": 0.6, "psi_deg": 10.0}},
            {"id": 1, "xi0_m": 2.0, "eta0_m": -0.6, "psi_deg": -10.0},
        ],
        "targets": {"count": 3},
        "association": "truth",
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def read_csv_rows(path):
    with open(path) as fh:
        assert fh.readline().startswith("# schema=")
        return list(csv.DictReader(fh))


class TestExitCodes:
    def test_missing_config_exits_2_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", str(tmp_path / "nope.json"), str(out)])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["simulate", str(bad), str(tmp_path / "out")])
        assert rc == 2

    def test_unknown_filter_option_exits_2(self, tmp_path, capsys):
        cfg = short_config(tmp_path, filter={"spin": 3})
        rc = main(["simulate", str(cfg), str(tmp_path / "out")])
        assert rc == 2
        assert "spin" in capsys.readouterr().err

    def test_unknown_algorithm_rejected_by_parser(self, tmp_path):
        cfg = short_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["simulate", str(cfg), str(tmp_path / "out"),
                  "--algo", "kalman"])

    def test_malformed_replay_line_reports_number(self, tmp_path, capsys):
        stream = tmp_path / "stream.csv"
        stream.write_text("# schema=replay-1\n"
                          "0,0,10.0,0.1,5.0\n"
                          "0,0,ten,0.1,5.0\n")
        cfg = short_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["replay", str(stream), str(cfg), str(out)])
        assert rc == 2
        assert ":3:" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_order_replay_exits_2(self, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text("0.2,0,10.0,0.1,5.0\n0.1,0,10.0,0.1,5.0\n")
        cfg = short_config(tmp_path)
        rc = main(["replay", str(stream), str(cfg), str(tmp_path / "out")])
        assert rc == 2

    def test_empty_replay_writes_headers_only(self, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text("# schema=replay-1\n")
        cfg = short_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["replay", str(stream), str(cfg), str(out)])
        assert rc == 0
        reg_lines = (out / "registration.csv").read_text().splitlines()
        cnt_lines = (out / "track_counts.csv").read_text().splitlines()
        assert len(reg_lines) == 2 and reg_lines[0].startswith("# schema=")
        assert len(cnt_lines) == 2 and cnt_lines[0].startswith("# schema=")
        assert (out / "manifest.json").exists()

    def test_numerical_failure_exits_3_and_leaves_manifest(
            self, tmp_path, capsys, monkeypatch):
        def boom(scenario, algo):
            raise SingularBlockError(("track", 2))
        monkeypatch.setattr("jtr.cli.run_tracker", boom)
        cfg = short_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", str(cfg), str(out)])
        assert rc == 3
        assert "block" in capsys.readouterr().err
        assert (out / "manifest.json").exists()


class TestManifest:
    def test_fields_recorded(self, tmp_path):
        cfg = short_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", str(cfg), str(out), "--algo", "sep"])
        assert rc == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["command"] == "simulate"
        assert man["config_path"] == str(cfg)
        assert man["seed"] == 3
        assert man["out_dir"] == str(out)
        assert man["wall_time_s"] > 0
        assert isinstance(man["build"], str) and man["build"]

    def test_seed_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JTR_SEED", "9")
        cfg = short_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), str(out), "--seed", "5",
                     "--algo", "sep"]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 5

    def test_env_overrides_config_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JTR_SEED", "42")
        cfg = short_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), str(out), "--algo", "sep"]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 42

    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JTR_SEED", "many")
        cfg = short_config(tmp_path)
        assert main(["simulate", str(cfg), str(tmp_path / "out")]) == 2


class TestReproducibility:
    def test_identical_invocations_identical_bytes(self, tmp_path):
        cfg = short_config(tmp_path)
        out = tmp_path / "out"
        argv = ["simulate", str(cfg), str(out), "--algo", "all"]
        assert main(argv) == 0
        first = {name: (out / name).read_bytes()
                 for name in ("tracks.csv", "registration.csv")}
        man1 = json.loads((out / "manifest.json").read_text())
        assert main(argv) == 0
        for name, data in first.items():
            assert (out / name).read_bytes() == data, name
        man2 = json.loads((out / "manifest.json").read_text())
        man1.pop("wall_time_s")
        man2.pop("wall_time_s")
        assert man1 == man2

    def test_inputs_not_mutated(self, tmp_path):
        cfg = short_config(tmp_path)
        scenario = generate_scenario(load_config(cfg))
        stream = tmp_path / "stream.csv"
        write_replay(stream, scenario)
        before = (cfg.read_bytes(), stream.read_bytes())
        assert main(["replay", str(stream), str(cfg),
                     str(tmp_path / "out")]) == 0
        assert (cfg.read_bytes(), stream.read_bytes()) == before


class TestBenchmarkCommand:
    def test_timing_rows_and_slope_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["benchmark", str(out), "--n", "4,8", "--trials", "2"])
        assert rc == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["blas_threads"] == 1
        rows = read_csv_rows(out / "timing.csv")
        assert len(rows) == 2 * 2 * 3
        printed = dict(re.findall(r"slope (\w+) (-?\d+\.\d+)",
                                  capsys.readouterr().out))
        assert set(printed) == {"fmap", "sep", "dense"}
        for algo in printed:
            med = []
            for n in (4, 8):
                vals = sorted(float(r["seconds"]) for r in rows
                              if r["algo"] == algo and int(r["n"]) == n)
                med.append((vals[0] + vals[1]) / 2)
            refit = fit_loglog([4, 8], med)
            assert abs(float(printed[algo]) - refit) < 1e-5

    def test_parallel_jobs_preserve_row_structure(self, tmp_path):
        out1 = tmp_path / "seq"
        out2 = tmp_path / "par"
        assert main(["benchmark", str(out1), "--n", "4,8",
                     "--trials", "2"]) == 0
        assert main(["benchmark", str(out2), "--n", "4,8", "--trials", "2",
                     "--jobs", "2"]) == 0
        key = lambda r: (r["algo"], r["n"], r["trial"])
        seq = [key(r) for r in read_csv_rows(out1 / "timing.csv")]
        par = [key(r) for r in read_csv_rows(out2 / "timing.csv")]
        assert seq == par

    def test_unsorted_sizes_exit_2(self, tmp_path):
        assert main(["benchmark", str(tmp_path / "out"),
                     "--n", "8,4"]) == 2

    def test_bad_trials_exit_2(self, tmp_path):
        assert main(["benchmark", str(tmp_path / "out"), "--n", "4,8",
                     "--trials", "0"]) == 2


class TestBundledConfigs:
    def test_default_scenario_converges(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", str(CONFIG_DIR / "default_scenario.json"),
                   str(out)])
        assert rc == 0
        rows = [r for r in read_csv_rows(out / "registration.csv")
                if r["algo"] == "fmap" and r["sensor_id"] == "1"]
        last = rows[-1]
        err = abs(float(last["psi0_est_deg"]) - float(last["psi0_true_deg"]))
        assert err < 1.0

    def test_step_change_statistic_peaks_in_window(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", str(CONFIG_DIR / "step_change.json"),
                   str(out)])
        assert rc == 0
        rows = [r for r in read_csv_rows(out / "registration.csv")
                if r["algo"] == "fmap" and r["sensor_id"] == "1"]
        stats = [(float(r["t"]), float(r["innovation_stat"])) for r in rows
                 if r["innovation_stat"] != "nan"]
        peak_t = max(stats, key=lambda p: p[1])[0]
        assert 25.0 <= peak_t <= 26.0
        fires = [float(r["t"]) for r in rows if r["reset_fired"] == "1"]
        assert fires and 25.0 <= fires[0] <= 26.0

    def test_replay_crossed_recovers_registration(self, tmp_path):
        cfg_path = CONFIG_DIR / "replay_crossed.json"
        stream = tmp_path / "stream.csv"
        write_replay(stream, generate_scenario(load_config(cfg_path)))
        out = tmp_path / "out"
        rc = main(["replay", str(stream), str(cfg_path), str(out)])
        assert rc == 0
        rows = [r for r in read_csv_rows(out / "registration.csv")
                if r["sensor_id"] == "1"]
        last = rows[-1]
        err = abs(float(last["psi0_est_deg"]) - float(last["psi0_true_deg"]))
        assert err < 2.0
        counts = read_csv_rows(out / "track_counts.csv")
        assert len(counts) == len(set(r["t"] for r in rows))
        assert int(counts[-1]["n_tracks"]) >= 6


class TestDumpState:
    def test_dump_parses_as_triangular_array(self, tmp_path):
        cfg = short_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", str(cfg), str(out), "--dump-state"])
        assert rc == 0
        lines = (out / "state_fmap.txt").read_text().splitlines()
        dim = int(lines[0].split()[1])
        assert dim == 3 * 4 + 2 * 3
        assert lines[1] == "R"
        rmat = [[float(v) for v in line.split()]
                for line in lines[2:2 + dim]]
        assert all(len(row) == dim for row in rmat)
        for i in range(dim):
            assert all(v == 0.0 for v in rmat[i][:i])
        assert lines[2 + dim] == "z"
        zvec = [float(v) for v in lines[3 + dim].split()]
        assert len(zvec) == dim


class TestCompareCommand:
    def test_compare_writes_metrics_for_all_algos(self, tmp_path, capsys):
        cfg = short_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["compare", str(cfg), str(out)])
        assert rc == 0
        rows = read_csv_rows(out / "metrics.csv")
        channels = [r["channel"] for r in rows]
        assert "track.xi" in channels
        assert "sensor1.psi0_deg" in channels
        for row in rows:
            for algo in ("fmap", "sep", "dense"):
                assert math.isfinite(float(row[algo]))
        assert "mean absolute error" in capsys.readouterr().out
        assert (out / "tracks.csv").exists()
        assert (out / "registration.csv").exists()

    def test_module_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jtr.cli", "--help"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        for word in ("simulate", "benchmark", "replay", "compare"):
            assert word in proc.stdout
