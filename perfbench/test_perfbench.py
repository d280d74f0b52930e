"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracer
import worker
from tracer import Hook, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (100.0 * 1 / 11, 0)
    samples = [float(v) for v in range(1000)][::-1]
    pct, value = run.tail(samples)
    assert pct == 99.0
    assert value == 989.0
    assert sum(s > value for s in samples) == 10


def test_printed_metric_names_equal_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == run.E2E_UNITS
    worker_result = {"epoch_s": [0.01 + 1e-4 * i for i in range(50)],
                     "simulated_s": 5.0, "loop_s": 0.6, "peak_rss_mb": 100.0}
    assert list(run.end_to_end([1.0, 1.2, 1.1], worker_result)) == list(e2e)

    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == tracer.per_layer_units()
    hook_metrics = {f"{h.layer}.{k}" for h in tracer.HOOKS for k in h.kinds}
    assert hook_metrics | set(tracer.OTHER_UNITS) == set(per_layer)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_layer_map_covers_every_per_layer_metric_once():
    groups = json.loads((ROOT / "perfbench" / "layers.json").read_text())["groups"]
    listed = [m for g in groups for m in g["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for g in groups:
        assert set(g["moves"]) <= e2e
        assert set(g["dominant_on"] + g["should_not_move_on"]) <= set(run.WORKLOADS)


@pytest.fixture(scope="module")
def short_runs():
    from jtr import simkit
    with open(ROOT / "src" / "jtr" / "configs" / "default_scenario.json") as fh:
        raw = json.load(fh)
    raw["duration_s"] = 3.0
    scenario = simkit.generate_scenario(simkit.config_from_dict(raw))
    frames = simkit.synthesize_measurements(scenario)
    return (simkit.run_tracker(scenario, "fmap", frames),
            simkit.run_tracker(scenario, "dense", frames))


def test_output_check_passes_on_fmap_against_dense(short_runs):
    fmap, dense = short_runs
    gap, why = worker.compare_runs(fmap, dense, worker.ORACLE_TOL)
    assert why is None
    assert gap < worker.ORACLE_TOL


def test_output_check_trips_on_a_perturbed_estimate(short_runs):
    fmap, dense = short_runs
    est = fmap.records[20].track_rows[0][1]
    saved = est.copy()
    try:
        est[0] += 1e-3 * max(abs(est[0]), 1.0)
        gap, why = worker.compare_runs(fmap, dense, worker.ORACLE_TOL)
    finally:
        est[:] = saved
    assert why is not None and "above tolerance" in why
    assert gap > worker.ORACLE_TOL


def test_output_check_trips_on_a_missing_track(short_runs):
    fmap, dense = short_runs
    rec = fmap.records[10]
    trimmed = types.SimpleNamespace(records=fmap.records[:10] + (
        types.SimpleNamespace(track_rows=rec.track_rows[1:], reg_rows=rec.reg_rows,
                              fired=rec.fired),) + fmap.records[11:])
    _, why = worker.compare_runs(trimmed, dense, worker.ORACLE_TOL)
    assert why == "epoch 10: track ids differ"


@pytest.fixture
def fake_layer(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return sum(range(x))

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_missing_wrap_target_is_reported_missing_not_zero(fake_layer):
    hooks = (
        Hook("fake.outer", "fake_layer", "outer", ("calls_per_epoch", "self_ms_per_epoch")),
        Hook("fake.inner", "fake_layer", "inner", ("ms_per_epoch",)),
        Hook("fake.renamed", "fake_layer", "no_such_name", ("calls_per_epoch",)),
        Hook("fake.gone_class", "fake_layer:NoSuchClass", "f", ("calls",)),
        Hook("fake.gone_module", "no_such_module_xyz", "f", ("ms",)),
    )
    tr = Tracer(hooks)
    original = fake_layer.outer
    with tr:
        assert fake_layer.outer is not original
        fake_layer.outer(20000)
    assert fake_layer.outer is original
    values, missing = tr.metrics(epochs=2)
    assert set(missing) == {"fake.renamed.calls_per_epoch", "fake.gone_class.calls",
                            "fake.gone_module.ms"}
    assert "no attribute no_such_name" in missing["fake.renamed.calls_per_epoch"]
    assert not set(missing) & set(values)
    assert values["fake.outer.calls_per_epoch"] == 0.5
    outer_ms = (tr.end[0] - tr.start[0]) * 1e3
    assert values["fake.outer.self_ms_per_epoch"] == pytest.approx(
        (outer_ms - 2 * values["fake.inner.ms_per_epoch"]) / 2)


def test_every_jtr_hook_target_exists_at_this_commit():
    tr = Tracer(tracer.HOOKS)
    with tr:
        pass
    assert tr.missing == {}
