"""The benchmark's workloads: bundled scenario configs, sized for a run.

Truth (target placement and trajectories) comes from the bundled config's own
seed, so every run tracks the same geometry and the same number of targets;
the run's ``--seed`` drives the measurement noise.  A run cycles through
``inputs`` noise seeds so that noise-driven churn (births, deaths and resets
under nearest-neighbour association) is averaged inside one run.  Why each
workload was chosen is recorded in BENCHMARK.json.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                       # file under src/jtr/configs
    overrides: dict = field(default_factory=dict)
    inputs: int = 1

    def noise_seeds(self, seed: int) -> list:
        """Distinct seeds for distinct runs: run s uses s*inputs .. s*inputs+inputs-1."""
        return [seed * self.inputs + j for j in range(self.inputs)]


WORKLOADS = {w.name: w for w in (
    Workload("step10", "step_change.json", inputs=4),
    Workload("crossed_nn", "replay_crossed.json", inputs=4),
    # The geometry of simkit's scaling benchmark.  At 2 s or more per epoch
    # the run is 12 epochs long: enough for a tail percentile with 10 epochs
    # beyond it, and one pass still fits the per-run time limit.  Twelve
    # epochs cannot average out a shared host's speed swings (its epoch
    # median spread by about 25 % over ten runs on a 2-vCPU VM), so
    # BENCHMARK.json does not gate on it; run it by name or with "all".
    Workload("wide200", "default_scenario.json", overrides={
        "duration_s": 1.2,
        "targets": {"count": 200, "placement": {"r_min_m": 8.0, "r_max_m": 80.0}},
        "fov": {"r_max_m": 200.0},
    }),
)}
