"""The benchmark's workloads: CLI configuration plus input sizes.

Each workload runs one ``pagecert`` mode on inputs from ``inputs.py``. The
``full`` spec is what the benchmark measures; the ``tiny`` spec runs the
same route in well under a second for the smoke tests. Sizes are chosen so
one CLI run takes a few seconds on a 2-core machine and several runs fit in
one measuring window; why each workload exists is in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from inputs import GraphSpec


@dataclass(frozen=True)
class Workload:
    name: str
    check: str                      # output check: "local" | "global" | "train"
    config: dict[str, str]
    full: GraphSpec
    tiny: GraphSpec
    tiny_config: dict[str, str] = field(default_factory=dict)

    def cli_config(self, scale: str) -> dict[str, str]:
        return {**self.config, **(self.tiny_config if scale == "tiny" else {})}

    def spec(self, scale: str) -> GraphSpec:
        return self.tiny if scale == "tiny" else self.full


WORKLOADS = {w.name: w for w in [
    Workload(
        name="local-remove",
        check="local",
        config={"mode": "certify-local", "scenario.mode": "remove-only",
                "scenario.strength": "6"},
        full=GraphSpec(nodes=700, blocks=7, edges_in=1960, edges_out=385,
                       labeled_per_block=14),
        tiny=GraphSpec(nodes=80, blocks=3, edges_in=200, edges_out=40,
                       labeled_per_block=4),
    ),
    Workload(
        name="global-lp",
        check="global",
        config={"mode": "certify-global", "scenario.mode": "remove-only",
                "scenario.strength": "4", "scenario.global_budget": "4",
                "solver.bound_method": "policy_opt", "targets.count": "12"},
        full=GraphSpec(nodes=22, blocks=2, edges_in=70, edges_out=10,
                       labeled_per_block=3),
        tiny=GraphSpec(nodes=12, blocks=2, edges_in=22, edges_out=4,
                       labeled_per_block=2),
        tiny_config={"targets.count": "3"},
    ),
    Workload(
        name="train-cem",
        check="train",
        config={"mode": "train", "scenario.mode": "remove-only",
                "scenario.strength": "6", "train.loss": "cem", "train.hidden": "16",
                "train.epochs": "40", "train.patience": "1000",
                "train.per_class": "20"},
        full=GraphSpec(nodes=200, blocks=2, edges_in=1400, edges_out=200,
                       feature_noise=0.5),
        tiny=GraphSpec(nodes=40, blocks=2, edges_in=120, edges_out=16,
                       feature_noise=0.5),
        tiny_config={"train.epochs": "4", "train.per_class": "5"},
    ),
]}
