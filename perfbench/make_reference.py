"""Record the output-check references: one CLI run per bank seed and scale.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run at the commit whose outputs define "correct" (the references in git
were recorded at the seed commit, before any optimisation). Writes
perfbench/reference/<workload>.json, keyed by scale: the bank of generator
seeds, the recorded extract per seed, and the generator seeds skipped
because the CLI failed on them (a failing input cannot be timed; the reason
is kept so the failure stays visible).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import check
import run
from workloads import WORKLOADS

BANK = 16                  # reference inputs per workload and scale
MAX_GENERATOR_SEEDS = 64


def main(names) -> int:
    root_work = run.ROOT / ".bench_work" / "reference"
    (run.HERE / "reference").mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        w = WORKLOADS[name]
        refs = {}
        for scale in ("full", "tiny"):
            bank = refs[scale] = {"seeds": [], "skipped": {}, "refs": {}}
            for seed in range(MAX_GENERATOR_SEEDS):
                if len(bank["seeds"]) == BANK:
                    break
                work = root_work / f"{name}-{scale}-{seed}"
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                inputs, cfg_path = run.prepare(name, seed, scale, work)
                rec = run.launch(work, cfg_path, traced=False, cpu=min(os.sched_getaffinity(0)))
                print(f"{name}/{scale}/{seed}: {rec['wall_s']:.2f} s "
                      f"{rec.get('error', 'ok')}", flush=True)
                if "error" in rec:
                    bank["skipped"][str(seed)] = rec["error"]
                else:
                    bank["seeds"].append(seed)
                    bank["refs"][str(seed)] = {"inputs": inputs["digests"],
                                               **check.extract(w.check, work / "out")}
                shutil.rmtree(work)
            if len(bank["seeds"]) < BANK:
                print(f"{name}/{scale}: only {len(bank['seeds'])} good inputs", file=sys.stderr)
                return 1
        path = run.HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(refs, separators=(",", ":")) + "\n", encoding="utf-8")
    shutil.rmtree(root_work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
