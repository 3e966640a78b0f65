"""pagecert benchmark: seeded synthetic inputs, one CLI process per sample.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout (the program is imported from ./src). For
--seconds it launches ``pagecert`` in a fresh process, one at a time, on
inputs generated from --seed, checks every run's outputs against the
reference recorded at the seed commit, and prints each metric with its unit.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (BENCHMARK.json's end_to_end metrics untraced, its per_layer
metrics with --trace 1). Untraced runs time the process from launch to exit
and read one timestamp from inside it, at the first call into the certifying
or training layer (setup_s). A traced run wraps the layers' public functions
from outside ``src/`` (tracer.py) and is paired with an untraced run, whose
wall time gives trace.overhead_s.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from inputs import write_inputs  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
MIN_SAMPLES = 3            # per run, even when one sample outlasts --seconds
HARD_STOP_S = 140.0        # no new sample after this long, whatever --seconds says
CHILD_TIMEOUT_S = 120.0
THREAD_ENV = {"CERT_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def environment(work: Path) -> dict:
    """Machine, library versions, thread settings and the output filesystem."""
    import numpy as np
    import scipy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = [c.get("version", "") for c in
            np.__config__.CONFIG.get("Build Dependencies", {}).values()
            if isinstance(c, dict) and c.get("name", "").endswith("openblas")]
    fs, best = "", ""
    try:
        for line in Path("/proc/self/mounts").read_text().splitlines():
            _, mnt, kind = line.split()[:3]
            if str(work).startswith(mnt) and len(mnt) >= len(best):
                fs, best = f"{kind} at {mnt}", mnt
    except OSError:
        pass
    return {
        "cores": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "openblas": blas[0] if blas else "",
        "child_env": THREAD_ENV, "outputs_fs": fs,
    }


def load_reference(name: str, scale: str, seed: int) -> tuple[int, dict]:
    """The generator seed that --seed maps to, and its recorded outputs."""
    path = HERE / "reference" / f"{name}.json"
    try:
        bank = json.loads(path.read_text(encoding="utf-8"))[scale]
        gen_seed = bank["seeds"][seed % len(bank["seeds"])]
        return gen_seed, bank["refs"][str(gen_seed)]
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        raise BenchError(f"no reference for {name}/{scale} in {path}: {exc}") from None


def prepare(name: str, seed: int, scale: str, work: Path) -> tuple[dict, Path]:
    """Generate the inputs for generator seed `seed` and write the CLI config."""
    w = WORKLOADS[name]
    inputs = write_inputs(w.spec(scale), seed, name, work / "inputs")
    cfg = dict(w.cli_config(scale))
    cfg.update({"seed": str(seed), "paths.graph": inputs["paths"]["graph"],
                "paths.labels": inputs["paths"]["labels"],
                "paths.output": str(work / "out")})
    if w.check == "global":
        cfg["targets.seed"] = str(seed)
    if "features" in inputs["paths"]:
        cfg["paths.features"] = inputs["paths"]["features"]
    cfg_path = work / "run.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
    return inputs, cfg_path


def launch(work: Path, cfg_path: Path, traced: bool, cpu: int) -> dict:
    """Run the CLI once, pinned to one CPU, and time it from launch to exit."""
    out, stats, spans = work / "out", work / "stats.json", work / "spans.json"
    for p in (stats, spans):
        p.unlink(missing_ok=True)
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, "-I", str(HERE / "child.py"), "--src", str(ROOT / "src"),
           "--stats", str(stats)]
    if traced:
        cmd += ["--trace", str(spans)]
    cmd += ["--", "--config", str(cfg_path)]
    env = {**os.environ, **THREAD_ENV}
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})      # inherited by the child
    with (work / "stderr.txt").open("wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                cwd=ROOT, env=env)
        os.sched_setaffinity(0, allowed)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        _, status, _ = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"wall_s": t1 - t0}
    if proc.returncode != 0:
        tail = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()
        rec["error"] = f"exit {proc.returncode}: {tail[-1] if tail else ''}"
        return rec
    child = json.loads(stats.read_text(encoding="utf-8"))
    rec["peak_rss_mb"] = child["vmhwm_kb"] / 1024.0
    rec["output_mb"] = sum(f.stat().st_size for f in out.iterdir()) / 1e6
    if traced:
        rec["spans"] = json.loads(spans.read_text(encoding="utf-8"))
    else:
        rec["setup_s"] = child["setup_end"] - t0
    return rec


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str,
                 root_work: Path) -> dict:
    w = WORKLOADS[name]
    gen_seed, ref = load_reference(name, scale, seed)
    work = root_work / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, cfg_path = prepare(name, gen_seed, scale, work)
        if inputs["digests"] != ref["inputs"]:
            raise BenchError(f"{name}: generated inputs differ from the reference "
                             "inputs (numpy RNG change?); re-record the references")
        plain, traced, failures, identical = [], [], [], 0
        # Samples alternate between the CPUs this process may use: on a shared
        # host each core's speed changes on its own, and a median over both
        # cores moves less than one over whichever core the scheduler picks.
        cpus = sorted(os.sched_getaffinity(0))
        start = time.monotonic()
        while True:
            kinds = (False, True) if trace else (False,)
            for kind in kinds:
                rec = launch(work, cfg_path, kind, cpus[len(plain) % len(cpus)])
                if "error" not in rec:
                    try:
                        got = check.extract(w.check, work / "out")
                        reason = check.compare(w.check, got, ref, inputs)
                    except (OSError, ValueError, KeyError, IndexError) as exc:
                        got, reason = None, f"unreadable output: {exc!r}"
                    if reason:
                        rec["error"] = f"output check: {reason}"
                    identical += bool(got) and check.byte_identical(got, ref)
                if "error" in rec:
                    failures.append(rec["error"])
                (traced if kind else plain).append(rec)
            elapsed = time.monotonic() - start
            per_sample = elapsed / len(plain)
            if len(plain) >= MIN_SAMPLES and (elapsed + per_sample > seconds
                                              or elapsed > HARD_STOP_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": name, "seed": seed, "gen_seed": gen_seed,
            "sizes": {k: inputs[k] for k in ("N", "E", "F_remove_only", "F_add_and_remove")},
            "input_digests": inputs["digests"], "plain": plain, "traced": traced,
            "failures": failures, "byte_identical": identical}


def _median(recs, key):
    vals = [r[key] for r in recs if "error" not in r]
    return statistics.median(vals) if vals else None


def summarise(res: dict, bench: dict, trace: bool) -> dict:
    """Metric name -> (value, unit); medians over the run's good samples."""
    out = {}
    if not trace:
        for m in bench["end_to_end"]:
            out[m["name"]] = (_median(res["plain"], m["name"]), m["unit"])
        return out
    layers = [layer_metrics(r["spans"], r["wall_s"]) for r in res["traced"]
              if "error" not in r]
    plain_wall, traced_wall = _median(res["plain"], "wall_s"), _median(res["traced"], "wall_s")
    for m in bench["per_layer"]:
        if m["name"] == "trace.overhead_s":
            value = (traced_wall - plain_wall
                     if plain_wall is not None and traced_wall is not None else None)
        else:
            vals = [lm[m["name"]] for lm in layers]
            value = statistics.median(vals) if vals else None
        out[m["name"]] = (value, m["unit"])
    return out


def report(res: dict, metrics: dict) -> None:
    attempted = len(res["plain"]) + len(res["traced"])
    print(f"== {res['workload']} seed {res['seed']} (inputs: generator seed "
          f"{res['gen_seed']}, {json.dumps(res['sizes'])})")
    print(f"   input sha256: {json.dumps(res['input_digests'])}")
    good = [r["wall_s"] for r in res["plain"] if "error" not in r]
    if good:
        print(f"   untraced samples {len(good)}, wall_s min {min(good):.4f} "
              f"max {max(good):.4f}")
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {name:32s} {shown:>14s} {unit}")
    print(f"   {'fail_ratio':32s} {len(res['failures']) / attempted:>14.6g} "
          f"ratio ({len(res['failures'])}/{attempted})")
    print(f"   byte-identical certificates.jsonl/summary.csv: "
          f"{res['byte_identical']}/{attempted - len(res['failures'])} (not gated)")
    for f in res["failures"][:5]:
        print(f"   FAILED: {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-test instances")
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "pagecert" / "cli.py").is_file():
            raise BenchError(f"no pagecert sources under {ROOT / 'src'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        compileall.compile_dir(ROOT / "src", quiet=1)
        root_work = ROOT / ".bench_work"
        root_work.mkdir(exist_ok=True)
        print("environment:", json.dumps(environment(root_work)))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.scale,
                                root_work) for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    attempted = failed = 0
    metrics = {}
    for res in results:
        m = summarise(res, bench, bool(args.trace))
        report(res, m)
        attempted += len(res["plain"]) + len(res["traced"])
        failed += len(res["failures"])
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        metrics.update({prefix + k: {"value": v if v is not None else 0.0, "unit": u}
                        for k, (v, u) in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
