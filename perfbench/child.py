"""Launch the pagecert CLI in this process, as the benchmark's child.

    python3 -I perfbench/child.py --src SRC --stats FILE [--trace FILE] -- CLI_ARGS...

Untraced, it wraps only the three entry points into the certifying and
training layers and takes ``time.monotonic()`` at the first call (the end
of set-up). With --trace it installs the span tracer instead and writes the
spans to the trace file when the CLI returns. Either way it writes, at exit,
the set-up timestamp and the process's peak resident set (VmHWM) to the
stats file as JSON. The CLI's exit code is passed through; a failure to set
up the hooks exits with code 70.

VmHWM is read here rather than taken from the parent's wait4 rusage: Linux
carries the pre-exec memory peak of the spawning process into the child's
ru_maxrss, so wait4 would report run.py's own footprint
whenever it exceeds the CLI's.
"""

import json
import sys
import time

ENTRY_POINTS = (
    ("policy_iter", "certify_local_all"),
    ("qclp_global", "certify_global"),
    ("robust_train", "train_robust"),
)
SETUP_FAILED = 70


def _mark_first_call(modules, stats):
    def hook(fn):
        def marked(*args, **kwargs):
            stats.setdefault("setup_end", time.monotonic())
            return fn(*args, **kwargs)
        return marked

    for mod_name, attr in ENTRY_POINTS:
        mod = modules[mod_name]
        setattr(mod, attr, hook(getattr(mod, attr)))


def main(argv) -> int:
    split = argv.index("--")
    opts, cli_args = dict(zip(argv[:split:2], argv[1:split:2])), argv[split + 1:]
    src = opts["--src"]
    sys.path.insert(0, src)
    import importlib
    from pathlib import Path

    cli = importlib.import_module("pagecert.cli")
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"pagecert imported from {cli.__file__}, not {src}", file=sys.stderr)
        return SETUP_FAILED
    modules = {m: importlib.import_module(f"pagecert.{m}") for m, _ in ENTRY_POINTS}
    stats: dict = {}
    try:
        if "--trace" in opts:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracer
            t = tracer.Tracer()
            tracer.install(t)
        else:
            _mark_first_call(modules, stats)
    except (AttributeError, ImportError, RuntimeError) as exc:
        print(f"benchmark hooks failed: {exc}", file=sys.stderr)
        return SETUP_FAILED
    code = cli.main(cli_args)
    if "--trace" in opts:
        t.dump(opts["--trace"])
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            stats["vmhwm_kb"] = int(line.split()[1])
    with open(opts["--stats"], "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
