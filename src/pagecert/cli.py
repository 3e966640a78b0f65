"""Command-line orchestration: config parsing, pipelines, and run manifests.

Config files are flat "key = value" lines with dotted keys ('#' comments);
every key can be overridden on the command line with --set key=value. Each
run writes a manifest (resolved config, package version, input digests)
from which it can be reproduced byte-for-byte via --from-manifest; a re-run
first re-hashes the recorded inputs and stops with exit 4 if one changed.

Exit codes: 0 ok, 2 config error, 3 solver error, 4 graph/scenario
validation error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, analysis, graph, lp_solver, models, policy_iter, ppr
from . import qclp_global, robust_train


class ConfigError(ValueError):
    pass


KNOWN_KEYS = {
    "mode": "certify-local | certify-global | train | attack | gen-sbm | report",
    "alpha": "damping factor (default 0.85)",
    "seed": "base RNG seed",
    "paths.graph": "edge-list input",
    "paths.labels": "node<TAB>label input",
    "paths.features": "feature CSV/binary input (certify modes: feature propagation)",
    "paths.logits": "external logits CSV (takes precedence over features/labels)",
    "paths.certificates": "certificates JSON-lines (input of report mode)",
    "paths.output": "output directory",
    "graph.symmetrize": "add reverse edges on load (default true)",
    "graph.lcc": "restrict to largest connected component (default false)",
    "scenario.mode": "remove-only | add-and-remove",
    "scenario.strength": "local attack strength s",
    "scenario.global_budget": "global budget B (blank = unlimited)",
    "solver.bound_method": "closed_form | policy_opt",
    "solver.lp_feasibility": "LP feasibility tolerance (default 1e-7)",
    "solver.lp_optimality": "LP optimality tolerance (default 1e-9)",
    "targets.count": "number of sampled targets for certify-global",
    "targets.seed": "sampling seed",
    "train.loss": "ce | rce | cem",
    "train.margin": "hinge margin M",
    "train.lr": "learning rate",
    "train.reg": "L2 weight: weight decay in train (default 5e-2); penalty of "
                 "the feature-propagation logistic fit in certify modes (default 1e-2)",
    "train.patience": "early-stopping patience",
    "train.epochs": "max epochs",
    "train.hidden": "hidden width (0 = linear)",
    "train.cadence": "inner-problem recompute cadence",
    "train.per_class": "labeled nodes per class for train and val splits",
    "sbm.n": "node count",
    "sbm.blocks": "block count",
    "sbm.p_in": "within-block edge probability",
    "sbm.p_out": "cross-block edge probability",
}

_INT_KEYS = ("seed", "scenario.strength", "scenario.global_budget", "targets.count",
             "targets.seed", "train.patience", "train.epochs", "train.hidden",
             "train.cadence", "train.per_class", "sbm.n", "sbm.blocks")
_FLOAT_KEYS = ("alpha", "solver.lp_feasibility", "solver.lp_optimality",
               "train.margin", "train.lr", "train.reg", "sbm.p_in", "sbm.p_out")

_REQUIRED = {
    "certify-local": ["paths.graph", "paths.output"],
    "certify-global": ["paths.graph", "paths.output"],
    "train": ["paths.graph", "paths.features", "paths.labels", "paths.output"],
    "attack": ["paths.graph", "paths.output"],
    "gen-sbm": ["paths.output", "sbm.n", "sbm.blocks", "sbm.p_in", "sbm.p_out"],
    "report": ["paths.graph", "paths.certificates", "paths.output"],
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    return parse_config_text(path.read_text(encoding="utf-8"), str(path))


@dataclass
class RunConfig:
    """Typed view of a resolved flat config."""

    raw: dict[str, str]
    mode: str = ""
    alpha: float = 0.85
    seed: int = 0
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.raw.get(key, default)

    def get_float(self, key: str, default: float | None = None) -> float | None:
        v = self.raw.get(key)
        if v is None or v == "":
            return default
        try:
            return float(v)
        except ValueError:
            self.errors.append(f"{key}: not a number: {v!r}")
            return default

    def get_int(self, key: str, default: int | None = None) -> int | None:
        v = self.raw.get(key)
        if v is None or v == "":
            return default
        try:
            return int(v)
        except ValueError:
            self.errors.append(f"{key}: not an integer: {v!r}")
            return default

    def get_bool(self, key: str, default: bool) -> bool:
        v = self.raw.get(key)
        if v is None or v == "":
            return default
        if v.lower() in ("1", "true", "yes", "on"):
            return True
        if v.lower() in ("0", "false", "no", "off"):
            return False
        self.errors.append(f"{key}: not a boolean: {v!r}")
        return default


def resolve_config(raw: dict[str, str]) -> RunConfig:
    cfg = RunConfig(raw=dict(raw))
    for key in raw:
        if key not in KNOWN_KEYS:
            cfg.warnings.append(f"unknown key {key!r} ignored")
    cfg.mode = raw.get("mode", "")
    if cfg.mode not in _REQUIRED:
        cfg.errors.append(
            f"mode must be one of {sorted(_REQUIRED)}, got {cfg.mode!r}"
        )
        return cfg
    for key in _REQUIRED[cfg.mode]:
        if not raw.get(key):
            cfg.errors.append(f"{key} required for mode {cfg.mode}")
    # parse every numeric key here, so a malformed value is reported before
    # anything runs
    num = {key: cfg.get_int(key) for key in _INT_KEYS}
    num.update({key: cfg.get_float(key) for key in _FLOAT_KEYS})
    alpha = num["alpha"]
    if alpha is not None:
        if not 0.0 < alpha < 1.0:
            cfg.errors.append(f"alpha must be in (0, 1), got {alpha}")
        cfg.alpha = alpha
    cfg.seed = num["seed"] or 0
    s = num["scenario.strength"]
    if s is not None and s < 0:
        cfg.warnings.append("scenario.strength is negative; budgets clamp at 0")
    b = num["scenario.global_budget"]
    if b is not None and b < 0:
        cfg.errors.append("scenario.global_budget must be nonnegative")
    loss = raw.get("train.loss")
    if loss and loss not in ("ce", "rce", "cem"):
        cfg.errors.append(f"train.loss must be ce|rce|cem, got {loss!r}")
    sm = raw.get("scenario.mode")
    if sm and sm not in ("remove-only", "add-and-remove"):
        cfg.errors.append(f"scenario.mode must be remove-only|add-and-remove, got {sm!r}")
    bm = raw.get("solver.bound_method")
    if bm and bm not in ("closed_form", "policy_opt"):
        cfg.errors.append(
            f"solver.bound_method must be closed_form|policy_opt, got {bm!r}"
        )
    margin = num["train.margin"]
    if margin is not None and margin < 0:
        cfg.errors.append(f"train.margin must be nonnegative, got {margin}")
    for key, least in (("train.epochs", 1), ("train.cadence", 1),
                       ("train.per_class", 1), ("train.patience", 0),
                       ("train.hidden", 0)):
        v = num[key]
        if v is not None and v < least:
            cfg.errors.append(f"{key} must be >= {least}, got {v}")
    return cfg


def validate_config(path) -> tuple[list[str], list[str]]:
    """All errors and warnings for a config file, without executing it."""
    cfg = resolve_config(load_config(path))
    return cfg.errors, cfg.warnings


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _changed_inputs(digests: dict[str, str], cfg: RunConfig) -> list[str]:
    """Recorded input keys whose file is now missing or has another digest."""
    changed = []
    for key, digest in sorted(digests.items()):
        p = cfg.get(key)
        if not p or not Path(p).is_file():
            changed.append(f"{key} (missing)")
        elif _sha256(Path(p)) != digest:
            changed.append(f"{key} (digest mismatch)")
    return changed


def _load_inputs(cfg: RunConfig):
    G = graph.load_graph(
        cfg.raw["paths.graph"],
        symmetrize=cfg.get_bool("graph.symmetrize", True),
        restrict_lcc=cfg.get_bool("graph.lcc", False),
    )
    y = None
    if cfg.get("paths.labels"):
        y = graph.load_labels(cfg.raw["paths.labels"], G.node_count)
    return G, y


def _build_scenario(cfg: RunConfig, G: graph.DirectedGraph):
    return graph.build_scenario(
        G,
        mode=cfg.get("scenario.mode", "remove-only"),
        strength=cfg.get_int("scenario.strength"),
        global_budget=cfg.get_int("scenario.global_budget"),
    )


def _logits_for(cfg: RunConfig, G: graph.DirectedGraph, y):
    """Logits source, by precedence: external CSV, feature propagation
    (features + labels), one-hot label propagation."""
    if cfg.get("paths.logits"):
        H = models.load_logits_csv(cfg.raw["paths.logits"])
        if H.shape[0] != G.node_count:
            raise ConfigError(
                f"logits rows {H.shape[0]} != node count {G.node_count}"
            )
        return H
    if y is None:
        raise ConfigError("need paths.logits or paths.labels to form logits")
    if cfg.get("paths.features"):
        X = _load_features(cfg)
        H, _ = models.feature_propagation_logits(
            G, cfg.alpha, X, y,
            reg=cfg.get_float("train.reg", 1e-2),
            seed=cfg.seed,
        )
        return H
    K = int(y.max()) + 1
    if K < 2:
        raise ConfigError("labels define fewer than two classes")
    return models.label_propagation_logits(y, G.node_count, K)


def _load_features(cfg: RunConfig) -> np.ndarray:
    fpath = Path(cfg.raw["paths.features"])
    return (models.load_features_bin(fpath) if fpath.suffix == ".bin"
            else models.load_features_csv(fpath))


def _write_manifest(cfg: RunConfig, outdir: Path, outputs: list[str]) -> None:
    digests = {}
    for key in ("paths.graph", "paths.labels", "paths.features",
                "paths.logits", "paths.certificates"):
        p = cfg.get(key)
        if p and Path(p).exists():
            digests[key] = _sha256(Path(p))
    manifest = {
        "version": __version__,
        "config": dict(sorted(cfg.raw.items())),
        "config_hash": hashlib.sha256(
            json.dumps(dict(sorted(cfg.raw.items()))).encode()
        ).hexdigest(),
        "input_digests": digests,
        "outputs": outputs,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def run(cfg: RunConfig) -> int:
    """Execute the configured pipeline; returns a process exit status."""
    if cfg.errors:
        for e in cfg.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    outdir = Path(cfg.raw["paths.output"])
    outdir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []

    if cfg.mode == "gen-sbm":
        G = graph.generate_sbm(
            cfg.get_int("sbm.n"), cfg.get_int("sbm.blocks"),
            cfg.get_float("sbm.p_in"), cfg.get_float("sbm.p_out"),
            cfg.seed,
        )
        labels = graph.sbm_block_labels(cfg.get_int("sbm.n"), cfg.get_int("sbm.blocks"))
        epath, lpath = outdir / "graph.tsv", outdir / "labels.tsv"
        with epath.open("w", encoding="utf-8") as fh:
            for s, d in G.edges:
                fh.write(f"{s}\t{d}\n")
        with lpath.open("w", encoding="utf-8") as fh:
            for v, c in enumerate(labels):
                fh.write(f"{v}\t{c}\n")
        outputs += ["graph.tsv", "labels.tsv"]

    elif cfg.mode in ("certify-local", "attack"):
        G, y = _load_inputs(cfg)
        S = _build_scenario(cfg, G)
        H = _logits_for(cfg, G, y)
        graph.dump_scenario(S, outdir / "scenario.txt")
        outputs.append("scenario.txt")
        certs = policy_iter.certify_local_all(G, S, cfg.alpha, H)
        analysis.write_certificates_jsonl(certs, outdir / "certificates.jsonl")
        outputs.append("certificates.jsonl")
        full = y if y is not None and (y >= 0).all() else None
        report = analysis.build_report(certs, G, true_labels=full, purity_labels=y)
        analysis.write_summary_csv(report, outdir / "summary.csv")
        outputs.append("summary.csv")
        if cfg.mode == "attack":
            with (outdir / "attacks.jsonl").open("w", encoding="utf-8") as fh:
                for c in certs:
                    if c.status == "nonrobust" and len(c.witness):
                        fh.write(json.dumps({
                            "node": int(c.node),
                            "worst_margin": float(c.worst_margin),
                            "flips": [[int(a), int(b)] for a, b in c.witness.flips],
                        }) + "\n")
            outputs.append("attacks.jsonl")

    elif cfg.mode == "certify-global":
        G, y = _load_inputs(cfg)
        S = _build_scenario(cfg, G)
        H = _logits_for(cfg, G, y)
        graph.dump_scenario(S, outdir / "scenario.txt")
        outputs.append("scenario.txt")
        count = cfg.get_int("targets.count")
        if count is not None and count < G.node_count:
            rng = np.random.default_rng(cfg.get_int("targets.seed", 0))
            targets = np.sort(rng.choice(G.node_count, size=count, replace=False))
        else:
            targets = np.arange(G.node_count)
        tols = lp_solver.SolverTolerances(
            feasibility=cfg.get_float("solver.lp_feasibility", 1e-7),
            optimality=cfg.get_float("solver.lp_optimality", 1e-9),
        )
        certs = qclp_global.certify_global(
            G, S, cfg.alpha, H, targets,
            bound_method=cfg.get("solver.bound_method", "closed_form"),
            tols=tols,
        )
        analysis.write_certificates_jsonl(certs, outdir / "certificates.jsonl")
        outputs.append("certificates.jsonl")
        full = y if y is not None and (y >= 0).all() else None
        report = analysis.build_report(certs, G, true_labels=full, purity_labels=y)
        analysis.write_summary_csv(report, outdir / "summary.csv")
        outputs.append("summary.csv")

    elif cfg.mode == "train":
        G, y = _load_inputs(cfg)
        S = _build_scenario(cfg, G)
        X = _load_features(cfg)
        train_idx, val_idx, _ = models.train_val_test_split(
            y, per_class=cfg.get_int("train.per_class", 20), seed=cfg.seed
        )
        config = robust_train.RobustLossConfig(
            kind=cfg.get("train.loss", "ce"),
            hinge_margin=cfg.get_float("train.margin", 1.0),
            recompute_every=cfg.get_int("train.cadence", 1),
            learning_rate=cfg.get_float("train.lr", 1e-2),
            weight_decay=cfg.get_float("train.reg", 5e-2),
            patience=cfg.get_int("train.patience", 100),
            max_epochs=cfg.get_int("train.epochs", 1000),
            seed=cfg.seed,
        )
        model = models.init_mlp(
            X.shape[1], cfg.get_int("train.hidden", 64) or 0,
            int(y.max()) + 1, seed=cfg.seed,
        )
        trained, history = robust_train.train_robust(
            model, X, y, G, S, cfg.alpha, config, train_idx, val_idx,
        )
        models.save_model(trained, outdir / "model.bin")
        analysis.write_table_csv(
            outdir / "history.csv",
            ["epoch", "loss", "val_loss", "certified_ratio"],
            [(h["epoch"], float(h["loss"]), float(h["val_loss"]),
              float(h["certified_ratio"])) for h in history],
        )
        H = models.mlp_logits(trained, X)
        models.save_logits_csv(H, outdir / "logits.csv")
        outputs += ["model.bin", "history.csv", "logits.csv"]

    elif cfg.mode == "report":
        G, y = _load_inputs(cfg)
        records = analysis.read_certificates_jsonl(cfg.raw["paths.certificates"])
        full = y if y is not None and (y >= 0).all() else None
        report = analysis.build_report(records, G, true_labels=full, purity_labels=y)
        analysis.write_summary_csv(report, outdir / "summary.csv")
        outputs.append("summary.csv")

    _write_manifest(cfg, outdir, outputs)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pagecert",
        description="Certify PageRank-based node classifiers against "
                    "structural graph perturbations.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable); flags mirror config keys",
    )
    parser.add_argument("--validate", action="store_true",
                        help="check the config and exit without running")
    parser.add_argument("--from-manifest", metavar="MANIFEST",
                        help="re-run the exact configuration of a manifest")
    parser.add_argument("--list-keys", action="store_true",
                        help="print the documented config keys")
    args = parser.parse_args(argv)

    if args.list_keys:
        for key, doc in KNOWN_KEYS.items():
            print(f"{key:28s} {doc}")
        return 0

    try:
        raw: dict[str, str] = {}
        if args.from_manifest:
            manifest = json.loads(Path(args.from_manifest).read_text(encoding="utf-8"))
            raw.update(manifest["config"])
        if args.config:
            raw.update(load_config(args.config))
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            raw[key.strip()] = value.strip()
        if not raw:
            parser.print_usage(sys.stderr)
            return 2
        cfg = resolve_config(raw)
        for w in cfg.warnings:
            print(f"config warning: {w}", file=sys.stderr)
        if args.validate:
            for e in cfg.errors:
                print(f"config error: {e}", file=sys.stderr)
            print(f"{len(cfg.errors)} errors, {len(cfg.warnings)} warnings")
            return 2 if cfg.errors else 0
        if args.from_manifest:
            changed = _changed_inputs(manifest.get("input_digests", {}), cfg)
            if changed:
                print("validation error: inputs differ from the manifest: "
                      + ", ".join(changed), file=sys.stderr)
                return 4
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ppr.ConvergenceError, lp_solver.LpError,
            policy_iter.IterationCapError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (graph.GraphFormatError, graph.ScenarioValidationError,
            models.ModelError, qclp_global.BoundError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
