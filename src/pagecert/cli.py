"""Command-line orchestration: config parsing, pipelines, and run manifests.

Config files are flat "key = value" lines with dotted keys ('#' comments);
every key can be overridden on the command line with --set key=value. The
``KEYS`` table gives each key its kind, default, doc and lower bound once;
``resolve_config`` parses every value against it before anything runs, so a
malformed or out-of-range value is a config error, and the pipelines read
only parsed values. Each run writes a manifest (resolved config, package
version, input digests) from which it can be reproduced byte-for-byte via
--from-manifest; a re-run first re-hashes the recorded inputs and stops with
exit 4 if one changed.

Exit codes: 0 ok, 2 config error, 3 solver error (a diverged training
loss included), 4 graph/scenario validation error (running out of memory
included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, analysis, graph, lp_solver, models, policy_iter, ppr
from . import qclp_global, robust_train


class ConfigError(ValueError):
    pass


_REQUIRED = {
    "certify-local": ["paths.graph", "paths.output"],
    "certify-global": ["paths.graph", "paths.output"],
    "train": ["paths.graph", "paths.features", "paths.labels", "paths.output"],
    "gen-sbm": ["paths.output", "sbm.n", "sbm.blocks", "sbm.p_in", "sbm.p_out"],
    "report": ["paths.graph", "paths.certificates", "paths.output"],
}


# key -> (kind, default, doc, least). kind is int, float, bool, str or the
# tuple of allowed strings; a None default leaves the key unset; least is the
# smallest value a numeric key accepts.
KEYS = {
    "mode": (tuple(_REQUIRED), None,
             "certify-local | certify-global | train | gen-sbm | report", None),
    "alpha": (float, 0.85, "damping factor (default 0.85)", None),
    "seed": (int, 0, "base RNG seed", 0),
    "paths.graph": (str, None, "edge-list input", None),
    "paths.labels": (str, None, "node<TAB>label input", None),
    "paths.features": (str, None,
                       "feature CSV/binary input (certify modes: feature propagation)", None),
    "paths.logits": (str, None,
                     "external logits CSV (takes precedence over features/labels)", None),
    "paths.certificates": (str, None, "certificates JSON-lines (input of report mode)",
                           None),
    "paths.output": (str, None, "output directory", None),
    "graph.symmetrize": (bool, True, "add reverse edges on load (default true)", None),
    "graph.lcc": (bool, False, "restrict to largest connected component (default false)",
                  None),
    "scenario.mode": (("remove-only", "add-and-remove"), "remove-only",
                      "remove-only | add-and-remove", None),
    "scenario.strength": (int, None, "local attack strength s", None),
    "scenario.global_budget": (int, None, "global budget B (blank = unlimited)", 0),
    "solver.bound_method": (("closed_form", "policy_opt"), "closed_form",
                            "closed_form | policy_opt", None),
    "targets.count": (int, None, "number of sampled targets for certify-global", 1),
    "targets.seed": (int, 0, "sampling seed", 0),
    "train.loss": (("ce", "rce", "cem"), "ce", "ce | rce | cem", None),
    "train.margin": (float, 1.0, "hinge margin M", 0),
    "train.lr": (float, 1e-2, "learning rate", 0),
    "train.reg": (float, 5e-2, "weight decay (default 5e-2)", 0),
    "train.patience": (int, 100, "early-stopping patience", 0),
    "train.epochs": (int, 1000, "max epochs", 1),
    "train.hidden": (int, 64, "hidden width (0 = linear)", 0),
    "train.per_class": (int, 20, "labeled nodes per class for train and val splits", 1),
    "sbm.n": (int, None, "node count", 1),
    "sbm.blocks": (int, None, "block count", 1),
    "sbm.p_in": (float, None, "within-block edge probability", None),
    "sbm.p_out": (float, None, "cross-block edge probability", None),
}

# the inputs a manifest digests: the only keys its "input_digests" may hold
DIGESTED_KEYS = ("paths.graph", "paths.labels", "paths.features", "paths.logits",
                 "paths.certificates")

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean"}


def load_config(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    out: dict[str, str] = {}
    for lineno, line in graph.read_lines(path, ConfigError):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_manifest(path) -> dict:
    """A manifest's JSON object: "config" and the optional "input_digests"
    map keys to strings, the digests' keys from DIGESTED_KEYS."""
    try:
        manifest = json.loads(Path(path).read_bytes())
    except ValueError as exc:   # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"manifest {path} is not JSON: {exc}") from None
    parts = ([manifest.get("config"), manifest.get("input_digests", {})]
             if isinstance(manifest, dict) else [None])
    if not all(isinstance(p, dict) and all(isinstance(v, str) for v in p.values())
               for p in parts):
        raise ConfigError(f'manifest {path} needs "config" (and any "input_digests") '
                          f'to be objects of strings')
    for key in parts[1]:
        if key not in DIGESTED_KEYS:
            raise ConfigError(f"manifest {path}: input_digests key {key!r} is not "
                              f"an input path ({', '.join(DIGESTED_KEYS)})")
    return manifest


def _parse(key: str, text: str):
    """One key's value from its text; a blank text means the default."""
    kind, default, _, least = KEYS[key]
    if not text:
        return default
    if isinstance(kind, tuple):
        if text not in kind:
            raise ConfigError(f"{key} must be {'|'.join(kind)}, got {text!r}")
        return text
    try:
        value = _BOOLS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: not {_KIND_NAMES[kind]}: {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: not a finite number: {text!r}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return value


@dataclass
class RunConfig:
    """A resolved flat config: the raw text and every ``KEYS`` entry parsed.

    ``cfg[key]`` reads a parsed value; a key missing from ``KEYS`` raises
    ``KeyError``.
    """

    raw: dict[str, str]
    values: dict[str, object] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def __getitem__(self, key: str):
        return self.values[key]


def resolve_config(raw: dict[str, str]) -> RunConfig:
    cfg = RunConfig(raw=dict(raw))
    for key in raw:
        if key not in KEYS:
            cfg.warnings.append(f"unknown key {key!r} ignored")
    for key, (_, default, _, _) in KEYS.items():
        try:
            cfg.values[key] = _parse(key, raw.get(key, ""))
        except ConfigError as exc:
            cfg.errors.append(str(exc))
            cfg.values[key] = default
    mode = cfg["mode"]
    if mode is None:
        if not raw.get("mode"):
            cfg.errors.append("mode required")
        return cfg
    for key in _REQUIRED[mode]:
        if not raw.get(key):
            cfg.errors.append(f"{key} required for mode {mode}")
    if not 0.0 < cfg["alpha"] < 1.0:
        cfg.errors.append(f"alpha must be in (0, 1), got {cfg['alpha']}")
    n, blocks = cfg["sbm.n"], cfg["sbm.blocks"]
    if n is not None and blocks is not None and n < blocks:
        cfg.errors.append(f"sbm.n must be >= sbm.blocks, got {n} < {blocks}")
    p_in, p_out = cfg["sbm.p_in"], cfg["sbm.p_out"]
    if p_in is not None and p_out is not None and not 0.0 <= p_out <= p_in <= 1.0:
        cfg.errors.append(f"sbm.p_in and sbm.p_out need 0 <= p_out <= p_in <= 1, "
                          f"got p_in {p_in}, p_out {p_out}")
    s = cfg["scenario.strength"]
    if s is not None and s < 0:
        cfg.warnings.append("scenario.strength is negative; budgets clamp at 0")
    return cfg


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _changed_inputs(digests: dict[str, str], cfg: RunConfig) -> list[str]:
    """Recorded input keys whose file is now missing or has another digest."""
    changed = []
    for key, digest in sorted(digests.items()):
        p = cfg[key]
        if not p or not Path(p).is_file():
            changed.append(f"{key} (missing)")
        elif _sha256(Path(p)) != digest:
            changed.append(f"{key} (digest mismatch)")
    return changed


def _load_inputs(cfg: RunConfig):
    """The graph, its labels (None without paths.labels) and its nodes: the
    input graph's node count and the input id of each loaded node. With
    graph.lcc the loaded graph is the largest connected component, its
    nodes numbered 0..n'-1 in increasing input id."""
    G = graph.load_graph(cfg["paths.graph"], symmetrize=cfg["graph.symmetrize"])
    count, kept = G.node_count, np.arange(G.node_count)
    if cfg["graph.lcc"]:
        G, kept = graph.largest_connected_component(G)
    y = None
    if cfg["paths.labels"]:
        y = graph.load_labels(cfg["paths.labels"], count)[kept]
    return G, y, (count, kept)


def _build_scenario(cfg: RunConfig, G: graph.DirectedGraph, nodes):
    """The configured scenario; a sink node of G, on which no PageRank solve
    is defined, is refused here, before any output is written, and named by
    its input id (nodes as from _load_inputs)."""
    sinks = nodes[1][G.out_degree == 0]
    if sinks.size:
        raise graph.GraphFormatError(
            f"{cfg['paths.graph']}: node {sinks[0]} has no outgoing edge, which "
            "PageRank needs at every node (graph.symmetrize = true adds one)")
    return graph.build_scenario(G, mode=cfg["scenario.mode"],
                                strength=cfg["scenario.strength"],
                                global_budget=cfg["scenario.global_budget"])


def _node_rows(what: str, M: np.ndarray, nodes) -> np.ndarray:
    """The rows of the loaded nodes of M, which has one row per input node."""
    count, kept = nodes
    if M.shape[0] != count:
        raise ConfigError(f"{what} rows {M.shape[0]} != node count {count}")
    return M[kept]


def _logits_for(cfg: RunConfig, G: graph.DirectedGraph, y, nodes):
    """Logits source, by precedence: external CSV, feature propagation
    (features + labels), one-hot label propagation."""
    if cfg["paths.logits"]:
        return _node_rows("logits", models.load_logits_csv(cfg["paths.logits"]),
                          nodes)
    if y is None:
        raise ConfigError("need paths.logits or paths.labels to form logits")
    K = _class_count(cfg, y)
    if cfg["paths.features"]:
        H, _ = models.feature_propagation_logits(
            G, cfg["alpha"], _load_features(cfg, nodes), y, seed=cfg["seed"])
        return H
    return models.label_propagation_logits(y, G.node_count, K)


def _class_count(cfg: RunConfig, y: np.ndarray) -> int:
    K = int(y.max()) + 1
    if K < 2:
        raise models.ModelError(f"{cfg['paths.labels']}: labels define fewer than two classes")
    return K


def _load_features(cfg: RunConfig, nodes) -> np.ndarray:
    fpath = Path(cfg["paths.features"])
    X = (models.load_features_bin(fpath) if fpath.suffix == ".bin"
         else models.load_features_csv(fpath))
    return _node_rows("features", X, nodes)


def _sample_targets(cfg: RunConfig, node_count: int) -> np.ndarray:
    """certify-global's targets: targets.count nodes drawn with targets.seed,
    or every node."""
    count = cfg["targets.count"]
    if count is None or count >= node_count:
        return np.arange(node_count)
    rng = np.random.default_rng(cfg["targets.seed"])
    return np.sort(rng.choice(node_count, size=count, replace=False))


def _write_manifest(cfg: RunConfig, outdir: Path, outputs: list[str]) -> None:
    digests = {}
    for key in DIGESTED_KEYS:
        p = cfg[key]
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


def _check_output_dir(outdir: Path) -> None:
    """Refuse an output directory that cannot be made, before any input is
    read: its nearest existing ancestor must be a writable directory."""
    ancestor = outdir.absolute()
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise OSError(f"paths.output {outdir}: {ancestor} is not a writable directory")


def run(cfg: RunConfig) -> int:
    """Execute the configured pipeline; returns a process exit status."""
    if cfg.errors:
        for e in cfg.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    mode, alpha, seed = cfg["mode"], cfg["alpha"], cfg["seed"]
    # the output directory is made just before the first write, so a run
    # refused for a bad input leaves none behind
    outdir = Path(cfg["paths.output"])
    _check_output_dir(outdir)
    outputs: list[str] = []

    if mode == "gen-sbm":
        n, blocks = cfg["sbm.n"], cfg["sbm.blocks"]
        G = graph.generate_sbm(n, blocks, cfg["sbm.p_in"], cfg["sbm.p_out"], seed)
        labels = graph.sbm_block_labels(n, blocks)
        epath, lpath = outdir / "graph.tsv", outdir / "labels.tsv"
        outdir.mkdir(parents=True, exist_ok=True)
        with epath.open("w", encoding="utf-8") as fh:
            for s, d in G.edges:
                fh.write(f"{s}\t{d}\n")
        with lpath.open("w", encoding="utf-8") as fh:
            for v, c in enumerate(labels):
                fh.write(f"{v}\t{c}\n")
        outputs += ["graph.tsv", "labels.tsv"]

    elif mode == "train":
        G, y, nodes = _load_inputs(cfg)
        S = _build_scenario(cfg, G, nodes)
        X = _load_features(cfg, nodes)
        train_idx, val_idx, _ = models.train_val_test_split(
            y, per_class=cfg["train.per_class"], seed=seed
        )
        K = _class_count(cfg, y)
        config = robust_train.RobustLossConfig(
            kind=cfg["train.loss"],
            hinge_margin=cfg["train.margin"],
            learning_rate=cfg["train.lr"],
            weight_decay=cfg["train.reg"],
            patience=cfg["train.patience"],
            max_epochs=cfg["train.epochs"],
        )
        model = models.init_mlp(X.shape[1], cfg["train.hidden"], K, seed=seed)
        trained, history = robust_train.train_robust(
            model, X, y, G, S, alpha, config, train_idx, val_idx,
        )
        outdir.mkdir(parents=True, exist_ok=True)
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

    else:  # certify-local, certify-global, report
        G, y, nodes = _load_inputs(cfg)
        if mode == "report":
            certs = analysis.read_certificates_jsonl(cfg["paths.certificates"])
            analysis.check_nodes(certs, G.node_count, cfg["paths.certificates"])
        else:
            S = _build_scenario(cfg, G, nodes)
            H = _logits_for(cfg, G, y, nodes)
            outdir.mkdir(parents=True, exist_ok=True)
            graph.dump_scenario(S, outdir / "scenario.txt")
            outputs.append("scenario.txt")
            if mode == "certify-global":
                certs = qclp_global.certify_global(
                    G, S, alpha, H, _sample_targets(cfg, G.node_count),
                    bound_method=cfg["solver.bound_method"],
                )
            else:
                certs = policy_iter.certify_local_all(G, S, alpha, H)
            analysis.write_certificates_jsonl(certs, outdir / "certificates.jsonl")
            outputs.append("certificates.jsonl")
        full = y if y is not None and (y >= 0).all() else None
        rows = analysis.build_report(certs, G, labels=full)
        outdir.mkdir(parents=True, exist_ok=True)
        analysis.write_summary_csv(rows, outdir / "summary.csv")
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
        for key, (_, _, doc, _) in KEYS.items():
            print(f"{key:28s} {doc}")
        return 0

    try:
        raw: dict[str, str] = {}
        if args.from_manifest:
            manifest = load_manifest(args.from_manifest)
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
            policy_iter.IterationCapError,
            robust_train.TrainingDivergedError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (graph.GraphFormatError, graph.ScenarioValidationError,
            models.ModelError, ppr.KernelInputError, qclp_global.BoundError,
            analysis.CertificateFormatError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print(f"validation error: mode {raw.get('mode')} ran out of memory; the "
              "input is too large for this host", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
