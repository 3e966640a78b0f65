"""Span tracing of pagecert's layers from outside the package.

``install`` wraps the public functions listed in ``WRAPPED`` at every
module attribute they are bound to (``qclp_global.apply_policy`` is a
binding separate from ``graph.apply_policy``; ``ppr.solve_transport`` is
also looked up from inside ``ppr``). A listed name that no longer exists
raises ``TraceSetupError``, so a rename cannot silently zero a layer
metric. Spans stay in memory until ``Tracer.dump``; ``layer_metrics`` turns
them into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import threading
import time

# module -> public names to wrap; "Class.method" wraps a classmethod.
WRAPPED = {
    "cli": ["main", "run"],
    "graph": ["load_graph", "load_labels", "build_scenario", "apply_policy",
              "dump_scenario", "DirectedGraph.from_edges"],
    "ppr": ["transition_matrix", "solve_transport", "ppr_vector", "mean_reward",
            "diffused_margins", "ppr_rows", "diffuse_transpose"],
    "policy_iter": ["optimize_local", "pair_worst_margins", "certify_local_all"],
    "qclp_global": ["build_aux_mdp", "policy_opt_graph_cache", "compute_upper_bounds",
                    "assemble_relaxed_lp", "recover_pagerank", "certify_global"],
    "lp_solver": ["solve_lp"],
    "robust_train": ["compute_worst_bundle", "robust_loss_and_grad", "train_robust"],
    "models": ["label_propagation_logits", "feature_propagation_logits", "mlp_forward",
               "mlp_backward", "mlp_logits", "predict", "save_model", "save_logits_csv"],
    "analysis": ["write_certificates_jsonl", "build_report", "write_summary_csv",
                 "write_table_csv"],
    "_parallel": ["map_parallel"],
}


class TraceSetupError(RuntimeError):
    """A wrapped name is missing from the package."""


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _witness_len(rec) -> int:
    return len(rec.witness if hasattr(rec, "witness") else rec.rounded_attack)


# Counters read at a wrapped call: span name -> fn(args, kwargs, result) -> dict.
PROBES = {
    "ppr.solve_transport": lambda a, k, r: {
        "cols": 1 if r.ndim == 1 else int(r.shape[1])},
    "policy_iter.optimize_local": lambda a, k, r: {"rounds": int(r.iterations)},
    "graph.build_scenario": lambda a, k, r: {"fragile": int(r.fragile_count)},
    "graph.dump_scenario": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "qclp_global.assemble_relaxed_lp": lambda a, k, r: {
        "vars": int(r.lp.n_vars), "rows": int(r.lp.n_rows)},
    "lp_solver.solve_lp": lambda a, k, r: {
        "pivots": int(r.stats.get("pivots", 0)),
        "violation": float(r.stats.get("max_violation", 0.0))},
    "robust_train.train_robust": lambda a, k, r: {"epochs": len(r[1])},
    "analysis.write_certificates_jsonl": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path")),
        "flips": sum(_witness_len(rec) for rec in _arg(a, k, 0, "records"))},
}


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self):
        self.spans: list[list] = []     # [id, parent, name, t0, t1, counts]
        self._local = threading.local()
        self._ids = 0
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                self._ids += 1
                sid = self._ids
            span = [sid, stack[-1] if stack else 0, name, 0.0, 0.0, {}]
            if name == "_parallel.map_parallel":
                args, kwargs = self._parent_tasks(sid, args, kwargs)
                span[5]["tasks"] = len(args[1])
            stack.append(sid)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if probe is not None:
                span[5].update(probe(args, kwargs, result))
            return result

        return traced

    def _parent_tasks(self, sid, args, kwargs):
        """map_parallel arguments whose tasks run under span sid, in any thread."""
        fn = _arg(args, kwargs, 0, "fn")
        items = list(_arg(args, kwargs, 1, "items"))

        def task(item):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(sid)
            try:
                return fn(item)
            finally:
                stack.pop()

        return (task, items), {}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer, package: str = "pagecert") -> None:
    """Wrap every name in WRAPPED at all its bindings."""
    import importlib

    modules = {m: importlib.import_module(f"{package}.{m}") for m in WRAPPED}
    mods = [mod for key, mod in sys.modules.items()
            if mod is not None and (key == package or key.startswith(package + "."))]
    for m, names in WRAPPED.items():
        for qual in names:
            owner, attr = modules[m], qual
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(owner, cls_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                raise TraceSetupError(f"{package}.{m}.{qual} no longer exists")
            span_name = f"{m}.{attr}"
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(span_name, raw.__func__)))
                continue
            if not callable(raw):
                raise TraceSetupError(f"{package}.{m}.{qual} is not a function")
            wrapped = tracer.wrap(span_name, raw)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        setattr(mod, key, wrapped)


def _self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for s in spans:
        covered, end = 0.0, s[3]
        for a, b in sorted(children.get(s[0], [])):
            a, b = max(a, end), min(b, s[4])
            if b > a:
                covered += b - a
                end = b
        out[s[0]] = (s[4] - s[3]) - covered
    return out


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced CLI run (see NOTES.md for the map)."""
    by_id = {s[0]: s for s in spans}
    self_t = _self_times(spans)

    def dur(*names):
        """Time in the named spans, counting a span nested in another of them once."""
        total = 0.0
        for s in spans:
            if s[2] not in names:
                continue
            parent = by_id.get(s[1])
            while parent is not None and parent[2] not in names:
                parent = by_id.get(parent[1])
            if parent is None:
                total += s[4] - s[3]
        return total

    def calls(*names):
        return sum(1 for s in spans if s[2] in names)

    def count(name, key):
        return sum(s[5].get(key, 0) for s in spans if s[2] == name)

    def self_of(layer):
        return sum(self_t[s[0]] for s in spans if s[2].split(".")[0] == layer)

    def under_certify_global(s):
        parent = by_id.get(s[1])
        while parent is not None and parent[2] == "_parallel.map_parallel":
            parent = by_id.get(parent[1])
        return parent is not None and parent[2] == "qclp_global.certify_global"

    verify = [s for s in spans if s[2] in ("graph.apply_policy", "ppr.ppr_rows")
              and under_certify_global(s)]
    lp_times = [s[4] - s[3] for s in spans if s[2] == "lp_solver.solve_lp"]
    epochs = count("robust_train.train_robust", "epochs")
    top = [s for s in spans if s[1] == 0]
    return {
        "cli.self_s": self_of("cli"),
        "cli.scenario_dump_s": dur("graph.dump_scenario"),
        "cli.scenario_bytes": count("graph.dump_scenario", "bytes"),
        "graph.load_s": dur("graph.load_graph", "graph.load_labels"),
        "graph.scenario_s": dur("graph.build_scenario"),
        "graph.fragile_edges": count("graph.build_scenario", "fragile"),
        "graph.from_edges_calls": calls("graph.from_edges"),
        "graph.from_edges_s": dur("graph.from_edges"),
        "ppr.solve_calls": calls("ppr.solve_transport"),
        "ppr.solve_cols": count("ppr.solve_transport", "cols"),
        "ppr.solve_s": dur("ppr.solve_transport"),
        "ppr.transition_calls": calls("ppr.transition_matrix"),
        "ppr.transition_s": dur("ppr.transition_matrix"),
        "policy_iter.optimize_calls": calls("policy_iter.optimize_local"),
        "policy_iter.rounds": count("policy_iter.optimize_local", "rounds"),
        "policy_iter.optimize_s": dur("policy_iter.optimize_local"),
        "policy_iter.self_s": self_of("policy_iter"),
        "qclp_global.bounds_s": dur("qclp_global.compute_upper_bounds",
                                    "qclp_global.policy_opt_graph_cache"),
        "qclp_global.assemble_calls": calls("qclp_global.assemble_relaxed_lp"),
        "qclp_global.assemble_s": dur("qclp_global.assemble_relaxed_lp"),
        "qclp_global.lp_vars": count("qclp_global.assemble_relaxed_lp", "vars"),
        "qclp_global.lp_rows": count("qclp_global.assemble_relaxed_lp", "rows"),
        "qclp_global.verify_calls": len(verify),
        "qclp_global.verify_s": sum(s[4] - s[3] for s in verify),
        "qclp_global.self_s": self_of("qclp_global"),
        "lp_solver.solve_calls": len(lp_times),
        "lp_solver.solve_s": sum(lp_times),
        "lp_solver.solve_p50_s": statistics.median(lp_times) if lp_times else 0.0,
        "lp_solver.pivots": count("lp_solver.solve_lp", "pivots"),
        "lp_solver.max_violation": max((s[5].get("violation", 0.0) for s in spans
                                        if s[2] == "lp_solver.solve_lp"), default=0.0),
        "robust_train.epochs": epochs,
        "robust_train.bundle_calls": calls("robust_train.compute_worst_bundle"),
        "robust_train.bundle_s": dur("robust_train.compute_worst_bundle"),
        "robust_train.loss_grad_s": dur("robust_train.robust_loss_and_grad"),
        "robust_train.epoch_s": dur("robust_train.train_robust") / epochs if epochs else 0.0,
        "robust_train.self_s": self_of("robust_train"),
        "models.logits_s": dur("models.label_propagation_logits",
                               "models.feature_propagation_logits", "models.mlp_logits"),
        "models.predict_s": dur("models.predict"),
        "models.mlp_s": dur("models.mlp_forward", "models.mlp_backward"),
        "analysis.report_s": dur("analysis.build_report"),
        "analysis.write_s": dur("analysis.write_certificates_jsonl",
                                "analysis.write_summary_csv", "analysis.write_table_csv"),
        "analysis.cert_bytes": count("analysis.write_certificates_jsonl", "bytes"),
        "analysis.witness_flips": count("analysis.write_certificates_jsonl", "flips"),
        "parallel.tasks": count("_parallel.map_parallel", "tasks"),
        "trace.unattributed_s": wall_s - sum(s[4] - s[3] for s in top),
    }
