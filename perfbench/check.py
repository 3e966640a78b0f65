"""Output checks against references recorded at the seed commit.

``extract`` reads what a check needs from one run's output directory;
the reference files under ``reference/`` hold the same extract for each
bank seed. ``compare`` returns None when a run passes, else the reason.

Tolerances:
- certify-local: identical status per node, and worst_margin within
  LOCAL_MARGIN_TOL (the program's MARGIN_EPS band) of the reference.
- certify-global: the same targets, lower_bound_margin within the LP
  feasibility tolerance (solver.lp_feasibility, default 1e-7), and every
  "nonrobust-witnessed" record replays, by an independent dense PageRank
  solve, to a negative margin on its rounded attack.
- train: the reference epoch count, finite losses, and a final loss within
  TRAIN_LOSS_RTOL (relative) of the reference.
Whether certificates.jsonl / summary.csv are byte-identical to the reference
is recorded but not gated.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

LOCAL_MARGIN_TOL = 1e-7
LP_FEASIBILITY_TOL = 1e-7
TRAIN_LOSS_RTOL = 1e-6
ALPHA = 0.85
BYTE_CHECKED = ("certificates.jsonl", "summary.csv")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def extract(kind: str, outdir: Path) -> dict:
    out: dict = {"digests": {f: _digest(outdir / f) for f in BYTE_CHECKED
                             if (outdir / f).exists()}}
    if kind == "local":
        status, margins = [], []
        with (outdir / "certificates.jsonl").open(encoding="utf-8") as fh:
            for t, line in enumerate(fh):
                # the head of each record, without the long witness list
                rec = json.loads(line.split(', "witness_flips"', 1)[0] + "}")
                if rec["node"] != t:
                    raise ValueError(f"record {t} is for node {rec['node']}")
                status.append("r" if rec["status"] == "robust" else "n")
                margins.append(rec["worst_margin"])
        out.update(status="".join(status), margins=margins)
    elif kind == "global":
        with (outdir / "certificates.jsonl").open(encoding="utf-8") as fh:
            recs = [json.loads(line) for line in fh]
        out["records"] = [[r["node"], r["y"], r["status"], r["worst_margin"],
                           r["witness_flips"]] for r in recs]
    elif kind == "train":
        rows = (outdir / "history.csv").read_text(encoding="utf-8").splitlines()[1:]
        out["losses"] = [[float(v) for v in row.split(",")[1:3]] for row in rows]
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    return out


def _replay_margin(edges: np.ndarray, labels: dict, n: int, node: int, y: int,
                   flips) -> float:
    """Margin of node under its rounded attack, from the input files alone."""
    A = np.zeros((n, n))
    A[edges[:, 0], edges[:, 1]] = 1.0
    A[edges[:, 1], edges[:, 0]] = 1.0
    for a, b in flips:
        A[a, b] = 1.0 - A[a, b]
    P = A / A.sum(axis=1, keepdims=True)
    e = np.zeros(n)
    e[node] = 1.0
    pi = (1.0 - ALPHA) * np.linalg.solve(np.eye(n) - ALPHA * P.T, e)
    K = max(labels.values()) + 1
    H = np.zeros((n, K))
    for v, c in labels.items():
        H[v, c] = 1.0
    diffs = pi @ H
    return float(diffs[y] - max(diffs[c] for c in range(K) if c != y))


def compare(kind: str, got: dict, ref: dict, inputs: dict) -> str | None:
    if kind == "local":
        if len(got["status"]) != len(ref["status"]):
            return f"{len(got['status'])} certificates, reference has {len(ref['status'])}"
        bad = [t for t, (a, b) in enumerate(zip(got["status"], ref["status"])) if a != b]
        if bad:
            return f"{len(bad)} nodes changed status, first {bad[0]}"
        err = max(abs(a - b) for a, b in zip(got["margins"], ref["margins"]))
        if not err <= LOCAL_MARGIN_TOL:
            return f"worst_margin off by {err:.3e} > {LOCAL_MARGIN_TOL:g}"
        return None
    if kind == "global":
        nodes = [r[0] for r in got["records"]]
        if nodes != [r[0] for r in ref["records"]]:
            return f"targets {nodes} differ from the reference"
        err = max(abs(a[3] - b[3]) for a, b in zip(got["records"], ref["records"]))
        if not err <= LP_FEASIBILITY_TOL:
            return f"lower_bound_margin off by {err:.3e} > {LP_FEASIBILITY_TOL:g}"
        witnessed = [r for r in got["records"] if r[2] == "nonrobust-witnessed"]
        if witnessed:
            pairs = np.loadtxt(inputs["paths"]["graph"], dtype=np.int64, ndmin=2)
            lab = np.loadtxt(inputs["paths"]["labels"], dtype=np.int64, ndmin=2)
            labels = {int(v): int(c) for v, c in lab}
            for node, y, _, _, flips in witnessed:
                m = _replay_margin(pairs, labels, inputs["N"], node, y, flips)
                if not m < 0.0:
                    return f"witnessed attack on node {node} replays to margin {m:.3e}"
        return None
    if kind == "train":
        losses = got["losses"]
        if len(losses) != len(ref["losses"]):
            return f"{len(losses)} epochs, reference has {len(ref['losses'])}"
        if not all(math.isfinite(v) for row in losses for v in row):
            return "non-finite loss"
        a, b = losses[-1][0], ref["losses"][-1][0]
        if not abs(a - b) <= TRAIN_LOSS_RTOL * abs(b):
            return f"final loss {a!r} differs from reference {b!r}"
        return None
    raise ValueError(f"unknown check kind {kind!r}")


def byte_identical(got: dict, ref: dict) -> bool:
    return got["digests"] == ref["digests"]
