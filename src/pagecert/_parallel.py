"""Bounded worker pool for the global route.

qclp_global maps certify_global's targets and the policy_opt bound
cache's per-node runs over it. Local certificates and training run their
class pairs in one lockstep loop (policy_iter) and use no pool. Tasks are
pure functions over immutable inputs, so results are identical whatever
the interleaving; they are always merged in submission order.
CERT_THREADS controls the pool width (default 1 = sequential, the most
reproducible setting; the work is numpy-bound so threads help mainly on
large instances where BLAS releases the GIL).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    raw = os.environ.get("CERT_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_parallel(fn, items):
    """map() preserving input order, threaded when CERT_THREADS > 1."""
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))
