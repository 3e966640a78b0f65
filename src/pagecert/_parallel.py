"""Ordered map over the global route's independent tasks.

qclp_global maps certify_global's targets and the policy_opt bound
cache's per-node runs over it. Local certificates and training run their
class pairs in one lockstep loop (policy_iter) and do not use it. The
tasks run one after another, in input order; keeping them behind one name
gives a profiler one span per map.
"""

from __future__ import annotations


def map_parallel(fn, items):
    """[fn(it) for it in items], in input order."""
    return [fn(it) for it in items]
