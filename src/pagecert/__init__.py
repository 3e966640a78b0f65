"""pagecert: robustness certification for PageRank-based node classifiers.

Certifies (or refutes, with concrete adversarial graphs) the robustness of
classifiers whose predictions are linear in personalized PageRank, against
edge insertions/deletions under per-node and global budgets, and trains
models that maximize their certified margins.
"""

__version__ = "0.1.0"

from .graph import (  # noqa: F401
    DirectedGraph,
    PerturbationScenario,
    apply_policy,
    build_scenario,
    generate_sbm,
    load_graph,
    load_labels,
)
from .ppr import diffused_margins, mean_reward, ppr_vector  # noqa: F401
from .policy_iter import certify_local_all, optimize_local  # noqa: F401
from .qclp_global import (  # noqa: F401
    assemble_relaxed_lp,
    build_aux_mdp,
    certify_global,
    compute_upper_bounds,
    recover_pagerank,
)
from .lp_solver import (  # noqa: F401
    LinearProgram,
    LpSolution,
    solve_lp,
)
from .models import (  # noqa: F401
    feature_propagation_logits,
    label_propagation_logits,
    mlp_logits,
    predict,
)
from .robust_train import (  # noqa: F401
    RobustLossConfig,
    compute_worst_bundle,
    loss_cem,
    loss_rce,
    train_robust,
)
from .analysis import certified_accuracy, neighborhood_purity  # noqa: F401
