"""Block layouts of fixed-topology binary trees for external memory.

The package lays a static binary tree out into size-B blocks (or into a
single block-size-independent linear order) so that the worst-case number
of distinct blocks touched on any root-to-node path is near-minimal, and
ships the measurement side: a transfer-cost simulator, a piecewise
theoretical cost bound, an adversarial tree generator, and a brute-force
optimal-layout oracle for tiny instances.
"""

from .tree import (
    TreeError,
    ResourceLimitError,
    TreeTopology,
    build_tree,
    compute_weights,
    gen_perfect,
    gen_path,
    gen_random,
    gen_lower_bound,
    iter_shapes,
    shape_of,
    shape_to_tree,
    mirror_shape,
    json_text,
    read_json,
    tree_to_json,
    tree_from_json,
    save_tree,
    load_tree,
)
from .aware import (
    BlockAssignment,
    k_set,
    phase2_layout,
    layout_aware,
    exclusion_violations,
    padded_order,
    layout_to_json,
    layout_from_json,
)
from .oblivious import (
    LinearOrder,
    layout_oblivious,
    refinement_levels,
    block_ids,
    order_to_json,
    order_from_json,
)
from .cost import (
    CostReport,
    path_cost,
    cost_report,
    worst_by_offset,
    theoretical_bound,
    solve_p,
    budget_along_path,
    brute_force_optimal,
)

__version__ = "0.1.0"
