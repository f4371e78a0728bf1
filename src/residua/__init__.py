"""residua: ordinal-indexed residual chains for computable groups.

Chain construction and combinators, seeded probe-based verification with
committed-file-friendly certificates, coset trees with the stabilizer-chain
correspondence, a brute-force finite-group oracle, and the group expression
language gluing them to the command line.
"""

__version__ = "0.1.0"

from .ordinal import (  # noqa: F401
    ALEPH0,
    OMEGA,
    OMEGA_OMEGA,
    ONE,
    ZERO,
    CardinalBound,
    Comparison,
    DepthClass,
    Ordinal,
    add,
    classify,
    compare,
    decompose_successor,
    format_ordinal,
    left_subtract,
    multiply,
    omega_absorbs,
    parse_ordinal,
)
from .elements import Element, Group, GroupError  # noqa: F401
from .groups import (  # noqa: F401
    CountablePoints,
    ExtensionHandle,
    FinitePoints,
    PointSet,
    extension_from_quotient,
    finite_support_power,
    make_alternating,
    make_cyclic,
    make_infinite_dihedral,
    make_integers,
    make_perm,
    make_symmetric,
    wreath_product,
)
from .subgroups import commutator_subgroup  # noqa: F401
from .stages import SubgroupDescriptor  # noqa: F401
from .chains import (  # noqa: F401
    ChainCertificate,
    ChainSchema,
    DepthInterval,
    chain_at,
    compress_successor_tail,
    concat_extension,
    core_sandwich,
    dihedral_chain,
    finite_chain,
    integers_chain,
    limit_membership,
    promote_to_omega,
    single_step_chain,
    verify_prefix,
)
from .powers import diagonal_power_chain, power_chain, tower_chain  # noqa: F401
from .trees import (  # noqa: F401
    AlphaTreeSchema,
    TreeAutomorphism,
    TreeTruncation,
    act,
    coset_tree,
    emit,
    parse_truncation,
    restriction_map,
    stabilizer_chain,
    truncate,
    verify_simple,
)
from .oracle import (  # noqa: F401
    SubgroupLattice,
    all_subgroups,
    chain_enumerate,
    core_up_to_index,
    depth_exact_finite,
    min_kappa,
)
from .dsl import parse_expr, print_expr  # noqa: F401
from .catalog import (  # noqa: F401
    build_group,
    chain_for,
    depth_interval,
    register_extension,
)
