"""Exact counting of connected induced vertex subsets in small graphs.

The package provides a bitmask graph engine with exact isomorphism
certificates, a brute-force counting oracle plus the identification
algebra built on top of it, constructors and closed forms for the named
bicyclic families, isomorph-free enumeration of small trees and bicyclic
graphs, the count-monotone surgeries, and a verification harness that
replays the extremal claims over exhaustive small-order corpora.
"""

from .canon import canonical_certificate, canonical_form, is_isomorphic
from .counting import (
    CountResult,
    DEFAULT_ORACLE_CAP,
    RootedCount,
    combine_identified,
    extend_pendant,
    oracle_count,
    oracle_count_pair,
    oracle_count_rooted,
    smart_count,
    smart_count_pair,
    smart_count_rooted,
    tree_rooted_count,
)
from .enumeration import (
    enumerate_bicyclic,
    enumerate_trees,
    extract_core,
    generate_bicyclic,
    pendant_free_core,
)
from .errors import ConnsetsError, ContractViolationError, FormatError, ResourceCapError
from .families import (
    E_THETA,
    FamilySpec,
    build,
    closed_form,
    e_graph_reference,
    parse_family_spec,
)
from .graphs import (
    Graph,
    bits,
    components,
    cut_vertices,
    delete_vertices,
    from_edge_list,
    from_graph6,
    induced_is_connected,
    is_connected,
    mask_of,
    pendant_vertices,
    subgraph,
    to_edge_list,
    to_graph6,
)
from .transforms import (
    BranchShift,
    TransformOutcome,
    branch_shift,
    cycle_to_tadpole,
    glue_at,
    part_to_q,
    subtree_to_star,
)
from .verify import (
    VerificationReport,
    reports_to_csv,
    verify_closed_forms,
    verify_lemma_algebra,
    verify_maximum,
    verify_minimum,
    verify_tree_bound,
    verify_vertex_bound,
)

__all__ = [
    "BranchShift",
    "ConnsetsError",
    "ContractViolationError",
    "CountResult",
    "DEFAULT_ORACLE_CAP",
    "E_THETA",
    "FamilySpec",
    "FormatError",
    "Graph",
    "ResourceCapError",
    "RootedCount",
    "TransformOutcome",
    "VerificationReport",
    "bits",
    "branch_shift",
    "build",
    "canonical_certificate",
    "canonical_form",
    "closed_form",
    "combine_identified",
    "components",
    "cut_vertices",
    "cycle_to_tadpole",
    "delete_vertices",
    "e_graph_reference",
    "enumerate_bicyclic",
    "enumerate_trees",
    "extend_pendant",
    "extract_core",
    "from_edge_list",
    "from_graph6",
    "generate_bicyclic",
    "glue_at",
    "induced_is_connected",
    "is_connected",
    "is_isomorphic",
    "mask_of",
    "oracle_count",
    "oracle_count_pair",
    "oracle_count_rooted",
    "parse_family_spec",
    "part_to_q",
    "pendant_free_core",
    "pendant_vertices",
    "reports_to_csv",
    "smart_count",
    "smart_count_pair",
    "smart_count_rooted",
    "subgraph",
    "subtree_to_star",
    "to_edge_list",
    "to_graph6",
    "tree_rooted_count",
    "verify_closed_forms",
    "verify_lemma_algebra",
    "verify_maximum",
    "verify_minimum",
    "verify_tree_bound",
    "verify_vertex_bound",
]

__version__ = "0.1.0"
