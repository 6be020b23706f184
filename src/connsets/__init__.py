"""Exact counting of connected induced vertex subsets in small graphs.

The package provides a bitmask graph engine with exact isomorphism
certificates, a brute-force counting oracle plus the identification
algebra built on top of it, constructors and closed forms for the named
bicyclic families, isomorph-free enumeration of small trees and bicyclic
graphs, the count-monotone surgeries, and a verification harness that
replays the extremal claims over exhaustive small-order corpora.

Layers load on demand: ``import connsets`` loads none of them, and each
exported name imports its home module the first time it is read (PEP 562).
"""

import importlib

# Home module of each exported name.
_EXPORTS = {
    "canon": ("canonical_certificate", "canonical_form", "is_isomorphic"),
    "counting": (
        "CountResult",
        "RootedCount",
        "combine_identified",
        "extend_pendant",
        "oracle_count",
        "oracle_count_pair",
        "oracle_count_rooted",
        "smart_count",
        "smart_count_pair",
        "smart_count_rooted",
        "tree_rooted_count",
    ),
    "enumeration": (
        "enumerate_bicyclic",
        "enumerate_trees",
        "extract_core",
        "generate_bicyclic",
        "pendant_free_core",
    ),
    "errors": (
        "ConnsetsError",
        "ContractViolationError",
        "DEFAULT_ORACLE_CAP",
        "FormatError",
        "ResourceCapError",
    ),
    "families": (
        "E_THETA",
        "FamilySpec",
        "build",
        "closed_form",
        "e_graph_reference",
        "parse_family_spec",
    ),
    "graphs": (
        "Graph",
        "bits",
        "components",
        "cut_vertices",
        "delete_vertices",
        "from_edge_list",
        "from_graph6",
        "induced_is_connected",
        "is_connected",
        "mask_of",
        "pendant_vertices",
        "subgraph",
        "to_edge_list",
        "to_graph6",
    ),
    "transforms": (
        "BranchShift",
        "TransformOutcome",
        "branch_shift",
        "cycle_to_tadpole",
        "glue_at",
        "part_to_q",
        "subtree_to_star",
    ),
    "verify": (
        "VerificationReport",
        "reports_to_csv",
        "verify_closed_forms",
        "verify_lemma_algebra",
        "verify_maximum",
        "verify_minimum",
        "verify_tree_bound",
        "verify_vertex_bound",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
