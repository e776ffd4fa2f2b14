"""Desk-scale toolkit for walls, flat walls, rural divisions, graph minors
and treewidth, with machine-checkable certificates throughout."""

from .common import SizeCapExceeded, Verdict
from .graph import Graph, complete_graph, cycle_graph, delete, graph_hash, induced_subgraph, \
    path_graph, union
from .decomposition import TreeDecomposition, closure_bag, exact_treewidth, make_small, width
from .decomposition import validate as validate_decomposition
from .minors import ContractionModel, MinorModel, SmoothContractionWitness, delta_y, \
    find_minor, subdivide, verify_contraction, verify_minor_model, verify_smooth_contraction
from .wall import Compass, FlatnessResult, SubdividedWall, bricks, compass, \
    disjoint_subwalls, extract_wall_from_gamma_contraction, identity_wall, is_flat, \
    layers, perimeter, refind_after_transform, subwall, verify_wall
# generators last: the wall() generator, not the .wall submodule, owns the name
from .generators import gamma, gamma_star, grid, lower_bound_graph, pyramid, wall
from .rural import RuralDivision, division_from_edge_lists, internal_flaps, trivial_division, \
    validate_rural
from .structure import HMinorFound, WeakStructureCertificate, apex_number, apex_reduce, \
    merge_flaps, pyramid_minor_model, trichotomy_check, verify_certificate

__all__ = [
    "SizeCapExceeded", "Verdict",
    "Graph", "complete_graph", "cycle_graph", "delete", "graph_hash",
    "induced_subgraph", "path_graph", "union",
    "TreeDecomposition", "closure_bag", "exact_treewidth", "make_small", "width",
    "validate_decomposition",
    "ContractionModel", "MinorModel", "SmoothContractionWitness", "delta_y",
    "find_minor", "subdivide", "verify_contraction",
    "verify_minor_model", "verify_smooth_contraction",
    "gamma", "gamma_star", "grid", "lower_bound_graph", "pyramid", "wall",
    "Compass", "FlatnessResult", "SubdividedWall", "bricks", "compass",
    "disjoint_subwalls", "extract_wall_from_gamma_contraction", "identity_wall",
    "is_flat", "layers", "perimeter", "refind_after_transform", "subwall", "verify_wall",
    "RuralDivision", "division_from_edge_lists", "internal_flaps",
    "trivial_division", "validate_rural",
    "HMinorFound", "WeakStructureCertificate", "apex_number", "apex_reduce", "merge_flaps",
    "pyramid_minor_model", "trichotomy_check", "verify_certificate",
]
