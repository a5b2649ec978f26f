"""Divisorial combinatorics of finite posets with a unique bottom.

The package computes, for a finite poset P with bottom x0 and a virtual
top, the integer labelings that form the twisted modules T^(n), their
minimal generators, the reduced alternating sequences that witness
minimality, polytope sections of the fiber cones with their dimensions,
analytic spreads, levelness and Gorenstein tests, and piece-counting
tables for the twisted construction in prime characteristic.
"""

from importlib import import_module

# module -> the public names it defines; each module is imported on the
# first access to one of its names (PEP 562), so a command loads only the
# modules it runs
_HOMES = {
    "birkhoff": (
        "DistLattice",
        "build_dist_lattice",
        "hibi_generators",
        "is_distributive",
        "join_irreducibles",
        "lattice_from_poset",
        "poset_isomorphic",
    ),
    "cones": (
        "ConeSection",
        "build_C",
        "dim_bruteforce",
        "dim_formula",
        "ehrhart_counts",
        "is_standard",
        "lattice_points",
    ),
    "corpus": ("BUILTIN_NAMES", "all_builtins", "builtin", "upward_pure"),
    "documents": ("PosetDocument", "parse_poset_document", "serialize_poset_document"),
    "errors": (
        "BudgetExceeded",
        "DocumentError",
        "InvalidPoset",
        "NotALattice",
        "NotDistributive",
    ),
    "fiber": (
        "analytic_spread",
        "degree_range",
        "fiber_cone_decomposition",
        "fiber_hilbert",
        "generators_via_sequences",
        "is_anticanonical_level",
        "is_gorenstein",
        "is_level",
    ),
    "frobenius": (
        "Budget",
        "TComplexityTable",
        "c_e_ehrhart",
        "c_e_fiber",
        "h_e_ehrhart",
        "h_e_fiber",
        "t_piece",
        "tcx_report",
    ),
    "labelings": (
        "Labeling",
        "exist_witness",
        "from_dict",
        "generators",
        "in_T",
        "indicator",
        "is_minimal",
        "label_max",
        "label_min",
        "leq_T",
        "split",
        "truncate",
        "zero_labeling",
    ),
    "poset": (
        "TOP",
        "Poset",
        "build_poset",
        "dist",
        "is_pure",
        "p_nonmax",
        "p_nonmin",
        "poset_ideals",
        "qdist",
    ),
    "sequences": (
        "CondNSeq",
        "as_seq",
        "enumerate_N",
        "is_q_reduced",
        "mu",
        "nu_down",
        "nu_up",
        "q0",
        "q_max",
        "q_value",
        "satisfies_condN",
        "shifted_family",
        "witness_sequence",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
