"""Liberation-set certificates, direct-sum spectral gluing, and
zero-forcing covers for symmetric matrix patterns."""

__version__ = "0.1.0"

# Names of the replay targets. They live here, not in the replay corpus, so
# the CLI can list them without importing it.
REGISTRY = ("k4k1", "g151", "g100", "g127g169", "g163", "c6c8", "k14",
            "k13k13", "g129", "g171", "g175", "pmpn", "prism", "table6")

from .continuation import (LiberateResult, LowRankResult,
                           complete_pattern_low_rank, liberate,
                           realize_in_pattern, realize_spectrum)
from .directsum import (DirectSumCertificate, SylvesterSpace,
                        directsum_liberation, is_generic, sylvester_space)
from .exactla import (RatMatrix, charpoly, commutator, direct_sum,
                      kernel_basis, parse_matrix_text, rank, rref)
from .graphs import (CatalogEntry, EdgeSet, Graph, add_edges, bridge_set,
                     build_graph, cartesian_product, catalog, catalog_entry,
                     complement, complete_bipartite, complete_graph,
                     cycle_graph, disjoint_union, empty_graph, nonedge_set,
                     path_graph, product_index, read_graph, star_graph,
                     write_graph)
from .liberation import (GraphLiberationVerdict, LiberationCertificate,
                         enumerate_minimal_liberation_sets,
                         is_graph_liberation_set, is_liberation_set)
from .numla import (MultiplicityList, SymMatrix, multiplicity_list,
                    numeric_rank, random_orthogonal, read_float_matrix,
                    sym_eigen)
from .patterns import in_class, pair_position, pattern_of, sample_S
from .strongprops import (StrongPropertyResult, VerificationMatrix,
                          has_strong_property, has_strong_property_wrt, psi,
                          wrt_kernel_check)
from .zeroforcing import (ColorState, ZfLiberationReport, ZfNumber, closure,
                          cover_to_bridge, is_local_zf_cover, is_zf_cover,
                          is_zf_set, local_closure, zero_forcing_number,
                          zf_liberation)

__all__ = [
    "__version__",
    # graphs
    "Graph", "EdgeSet", "CatalogEntry", "build_graph", "add_edges",
    "complement", "disjoint_union", "cartesian_product", "product_index",
    "nonedge_set", "bridge_set", "read_graph", "write_graph", "catalog",
    "catalog_entry", "path_graph", "cycle_graph", "complete_graph",
    "complete_bipartite", "star_graph", "empty_graph",
    # exact and numeric linear algebra
    "RatMatrix", "charpoly", "commutator", "direct_sum", "kernel_basis",
    "parse_matrix_text", "rank", "rref", "SymMatrix", "MultiplicityList",
    "sym_eigen", "multiplicity_list", "numeric_rank", "random_orthogonal",
    "read_float_matrix",
    # patterns
    "in_class", "pattern_of", "pair_position", "sample_S",
    # verification and liberation
    "psi", "VerificationMatrix", "StrongPropertyResult",
    "has_strong_property", "has_strong_property_wrt", "wrt_kernel_check",
    "LiberationCertificate", "GraphLiberationVerdict", "is_liberation_set",
    "enumerate_minimal_liberation_sets", "is_graph_liberation_set",
    # direct sums
    "DirectSumCertificate", "SylvesterSpace", "directsum_liberation",
    "sylvester_space", "is_generic",
    # zero forcing
    "ColorState", "ZfNumber", "ZfLiberationReport", "closure",
    "local_closure", "zero_forcing_number", "is_zf_set", "is_zf_cover",
    "is_local_zf_cover", "cover_to_bridge", "zf_liberation",
    # continuation
    "LiberateResult", "LowRankResult", "liberate", "realize_spectrum",
    "realize_in_pattern", "complete_pattern_low_rank",
    # replays
    "REGISTRY", "ReproduceReport", "reproduce",
]


def __getattr__(name):
    # The replay corpus is the package's largest module and only reproduce()
    # needs it, so it is imported on first use of one of its names.
    if name in ("ReproduceReport", "reproduce"):
        from . import replays
        return getattr(replays, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
