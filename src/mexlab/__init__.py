"""mexlab: exact clique counting, dense-subgraph filtering, closed-form
exponent bounds, finite-field witness constructions, and an exhaustive
small-case oracle, behind one CLI."""

from .bounds import (ConditionError, ExponentReport, cor12_exponent,
                     cor14_kst, cor17_classifier, cor44_tripartite_lower,
                     lemma_constant, lemma_constant_recursive, phi_exponent,
                     remark42_one_part, thm13_f, thm15_general,
                     thm41_kst_lower, thm43_multipartite, thm46_join_cycle)
from .constructions import (DeletionRun, ExperimentSpec, NormGraphParams,
                            deletion_method, norm_graph, run_experiment)
from .extraction import ExtractionParams, ExtractionReport, extract_dense
from .fields import FiniteField, field_make, is_prime
from .graphs import (CliqueVector, Graph, Pattern, blowup, chromatic_number,
                     complete, complete_multipartite, count_cliques,
                     count_copies, cycle, disjoint_union,
                     edge_clique_participation, format_edge_list, gnp,
                     hom_exists, is_free, load_edge_list,
                     max_avg_degree, parse_pattern_literal, path, pattern,
                     read_edge_list, save_edge_list, splitmix64, star,
                     turan_graph)
from .oracle import (OracleQuery, OracleResult, are_isomorphic,
                     canonical_form, ex_exact, mex_exact,
                     mex_exhaustive_reference)

__version__ = "0.1.0"
