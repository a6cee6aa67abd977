"""mexlab: exact clique counting, dense-subgraph filtering, closed-form
exponent bounds, finite-field witness constructions, and an exhaustive
small-case oracle, behind one CLI."""

from .bounds import (ConditionError, ExponentReport, cor12_exponent,
                     cor14_kst, cor17_classifier, cor44_tripartite_lower,
                     lemma_constant, remark42_one_part, thm13_f,
                     thm15_general, thm41_kst_lower, thm43_multipartite,
                     thm46_join_cycle)
from .constructions import (DeletionRun, deletion_method, norm_graph,
                            run_experiment)
from .extraction import ExtractionReport, extract_dense
from .fields import FiniteField, is_prime
from .graphs import (CliqueVector, Graph, Pattern, chromatic_number,
                     complete, complete_multipartite, count_cliques,
                     count_copies, cycle, edge_clique_participation,
                     format_edge_list, gnp, is_free, load_edge_list,
                     max_avg_degree, parse_pattern_literal, pattern,
                     read_edge_list, save_edge_list, splitmix64, star)
from .oracle import OracleResult, ex_exact, mex_exact

__version__ = "0.1.0"
