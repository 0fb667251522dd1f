"""Bipartite covering toolkit.

Constructs coverings of complete multigraphs and general graphs by complete
bipartite blocks (from binary codes, Hadamard matrices, balanced
bipartitions, and proper colorings), verifies them exhaustively, evaluates
the closed-form capacity bounds, settles tiny instances by exact search,
and replays the probabilistic devices behind the bounds as executable
diagnostics.
"""

from .bounds import (BoundEntry, BoundReport, alpha_lower, binom_tail_p,
                     degree_lower, edge_count_lower, entropy, graph_report,
                     multigraph_report, tail_lower, upper_bch,
                     upper_even_weight, upper_gv, upper_linear)
from .codes import (BinaryCode, FieldContext, bch_extended_code, build_code,
                    even_weight_code, min_distance)
from .covering import (BipartiteBlock, CoverageReport, Covering,
                       balanced_bipartitions_covering, capacity,
                       code_to_covering, coloring_to_covering,
                       degenerate_rows, from_words, incidence_counts, lift,
                       parse_covering, serialize_covering, verify)
from .diagnostics import (DiagnosticReport, check_convex_tail_bound,
                          check_event_disjointness, check_event_overlap,
                          check_independent_event_sets, check_tail_sum)
from .exact import SearchBudget, exact_cap
from .graphs import (Graph, alpha_per_vertex, complete_graph, degrees,
                     empty_graph, greedy_coloring, parse_graph, random_graph,
                     serialize_graph)

__version__ = "0.1.0"
