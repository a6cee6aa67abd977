"""mexlab: exact clique counting, dense-subgraph filtering, closed-form
exponent bounds, finite-field witness constructions, and an exhaustive
small-case oracle, behind one CLI.

The package re-exports nothing: import each name from its module, as in
`from mexlab.graphs import Graph`.  Every CLI call is a fresh interpreter,
so an import here would be compiled and run on every call, `bounds` alone
included, which needs no module but `cli` and `bounds`.  The two caps
below live here because the CLI's parser prints them; `graphs` and
`oracle` enforce them.
"""

EDGE_LIST_MAX_VERTICES = 50000
ORACLE_MAX_GRAPHS = 2 ** 19

__version__ = "0.1.0"
