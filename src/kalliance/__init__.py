"""Exact computation and certification toolkit for defensive k-alliances in
small graphs."""

from .alliances import (
    AllianceCertificate,
    ConstructionInvariantError,
    VertexSet,
    boundary_degrees,
    certify,
    construct_upper_witness,
    cubic_augment_dominating,
    is_defensive_k_alliance,
    is_dominating,
    is_total_dominating,
    shrink_to_lower_k,
)
from .bounds import (
    BoundReport,
    best_lower,
    best_upper,
    evaluate_all,
    kn_closed_form,
    parity_collapse,
)
from .corpus import CorpusSpec, GraphSpec, default_corpus_spec, run_corpus
from .graphs import (
    Graph,
    ParseError,
    from_edge_list,
    generate,
    line_graph,
    to_edge_list,
)
from .solver import (
    ResourceLimitError,
    SolveResult,
    brute_force_oracle,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AllianceCertificate",
    "BoundReport",
    "ConstructionInvariantError",
    "CorpusSpec",
    "Graph",
    "GraphSpec",
    "ParseError",
    "ResourceLimitError",
    "SolveResult",
    "VertexSet",
    "best_lower",
    "best_upper",
    "boundary_degrees",
    "brute_force_oracle",
    "certify",
    "construct_upper_witness",
    "cubic_augment_dominating",
    "default_corpus_spec",
    "evaluate_all",
    "from_edge_list",
    "generate",
    "is_defensive_k_alliance",
    "is_dominating",
    "is_total_dominating",
    "kn_closed_form",
    "line_graph",
    "parity_collapse",
    "run_corpus",
    "shrink_to_lower_k",
    "solve",
    "to_edge_list",
    "__version__",
]
