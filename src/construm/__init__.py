"""construm: structure-guided context packing for LLM schema matching.

Offline, the engine builds two reusable structures per schema side: a
context tree of hierarchical summaries and a tau-thresholded similarity
hypergraph of confusable column groups. Online, each forced-choice query
gets a budgeted context pack and grouped differentiation cues appended to
its final decision prompt.
"""

from construm.catalog import (
    ColumnMeta,
    ColumnRef,
    MatchQuery,
    SchemaCatalog,
    Side,
    TableMeta,
    load_catalog,
    mask_catalog,
)
from construm.gateway import ChatCall, ChatReply, ModelGateway
from construm.graph import Hypergraph, SimilarityGroup, SimilarityLink, build_hypergraph
from construm.pipeline import Artifacts, MatchResult, MatchTrace, PipelineConfig, run_match
from construm.tree import ContextPack, ContextTree, TreeParams, build_context_tree

__version__ = "0.1.0"

__all__ = [
    "Artifacts",
    "ChatCall",
    "ChatReply",
    "ColumnMeta",
    "ColumnRef",
    "ContextPack",
    "ContextTree",
    "Hypergraph",
    "MatchQuery",
    "MatchResult",
    "MatchTrace",
    "ModelGateway",
    "PipelineConfig",
    "SchemaCatalog",
    "Side",
    "SimilarityGroup",
    "SimilarityLink",
    "TableMeta",
    "TreeParams",
    "build_context_tree",
    "build_hypergraph",
    "load_catalog",
    "mask_catalog",
    "run_match",
    "__version__",
]
