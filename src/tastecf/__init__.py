"""IDF-weighted user-based collaborative filtering over implicit listening
triplets: ingestion, sparse indexing, neighbor pruning, top-k
recommendation, and a MAP@k evaluation harness."""

from .core import (
    AP_CHALLENGE,
    AP_LIST_LENGTH,
    CapacityError,
    ChecksumError,
    Config,
    DataError,
    DuplicatePairError,
    EmptyIndexError,
    FormatVersionError,
    MalformedLineError,
    MissingRecommendationError,
    PAD_DUMMY,
    PAD_POPULARITY,
    Vocabulary,
)
from .evaluate import (
    EvalReport,
    HistorySplit,
    average_precision,
    mean_average_precision,
    precision_at_k,
    split_history,
)
from .idf import IdfTable, compute_idf
from .index import (InteractionIndex, LoadedIndex, build_index, load_dataset,
                    load_index, save_dataset, save_index)
from .ingest import (TripletBatch, parse_triplets, read_triplets, sort_by_pair,
                     write_triplets)
from .recommend import (
    Recommendation,
    ScoredTracks,
    rank_and_pad,
    recommend_all,
    recommend_one,
    render_recommendation,
    score_tracks,
    write_recommendations,
)
from .similarity import Candidates, NeighborSet, candidate_neighbors, prune

__version__ = "0.1.0"

__all__ = [
    "AP_CHALLENGE",
    "AP_LIST_LENGTH",
    "CapacityError",
    "Candidates",
    "ChecksumError",
    "Config",
    "DataError",
    "DuplicatePairError",
    "EmptyIndexError",
    "EvalReport",
    "FormatVersionError",
    "HistorySplit",
    "IdfTable",
    "InteractionIndex",
    "LoadedIndex",
    "MalformedLineError",
    "MissingRecommendationError",
    "NeighborSet",
    "PAD_DUMMY",
    "PAD_POPULARITY",
    "Recommendation",
    "ScoredTracks",
    "TripletBatch",
    "Vocabulary",
    "average_precision",
    "build_index",
    "candidate_neighbors",
    "compute_idf",
    "load_dataset",
    "load_index",
    "mean_average_precision",
    "parse_triplets",
    "precision_at_k",
    "prune",
    "rank_and_pad",
    "read_triplets",
    "recommend_all",
    "recommend_one",
    "render_recommendation",
    "save_dataset",
    "save_index",
    "score_tracks",
    "sort_by_pair",
    "split_history",
    "write_recommendations",
    "write_triplets",
]
