"""Ranking metrics (P@k, AP, mAP truncated at k) and the history splitter.

Two AP normalizations exist because truncated mAP is commonly stated two
ways. "challenge" divides the sum of precisions at hit positions by
min(k, number of hidden items), the usual contest scoring; "list_length"
divides by min(k, number of items recommended), so padding a short list
dilutes its AP. Both count the same numerator. Rankings are assumed free
of duplicate real items (repeats are never credited twice).
"""

from dataclasses import dataclass
import math
from typing import Hashable, Mapping, Sequence

import numpy as np

from .core import AP_CHALLENGE, AP_MODES, MissingRecommendationError
from .index import sorted_rows
from .ingest import TripletBatch


def precision_at_k(ranking: Sequence[Hashable], hidden, k: int) -> float:
    """Fraction of the first k slots that hit the hidden set.

    Pad markers and repeated items count as misses.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = 0
    credited = set()
    for item in ranking[:k]:
        if item in hidden and item not in credited:
            credited.add(item)
            hits += 1
    return hits / k


def average_precision(ranking: Sequence[Hashable], hidden, k: int,
                      ap_mode: str = AP_CHALLENGE) -> float:
    """Sum of P@j over hit positions j <= k, normalized per ap_mode.

    Empty hidden sets score 0 by definition.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ap_mode not in AP_MODES:
        raise ValueError(f"ap_mode must be one of {AP_MODES}")
    if not hidden:
        return 0.0
    hits = 0
    total = 0.0
    credited = set()
    for position, item in enumerate(ranking[:k], 1):
        if item in hidden and item not in credited:
            credited.add(item)
            hits += 1
            total += hits / position
    if ap_mode == AP_CHALLENGE:
        normalizer = min(k, len(hidden))
    else:
        normalizer = min(k, len(ranking))
    if normalizer == 0:
        return 0.0
    return total / normalizer


@dataclass
class EvalReport:
    """Per-user (user, AP, hidden_count) rows and their unweighted mean."""

    per_user: list[tuple]
    map_score: float
    k: int
    ap_mode: str


def mean_average_precision(rankings: Mapping, hidden_by_user: Mapping,
                           k: int, ap_mode: str = AP_CHALLENGE) -> EvalReport:
    """Average AP over every user with a nonempty hidden set.

    Users with empty hidden sets are not evaluable and are skipped; every
    evaluable user must have a ranking (MissingRecommendationError
    otherwise). Iteration follows hidden_by_user order, so the report is
    deterministic for a deterministic input mapping.
    """
    per_user = []
    for user, hidden in hidden_by_user.items():
        if not hidden:
            continue
        if user not in rankings:
            raise MissingRecommendationError(user)
        ap = average_precision(rankings[user], hidden, k, ap_mode)
        per_user.append((user, ap, len(hidden)))
    # sum(), as tests/oracle.py's mean_ap: from Python 3.12 sum() compensates
    # float rounding, so a running total could differ in the last digit
    aps = [ap for _, ap, _ in per_user]
    map_score = sum(aps) / len(aps) if aps else 0.0
    return EvalReport(per_user, map_score, k, ap_mode)


@dataclass(eq=False)
class HistorySplit:
    """Disjoint visible/hidden partition of every user's history.

    Both parts share the original vocabularies, so indexes stay comparable
    across the two batches. Users with fewer than two distinct tracks keep
    everything visible and have no hidden rows (not evaluable).
    """

    visible: TripletBatch
    hidden: TripletBatch
    seed: int

    def hidden_by_user(self) -> dict[int, set[int]]:
        return tracks_by_user(self.hidden, range(len(self.hidden.user_vocab)),
                              range(len(self.hidden.track_vocab)))


def tracks_by_user(batch: TripletBatch, user_ids, track_ids) -> dict:
    """{user_ids[u]: the set of track_ids[t] over u's rows} for each user u
    with a row, in ascending u: for a parsed batch, the order in which
    users first appear. A repeated pair raises DuplicatePairError
    (sorted_rows)."""
    rows, offsets = sorted_rows(batch)
    tracks = list(map(track_ids.__getitem__, rows.tracks.tolist()))
    ends = offsets.tolist()
    return {user_ids[u]: set(tracks[ends[u]:ends[u + 1]])
            for u in np.flatnonzero(np.diff(offsets)).tolist()}


def split_history(batch: TripletBatch, fraction: float, seed: int) -> HistorySplit:
    """Per-user random split: floor(fraction * distinct) tracks visible.

    The permutation for user u is drawn from a generator seeded with
    (seed, u), so the split is reproducible and independent of user
    iteration order. The halves hold the rows of sorted_rows in ascending
    (user, track) order, a parsed batch's as they are; the batch is not
    changed, and a repeated pair raises DuplicatePairError.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rows, offsets = sorted_rows(batch)
    hidden = np.zeros(len(rows), bool)
    counts = np.diff(offsets)
    for u in np.flatnonzero(counts >= 2).tolist():
        start, count = int(offsets[u]), int(counts[u])
        rng = np.random.default_rng([seed & 0xFFFF_FFFF_FFFF_FFFF, u])
        perm = rng.permutation(count)
        hidden[start + perm[math.floor(fraction * count):]] = True
    return HistorySplit(*(TripletBatch(rows.users[mask], rows.tracks[mask],
                                       rows.counts[mask], rows.user_vocab,
                                       rows.track_vocab)
                          for mask in (~hidden, hidden)), seed)
