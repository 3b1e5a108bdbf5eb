"""Track scoring, ranking, padding, and the batch recommendation driver.

A track's score for user u is the sum over pruned neighbors v that played
it of w_uv / total_plays(v): each neighbor votes with their similarity,
normalized by how much they listen overall, and every track of a neighbor
counts the same regardless of its own play count.

Lists are truncated to exactly k items, or padded when fewer than k tracks
scored. The default padding appends synthetic dummy ids rendered as "1",
"2", ...; a popularity strategy (most-listened unseen tracks first) is
available. Under-length lists are rare on realistic data, so the dummy
default costs little.

Scores accumulate in the natural-log domain in a fixed order (neighbors in
NeighborSet order, tracks in forward order): the neighbors' forward lists
are gathered in that order and summed with one np.bincount, which adds its
weights in input order starting from 0.0, so every track's sum is built in
the same order as a neighbor-by-neighbor loop. Ranking compares those
canonical sums, which makes output byte-identical for any worker count and
for any idf log base. Only tracks scoring at least the k-th best score
(ties included) are sorted, which cannot change the first k places.
"""

from dataclasses import dataclass
import math
import multiprocessing
import os
import sys
from typing import Iterable, Iterator, Optional

import numpy as np

from .core import Config, DataError, PAD_POPULARITY
from .similarity import NeighborSet, candidate_neighbors, prune


class ScoredTracks:
    """Positive-score tracks in ascending track order (parallel arrays);
    ln_scores are the natural-log-domain sums that ranking compares."""

    __slots__ = ("tracks", "ln_scores")

    def __init__(self, tracks: np.ndarray, ln_scores: np.ndarray):
        self.tracks = tracks
        self.ln_scores = ln_scores


@dataclass(eq=True)
class Recommendation:
    """Exactly k item slots for one user.

    Entries >= 0 are real track indexes, ordered by (score desc, df desc,
    track asc); a negative entry -p is the p-th dummy pad and only appears
    after every real item. scores parallels the real-item prefix and holds
    the natural-log-domain scores, whatever the idf table's base.
    """

    user: int
    items: list[int]
    scores: list[float]

    @property
    def real_items(self) -> list[int]:
        return [t for t in self.items if t >= 0]

    @property
    def pad_count(self) -> int:
        return sum(1 for t in self.items if t < 0)


def score_tracks(index, neighbors: NeighborSet, exclude_seen: bool = True) -> ScoredTracks:
    """Accumulate neighbor votes over the forward lists.

    Tracks the source user already played are omitted when exclude_seen;
    only tracks with a positive score are returned.
    """
    tracks, lens = index.forward_rows(neighbors.users)
    shares = neighbors.ln_weights / index.total_plays[neighbors.users]
    # astype: np.bincount of an empty input gives integer zeros
    buf = np.bincount(tracks, weights=np.repeat(shares, lens),
                      minlength=index.n_tracks).astype(np.float64, copy=False)
    if exclude_seen:
        buf[index.forward_tracks(neighbors.source_user)] = 0.0
    scored = np.flatnonzero(buf > 0.0)
    return ScoredTracks(scored, buf[scored])


def rank_and_pad(user: int, scored: ScoredTracks, k: int, pad_strategy: str,
                 df: np.ndarray, seen: Optional[np.ndarray] = None) -> Recommendation:
    """Order scored tracks, truncate to k, pad when short.

    Ties break by document frequency descending (popularity prior), then by
    track index ascending. Popularity padding never repeats a listed or
    seen track and falls back to dummy ids when the pool runs dry.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = scored.tracks.size
    if n > k:
        # every track tied with the k-th best score survives, so the sort
        # below still sees every contender for the first k places
        kth = np.partition(scored.ln_scores, n - k)[n - k]
        survive = scored.ln_scores >= kth
        scored = ScoredTracks(scored.tracks[survive], scored.ln_scores[survive])
    order = np.lexsort((scored.tracks, -df[scored.tracks], -scored.ln_scores))[:k]
    items = scored.tracks[order].tolist()
    scores = scored.ln_scores[order].tolist()

    if len(items) < k and pad_strategy == PAD_POPULARITY:
        available = np.ones(df.size, dtype=bool)
        if items:
            available[items] = False
        if seen is not None:
            available[seen] = False
        pool = np.flatnonzero(available)
        pool = pool[np.lexsort((pool, -df[pool]))]
        items.extend(int(t) for t in pool[: k - len(items)])

    pad = 1
    while len(items) < k:
        items.append(-pad)
        pad += 1
    return Recommendation(user, items, scores)


def recommend_one(index, idf, u: int, config: Config) -> Recommendation:
    if not 0 <= u < index.n_users:
        raise DataError(f"user index {u} out of range [0, {index.n_users})")
    neighbors = prune(candidate_neighbors(index, idf, u), config.prune_ratio)
    scored = score_tracks(index, neighbors, config.exclude_seen)
    return rank_and_pad(u, scored, config.k, config.pad_strategy, index.df,
                        seen=index.forward_tracks(u))


# A fork-pool worker's (index, idf, config), set in the worker by the pool's
# initializer; forked workers get its arguments copy-on-write, unpickled.
_WORKER_STATE = None


def _init_worker(*state):
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_chunk(chunk):
    index, idf, config = _WORKER_STATE
    return [recommend_one(index, idf, u, config) for u in chunk]


def recommend_all(index, idf, users: Iterable[int], config: Config,
                  workers: int = 1) -> Iterator[Recommendation]:
    """One Recommendation per user, in input order.

    Output is identical for every worker count; per-user failures carry the
    offending user index.
    """
    user_list = [int(u) for u in users]
    ctx = None
    if workers > 1 and len(user_list) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            print("fork unavailable; recommending serially", file=sys.stderr)

    if ctx is None:
        for u in user_list:
            yield recommend_one(index, idf, u, config)
        return

    chunk_size = max(1, math.ceil(len(user_list) / (workers * 8)))
    chunks = [user_list[i:i + chunk_size]
              for i in range(0, len(user_list), chunk_size)]
    with ctx.Pool(workers, _init_worker, (index, idf, config)) as pool:
        for batch in pool.imap(_run_chunk, chunks):
            yield from batch


def pad_labels(track_vocab, count: int) -> list[str]:
    """The labels of pads 1..count: each is its decimal number, '#'-prefixed
    until no track id equals it. Each round of prefixing is one
    track_vocab.indexes_of over the labels that still clash."""
    labels = [str(p) for p in range(1, count + 1)]
    clashing = range(count)
    while clashing:
        found = track_vocab.indexes_of([labels[i] for i in clashing])
        clashing = [i for i, idx in zip(clashing, found) if idx is not None]
        for i in clashing:
            labels[i] = "#" + labels[i]
    return labels


def render_recommendation(rec: Recommendation, user_vocab, track_vocab,
                          labels=None) -> str:
    """`<user> <item_1> ... <item_k>`, pad p rendered as labels[p - 1];
    without `labels`, pad_labels is called for this list's pads."""
    tracks = track_vocab.ids
    if labels is None:
        labels = pad_labels(track_vocab, -min(rec.items, default=0))
    parts = [user_vocab.lookup(rec.user)]
    parts.extend(tracks[i] if i >= 0 else labels[-i - 1] for i in rec.items)
    return " ".join(parts)


def _write_lines(fh, recs, user_vocab, track_vocab) -> None:
    labels = []
    for rec in recs:
        if -min(rec.items, default=0) > len(labels):
            labels = pad_labels(track_vocab, len(rec.items))
        fh.write(render_recommendation(rec, user_vocab, track_vocab, labels))
        fh.write("\n")


def write_recommendations(recs: Iterable[Recommendation], path,
                          user_vocab, track_vocab) -> None:
    """One line per user, each through render_recommendation. A list that
    needs more pad labels than are held gets pad_labels for all its slots,
    so a run makes them once, at its first pad, or never without pads.

    If `path` resolves (through any links) to a regular file or to none,
    in a directory that can be written, the lines go to a new file beside
    it, which replaces it only once all are written: an error leaves
    neither a partial file nor the temporary one. Anything else, such as a
    device or a pipe, is written in place."""
    target = os.path.realpath(path)
    if ((os.path.exists(target) and not os.path.isfile(target))
            or not os.access(os.path.dirname(target), os.W_OK)):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            _write_lines(fh, recs, user_vocab, track_vocab)
        return
    temporary = f"{target}.{os.getpid()}.tmp"
    fh = open(temporary, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            _write_lines(fh, recs, user_vocab, track_vocab)
        os.replace(temporary, target)
    except BaseException:
        os.remove(temporary)
        raise
