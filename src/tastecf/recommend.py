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
(ties included) are sorted, which cannot change the first k places; the
same cut, keyed by popularity, picks popularity pads from the catalogue.
"""

from dataclasses import dataclass
from itertools import accumulate, chain, islice
import math
import os
import re
import sys
from typing import Iterable, Iterator, Optional

import numpy as np

from .core import (Config, DataError, PAD_POPULARITY, Vocabulary, _encoded,
                   _positions)
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


def _first(tracks: np.ndarray, key: np.ndarray, df: np.ndarray, m: int):
    """The first m of `tracks` by (key desc, df desc, track asc), with their
    keys. Every track tied with the m-th best key survives one partition,
    so the lexsort of the survivors still sees every contender for the
    first m places."""
    n = tracks.size
    if n > m:
        survive = key >= np.partition(key, n - m)[n - m]
        tracks, key = tracks[survive], key[survive]
    order = np.lexsort((tracks, -df[tracks], -key))[:m]
    return tracks[order], key[order]


def rank_and_pad(user: int, scored: ScoredTracks, k: int, pad_strategy: str,
                 df: np.ndarray, seen: Optional[np.ndarray] = None) -> Recommendation:
    """Order scored tracks, truncate to k, pad when short.

    Ties break by document frequency descending (popularity prior), then by
    track index ascending. Popularity padding takes the most-listened
    tracks by the same cut, over the whole catalogue keyed by df, never
    repeats a listed or seen track and falls back to dummy ids when the
    pool runs dry.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tracks, scores = _first(scored.tracks, scored.ln_scores, df, k)
    items = tracks.tolist()
    need = k - len(items)
    if need and pad_strategy == PAD_POPULARITY:
        used = tracks if seen is None else np.concatenate((tracks, seen))
        # the first need + |used| by popularity hold the first need unused.
        # The key df * n - track is distinct, below 2**62 in magnitude, and
        # orders tracks as (df desc, track asc), so exactly that many
        # survive the cut, however many tracks share a df
        pool = np.arange(df.size)
        key = np.multiply(df, df.size, dtype=np.int64)
        key -= pool
        pool, _ = _first(pool, key, df, need + used.size)
        free = np.ones(df.size, bool)
        free[used] = False
        items += pool[free[pool]][:need].tolist()
    items += range(-1, len(items) - k - 1, -1)
    return Recommendation(user, items, scores.tolist())


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
        # imported only here: every CLI start would otherwise pay for it
        import multiprocessing
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


# lines rendered together by write_recommendations
_RENDER_LINES = 16


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


def _spaced(vocab, indexes: np.ndarray):
    """The ids of `indexes` in UTF-8, each after a space, gathered from the
    vocabulary's bytes without decoding, and where each ends: 0, then the
    running total of their lengths plus one."""
    data, starts, lens = vocab.spans(indexes)
    ends = np.zeros(lens.size + 1, np.int64)
    np.cumsum(lens + 1, out=ends[1:])
    held = _positions(starts, lens)
    text = np.full(int(ends[-1]), ord(" "), np.uint8)
    text[held + np.repeat(ends[:-1] + 1 - starts, lens)] = data[held]
    return text.tobytes(), ends


def _user_spans(users, recs, at: int = 0):
    """The UTF-8 bytes of the recs' users as a uint8 array, with the start
    and length in it of each rec's user: from a vocabulary (`users`), by
    rec.user, once it is checked for a repeated id, or from a list of ids,
    one per line, of which recs are the lines from `at` on."""
    if isinstance(users, Vocabulary):
        users.check_distinct()
        return users.spans(np.fromiter((rec.user for rec in recs), np.int64,
                                       len(recs)))
    ids = users[at:at + len(recs)]
    if len(ids) < len(recs):
        raise ValueError("fewer user ids than recommendations")
    return _encoded(ids)


def _render_lines(recs, user_spans, track_vocab, labels):
    """The lines of recs in UTF-8, each `<user> <item_1> ... <item_k>` and
    "\\n", with the labels used: pad p renders as labels[p - 1], and labels
    shorter than a list's pads are replaced by pad_labels for every slot of
    the longest list. The track vocabulary is first checked for a repeated
    id.

    Each user is taken from user_spans, as _user_spans gives them, and the
    real items of all the lists from the track vocabulary's bytes; each
    list's pads, -1, -2, ... after its real items, are the first labels
    joined."""
    track_vocab.check_distinct()
    lens = np.fromiter((len(rec.items) for rec in recs), np.int64, len(recs))
    items = np.fromiter(chain.from_iterable(rec.items for rec in recs),
                        np.int64, int(lens.sum()))
    is_pad = items < 0
    pads = np.bincount(np.repeat(np.arange(lens.size), lens)[is_pad],
                       minlength=lens.size)
    need = int(pads.max(initial=0))
    if need > len(labels):
        labels = pad_labels(track_vocab, int(lens.max()))
    user_bytes, user_starts, user_lens = user_spans
    track_text, track_ends = _spaced(track_vocab, items[~is_pad])
    real_ends = np.zeros(lens.size + 1, np.int64)
    np.cumsum(lens - pads, out=real_ends[1:])
    pad_parts = [(" " + label).encode("utf-8") for label in labels[:need]]
    pad_text = b"".join(pad_parts)
    pad_ends = list(accumulate(map(len, pad_parts), initial=0))
    track_ends = track_ends[real_ends].tolist()
    lines = []
    for i, (start, size, p) in enumerate(zip(user_starts.tolist(), user_lens.tolist(),
                                           pads.tolist())):
        lines += (user_bytes[start:start + size].tobytes(),
                  track_text[track_ends[i]:track_ends[i + 1]],
                  pad_text[:pad_ends[p]], b"\n")
    return b"".join(lines), labels


def render_recommendation(rec: Recommendation, user_vocab, track_vocab,
                          labels=None) -> str:
    """`<user> <item_1> ... <item_k>`, pad p rendered as labels[p - 1]; without
    `labels`, pad_labels is called for this list's pads. The one-list case
    of the render write_recommendations makes."""
    if labels is None:
        labels = pad_labels(track_vocab, -min(rec.items, default=0))
    text, _ = _render_lines([rec], _user_spans(user_vocab, [rec]), track_vocab,
                            labels)
    return str(text[:-1], "utf-8")


def _check_recs_ids(users, track_vocab) -> None:
    """DataError naming the first user or track id that a recs line cannot
    hold: one with a space, at which the line is split, or a line end. A
    vocabulary's bytes are scanned by first_holding, and the error names
    its origin, as a repeated id's does; a list of ids is searched as str."""
    for kind, ids in (("user", users), ("track", track_vocab)):
        if isinstance(ids, Vocabulary):
            bad, named = ids.first_holding(b" \r"), f"{ids._origin}: id"
        else:
            bad = next(filter(re.compile("[ \r\n]").search, ids), None)
            named = f"{kind} id"
        if bad is not None:
            raise DataError(f"{named} {bad!r} holds a space or a line end, so "
                            "its recs line could not be read back")


def _write_lines(fh, recs, users, track_vocab) -> None:
    _check_recs_ids(users, track_vocab)
    labels = []
    recs = iter(recs)
    at = 0
    while batch := list(islice(recs, _RENDER_LINES)):
        text, labels = _render_lines(batch, _user_spans(users, batch, at),
                                     track_vocab, labels)
        fh.write(text)
        at += len(batch)


def write_recommendations(recs: Iterable[Recommendation], path,
                          user_vocab, track_vocab) -> None:
    """One line per user, rendered from the vocabularies' bytes a batch of
    lines at a time, as render_recommendation renders one. `user_vocab`
    is the users' Vocabulary, whose id for rec.user starts each line, or
    a list of ids, one per rec in order, which start the lines as they are
    (`recommend` passes its --users ids, which equal the stored ones, and
    so holds no user vocabulary). A batch whose lists need more pad labels
    than are held gets pad_labels for all the slots of its longest list,
    so a run makes them once, at its first pad, or never without pads.
    Before the first line is written, each vocabulary is checked for a
    repeated id, and DataError names an id that holds a space or a line
    end, which would split its line when read back.

    If `path` resolves (through any links) to a regular file or to none,
    in a directory that can be written, the lines go to a new file beside
    it, which replaces it only once all are written: an error leaves
    neither a partial file nor the temporary one. Anything else, such as a
    device or a pipe, is written in place."""
    target = os.path.realpath(path)
    if ((os.path.exists(target) and not os.path.isfile(target))
            or not os.access(os.path.dirname(target), os.W_OK)):
        with open(path, "wb") as fh:
            _write_lines(fh, recs, user_vocab, track_vocab)
        return
    temporary = f"{target}.{os.getpid()}.tmp"
    fh = open(temporary, "xb")
    try:
        with fh:
            _write_lines(fh, recs, user_vocab, track_vocab)
        os.replace(temporary, target)
    except BaseException:
        os.remove(temporary)
        raise
