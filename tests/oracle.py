"""Brute-force reference recommender and metrics.

Everything here is recomputed from a raw triplet list with plain dicts and
ordered loops; nothing is imported from tastecf, so the two implementations
can only agree by computing the same quantities. The history split takes
numpy's generator for its draws, which define the split.

Float contract: sums follow the same documented accumulation order as the
library (tracks ascending; neighbors by weight descending then user index
ascending), which makes item lists comparable exactly rather than to a
tolerance.
"""

import math
from collections import defaultdict

import numpy as np


def build_maps(triplets):
    history = defaultdict(dict)    # user -> {track: play_count}
    listeners = defaultdict(list)  # track -> [user, ...]
    for u, t, c in triplets:
        history[u][t] = c
        listeners[t].append(u)
    return history, listeners


def idf_values(listeners, n_users):
    """Natural-log idf per track. Item rankings are provably independent of
    the log base (a positive constant rescaling), so the reference works in
    the canonical base throughout."""
    return {t: math.log(n_users / len(us)) for t, us in listeners.items()}


def user_weights(history, listeners, idf, u):
    """Similarity of u to every user sharing at least one track.

    Per co-listener the idf contributions accumulate in ascending track
    order. Entries can be exactly 0.0 when every shared track has idf 0.
    """
    weights = {}
    for t in sorted(history.get(u, ())):
        w = idf[t]
        for v in listeners[t]:
            if v == u:
                continue
            weights[v] = weights.get(v, 0.0) + w
    return weights


def pruned_neighbors(weights, prune_ratio):
    """Keep candidates with weight >= prune_ratio * max, drop zero weights,
    order by weight descending then user index ascending."""
    w_max = max(weights.values(), default=0.0)
    threshold = prune_ratio * w_max
    kept = [(v, w) for v, w in weights.items() if w > 0.0 and w >= threshold]
    kept.sort(key=lambda vw: (-vw[1], vw[0]))
    return kept, w_max


def track_scores(history, kept, total_plays, u, exclude_seen):
    scores = {}
    for v, w in kept:
        share = w / total_plays[v]
        for t in sorted(history[v]):
            scores[t] = scores.get(t, 0.0) + share
    if exclude_seen:
        for t in history.get(u, ()):
            scores.pop(t, None)
    return scores


def ranked_items(scores, df, k, pad_strategy="dummy", seen=(), n_tracks=0):
    """Top-k by (score desc, df desc, track asc); pad to exactly k slots.

    Dummy pads are encoded as -1, -2, ... so the p-th pad is -p.
    """
    ranked = [(t, s) for t, s in scores.items() if s > 0.0]
    ranked.sort(key=lambda ts: (-ts[1], -df.get(ts[0], 0), ts[0]))
    items = [t for t, _ in ranked[:k]]
    if len(items) < k and pad_strategy == "popularity":
        used = set(items) | set(seen)
        pool = [t for t in range(n_tracks) if t not in used]
        pool.sort(key=lambda t: (-df.get(t, 0), t))
        items.extend(pool[: k - len(items)])
    pad = 1
    while len(items) < k:
        items.append(-pad)
        pad += 1
    return items


def recommend(triplets, n_users, n_tracks, *, prune_ratio=0.4, k=500,
              exclude_seen=True, pad_strategy="dummy"):
    """Item lists for every user index in [0, n_users)."""
    history, listeners = build_maps(triplets)
    idf = idf_values(listeners, n_users)
    df = {t: len(us) for t, us in listeners.items()}
    total_plays = {u: sum(h.values()) for u, h in history.items()}
    out = []
    for u in range(n_users):
        weights = user_weights(history, listeners, idf, u)
        kept, _ = pruned_neighbors(weights, prune_ratio)
        scores = track_scores(history, kept, total_plays, u, exclude_seen)
        out.append(ranked_items(scores, df, k, pad_strategy,
                                history.get(u, ()), n_tracks))
    return out


def split_rows(triplets, fraction, seed):
    """(visible, hidden) lists of (user, track, count) rows, each in
    (user, track) order. A user with two or more rows, taken by ascending
    track, hides those at positions perm[floor(fraction * n):] of
    default_rng([seed mod 2**64, user]).permutation(n); a user with fewer
    keeps every row visible."""
    by_user = defaultdict(list)
    for row in sorted(triplets):
        by_user[row[0]].append(row)
    visible, hidden = [], []
    for u in sorted(by_user):
        rows = by_user[u]
        held = set()
        if len(rows) >= 2:
            perm = np.random.default_rng([seed % 2**64, u]).permutation(len(rows))
            held = set(perm[math.floor(fraction * len(rows)):].tolist())
        for position, row in enumerate(rows):
            (hidden if position in held else visible).append(row)
    return visible, hidden


# --- metrics -----------------------------------------------------------

def precision_at(ranking, hidden, k):
    """Relevant fraction of the first k slots, crediting each item once."""
    credited = set()
    rel = []
    for item in ranking[:k]:
        if item in hidden and item not in credited:
            credited.add(item)
            rel.append(1)
        else:
            rel.append(0)
    return sum(rel) / k


def average_precision(ranking, hidden, k, mode="challenge"):
    """AP as the literal sum of P@j over relevant positions j <= k.

    Recomputes P@j from scratch at every hit (O(k^2)), which keeps this
    independent of any running-sum shortcut.
    """
    if not hidden:
        return 0.0
    credited = set()
    total = 0.0
    for j, item in enumerate(ranking[:k], 1):
        if item in hidden and item not in credited:
            credited.add(item)
            total += precision_at(ranking, hidden, j)
    n = min(k, len(hidden)) if mode == "challenge" else min(k, len(ranking))
    if n == 0:
        return 0.0
    return total / n


def mean_ap(rankings_by_user, hidden_by_user, k, mode="challenge"):
    aps = [average_precision(rankings_by_user[u], hidden_by_user[u], k, mode)
           for u in hidden_by_user if hidden_by_user[u]]
    if not aps:
        return 0.0
    return sum(aps) / len(aps)
