"""User-user similarity and neighbor pruning.

Two users' similarity is the sum of idf over the tracks both have played;
play counts do not enter (overlap is binary). Candidates for a user come
from walking the posting lists of their own tracks, which touches exactly
the users with nonempty overlap. Pruning keeps candidates whose weight is
at least prune_ratio times the best candidate weight.

Determinism contract: weights accumulate in the natural-log domain in
ascending track order. The candidate pass gathers u's posting lists in
track order and sums them with one np.bincount, which adds its weights in
input order starting from 0.0, so each co-listener's sum is built in the
same order as a track-by-track loop. Retention and ordering decisions
compare those canonical sums, so neighbor sets are bit-reproducible for
any worker count and provably identical for any idf log base.
"""

from dataclasses import dataclass

import numpy as np


_EMPTY_USERS = np.array([], dtype=np.int64)
_EMPTY_WEIGHTS = np.array([], dtype=np.float64)


@dataclass(eq=False)
class Candidates:
    """Users sharing at least one track with source_user, ascending by
    index, with their accumulated natural-log idf weights (exact zeros
    possible when every shared track has idf 0)."""

    source_user: int
    users: np.ndarray
    ln_weights: np.ndarray

    def __len__(self) -> int:
        return int(self.users.size)


@dataclass(eq=False)
class NeighborSet:
    """Pruned candidates, ordered by (weight desc, user asc).

    ln_w_max is the best candidate weight before pruning (0.0 when the user
    had no candidates at all).
    """

    source_user: int
    users: np.ndarray
    ln_weights: np.ndarray
    ln_w_max: float

    def __len__(self) -> int:
        return int(self.users.size)


def candidate_neighbors(index, idf, u: int) -> Candidates:
    """Accumulate idf[t] onto every co-listener of each track t of u.

    Each co-listener v gets the similarity of u and v, in one pass over u's
    posting lists. Membership comes from the distinct co-listeners, not
    from a nonzero weight, so a co-listener whose shared tracks all have
    idf 0 is kept with weight 0.0.
    """
    tracks_u = index.forward_tracks(u)
    if tracks_u.size == 0:
        return Candidates(u, _EMPTY_USERS, _EMPTY_WEIGHTS)
    co_users, lens = index.posting_rows(tracks_u)
    cand, slot = np.unique(co_users, return_inverse=True)
    ln_weights = np.bincount(slot, weights=np.repeat(idf.ln_values[tracks_u], lens),
                             minlength=cand.size)
    others = cand != u
    return Candidates(u, cand[others].astype(np.int64), ln_weights[others])


def prune(candidates: Candidates, prune_ratio: float) -> NeighborSet:
    """Retain candidates with weight >= prune_ratio * w_max (boundary kept,
    exact zeros dropped) and order them deterministically."""
    if not 0.0 <= prune_ratio <= 1.0:
        raise ValueError(f"prune_ratio must be in [0, 1], got {prune_ratio}")
    ln_weights = candidates.ln_weights
    if ln_weights.size == 0:
        return NeighborSet(candidates.source_user, _EMPTY_USERS,
                           _EMPTY_WEIGHTS, 0.0)
    ln_w_max = float(ln_weights.max())
    keep = (ln_weights > 0.0) & (ln_weights >= prune_ratio * ln_w_max)
    users = candidates.users[keep]
    kept = ln_weights[keep]
    order = np.lexsort((users, -kept))
    return NeighborSet(candidates.source_user, users[order], kept[order],
                       ln_w_max)
