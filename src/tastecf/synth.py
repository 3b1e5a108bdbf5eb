"""Synthetic datasets for experiments and benchmarks, plus the
global-popularity baseline used as a reference point in evaluations."""

import numpy as np

from .core import PAD_POPULARITY, Vocabulary
from .ingest import TripletBatch
from .recommend import ScoredTracks, rank_and_pad


def _batch_from_pairs(users, tracks, counts, n_users, n_tracks,
                      user_fmt="u{:06d}", track_fmt="t{:05d}"):
    """Assemble a batch whose vocabularies cover exactly the ids that occur."""
    seen_users = np.unique(users)
    seen_tracks = np.unique(tracks)
    user_remap = np.full(n_users, -1, dtype=np.int64)
    user_remap[seen_users] = np.arange(seen_users.size)
    track_remap = np.full(n_tracks, -1, dtype=np.int64)
    track_remap[seen_tracks] = np.arange(seen_tracks.size)
    user_vocab = Vocabulary(user_fmt.format(int(u)) for u in seen_users)
    track_vocab = Vocabulary(track_fmt.format(int(t)) for t in seen_tracks)
    return TripletBatch(
        user_remap[users].astype(np.int32),
        track_remap[tracks].astype(np.int32),
        np.asarray(counts, dtype=np.int64),
        user_vocab,
        track_vocab,
    )


def planted_clusters(n_users=2000, n_tracks=500, n_clusters=10,
                     distinct_range=(15, 26), count_range=(1, 4),
                     seed=0) -> TripletBatch:
    """Users in disjoint taste clusters over an even track partition.

    User u belongs to cluster u mod n_clusters and samples its distinct
    tracks only from that cluster's slice, so cross-cluster similarity is
    exactly zero. Defaults give roughly 40 plays per user.
    """
    if n_tracks % n_clusters:
        raise ValueError("n_tracks must divide evenly into clusters")
    per_cluster = n_tracks // n_clusters
    rng = np.random.default_rng(seed)
    users, tracks, counts = [], [], []
    for u in range(n_users):
        cluster = u % n_clusters
        distinct = int(rng.integers(*distinct_range))
        distinct = min(distinct, per_cluster)
        chosen = rng.choice(per_cluster, size=distinct, replace=False)
        chosen = np.sort(chosen) + cluster * per_cluster
        users.append(np.full(distinct, u, dtype=np.int64))
        tracks.append(chosen.astype(np.int64))
        counts.append(rng.integers(count_range[0], count_range[1], size=distinct))
    return _batch_from_pairs(np.concatenate(users), np.concatenate(tracks),
                             np.concatenate(counts), n_users, n_tracks)


def skewed_batch(n_users, n_tracks, mean_tracks_per_user=10.0, seed=0,
                 skew=0.8) -> TripletBatch:
    """Large batch with a power-law popularity skew over tracks.

    Pair counts land near n_users * mean_tracks_per_user (duplicates from
    the popularity sampling are merged away).
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / (np.arange(n_tracks) + 10.0) ** skew
    popularity = weights / weights.sum()
    per_user = np.maximum(1, rng.poisson(mean_tracks_per_user, n_users))
    users = np.repeat(np.arange(n_users, dtype=np.int64), per_user)
    tracks = rng.choice(n_tracks, size=users.size, p=popularity)
    keys = np.unique(users * np.int64(n_tracks) + tracks)
    users = keys // n_tracks
    tracks = keys % n_tracks
    counts = rng.geometric(0.45, size=keys.size).clip(max=200)
    return _batch_from_pairs(users, tracks, counts, n_users, n_tracks)


def msd_shaped_batch(fraction: float) -> TripletBatch:
    """skewed_batch at `fraction` of the Million Song Dataset challenge's
    shape: 1.02M users, 385k tracks and 47 tracks per user, so about 48M
    triplets at fraction 1. Ids are shaped like the real ones, 40 hex
    digits for a user and "SO" plus 16 capitals or digits for a track, and
    the rows come in a seeded random order, as a text file would hold them.
    """
    batch = skewed_batch(round(1_020_000 * fraction), round(385_000 * fraction),
                         47.0, seed=3)
    rng = np.random.default_rng([3, 0x4D5344])
    n_users, n_tracks = len(batch.user_vocab), len(batch.track_vocab)
    # random digits, then the index, so that every id is distinct
    digits = rng.bytes(16 * n_users).hex()
    user_ids = [f"{digits[32 * u:32 * u + 32]}{u:08x}" for u in range(n_users)]
    letters = rng.integers(ord("A"), ord("Z") + 1, 10 * n_tracks,
                           dtype=np.uint8).tobytes().decode("ascii")
    track_ids = [f"SO{letters[10 * t:10 * t + 10]}{t:06X}" for t in range(n_tracks)]
    order = rng.permutation(len(batch))
    return TripletBatch(batch.users[order], batch.tracks[order],
                        batch.counts[order], Vocabulary(user_ids),
                        Vocabulary(track_ids))


def random_batch(rng, max_users=50, max_tracks=30,
                 density_range=(0.05, 0.5), max_count=5) -> TripletBatch:
    """Small random instance: every (user, track) cell is filled i.i.d.

    Redraws until at least one interaction exists, so the result always
    supports index construction.
    """
    while True:
        n_users = int(rng.integers(2, max_users + 1))
        n_tracks = int(rng.integers(2, max_tracks + 1))
        mask = rng.random((n_users, n_tracks)) < rng.uniform(*density_range)
        users, tracks = np.nonzero(mask)
        if users.size:
            break
    counts = rng.integers(1, max_count + 1, size=users.size)
    return _batch_from_pairs(users.astype(np.int64), tracks.astype(np.int64),
                             counts, n_users, n_tracks)


def popularity_recommend(index, u: int, k: int) -> list[int]:
    """Top-k most-listened tracks the user has not played yet: the
    popularity pads of a list with nothing scored."""
    nothing = ScoredTracks(np.empty(0, np.int64), np.empty(0))
    return rank_and_pad(u, nothing, k, PAD_POPULARITY, index.df,
                        seen=index.forward_tracks(u)).real_items
