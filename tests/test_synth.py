import re

import numpy as np

from tastecf.synth import msd_shaped_batch, skewed_batch


def _rows(batch) -> np.ndarray:
    """The batch's (user, track, count) rows in ascending order."""
    rows = np.stack([np.asarray(batch.users, np.int64),
                     np.asarray(batch.tracks, np.int64),
                     np.asarray(batch.counts, np.int64)])
    return rows[:, np.lexsort(rows[::-1])]


def test_msd_shaped_batch_is_skewed_batch_with_msd_shaped_ids():
    fraction = 1 / 1000
    batch = msd_shaped_batch(fraction)
    reference = skewed_batch(1020, 385, 47.0, seed=3)
    users, tracks = batch.user_vocab.ids, batch.track_vocab.ids
    assert len(users) == len(reference.user_vocab)
    assert len(tracks) == len(reference.track_vocab)
    assert all(re.fullmatch("[0-9a-f]{40}", u) for u in users)
    assert all(re.fullmatch("SO[A-Z0-9]{16}", t) for t in tracks)
    assert len(set(users)) == len(users) and len(set(tracks)) == len(tracks)
    # the same rows with their counts, in another order
    assert len(batch) == len(reference) > 40_000
    assert np.array_equal(_rows(batch), _rows(reference))
    assert not np.array_equal(batch.users, reference.users)
