import io

import pytest

from tastecf import build_index, compute_idf, parse_triplets

# toy fixture: u1:{a:2,b:1}, u2:{b:3,c:1}, u3:{c:5}, u4:{a:1,b:1,c:1}
# first-seen indexes: u1..u4 -> 0..3, a,b,c -> 0,1,2
T1_TEXT = (
    "u1\ta\t2\n"
    "u1\tb\t1\n"
    "u2\tb\t3\n"
    "u2\tc\t1\n"
    "u3\tc\t5\n"
    "u4\ta\t1\n"
    "u4\tb\t1\n"
    "u4\tc\t1\n"
)

# expected values frozen from tests/oracle.py (see that module)
IDF_A = 0.6931471805599453
IDF_BC = 0.28768207245178085
SIM_U1_U4 = 0.9808292530117262
PRUNE_THRESHOLD_U1 = 0.3923317012046905
SCORE_U1_C = 0.32694308433724206
SCORE_U3_A = 0.09589402415059362
SCORE_U3_B = 0.1678145422635388


@pytest.fixture
def t1_batch():
    return parse_triplets(io.StringIO(T1_TEXT))


@pytest.fixture
def t1_index(t1_batch):
    return build_index(t1_batch)


@pytest.fixture
def t1_idf(t1_index):
    return compute_idf(t1_index)


def as_dict(keys, values) -> dict[int, float]:
    """{key: value} over parallel arrays, such as Candidates.users and
    .ln_weights or ScoredTracks.tracks and .ln_scores."""
    return {int(k): float(v) for k, v in zip(keys, values)}
