"""Per-track inverse document frequency.

idf(t) = log(n_users / df(t)), where df(t) counts the users who played t at
least once. The value is large for rarely played tracks and exactly zero
for tracks everyone has played.

The log base can never change neighbor sets or item rankings (for bases
above 1 all weights scale by one positive constant, and every downstream
comparison is scale-invariant), so the engine reads only the natural-log
values and the base only labels the table: it sets `values`, and no file
stores it. That keeps rankings bit-identical across bases instead of merely
close. Natural log is the default; bases in (0, 1) flip the sign
of every value and are degenerate for ranking.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .core import EmptyIndexError


@dataclass(eq=False)
class IdfTable:
    """Per-track idf for a fixed user population and log base.

    ln_values holds the natural-log idf the engine computes with; values
    presents the table's base (identical array when the base is e).
    Tracks with df = 0 (possible when a vocabulary is shared with a split
    that put all their plays elsewhere) get an inert 0.0: they appear in no
    posting list, so the value is never read by scoring.
    """

    ln_values: np.ndarray
    n_users: int
    log_base: float
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.log_base == math.e:
            self.values = self.ln_values
        else:
            scaled = self.ln_values / math.log(self.log_base)
            scaled.flags.writeable = False
            self.values = scaled

    def __eq__(self, other):
        return (
            isinstance(other, IdfTable)
            and self.n_users == other.n_users
            and self.log_base == other.log_base
            and np.array_equal(self.ln_values, other.ln_values)
        )


def compute_idf(index, log_base: float = math.e) -> IdfTable:
    """Build the idf table for every track of the index.

    Raises ValueError for a log base that is not positive or equals 1, and
    EmptyIndexError when the index has no users.
    """
    # NaN is neither positive nor 1
    if not (log_base > 0 and log_base != 1):
        raise ValueError(f"log_base must be positive and != 1, got {log_base}")
    if index.n_users == 0:
        raise EmptyIndexError("cannot compute idf over zero users")
    n = int(index.n_users)
    # scalar math.log, not np.log: keeps values bit-identical to any
    # straight per-entry reimplementation of the formula; it runs once per
    # distinct df > 0, into a table indexed by df, so no df is sorted
    table = np.zeros(int(index.df.max(initial=0)) + 1)
    dfs = np.flatnonzero(np.bincount(index.df)[1:]) + 1
    table[dfs] = [math.log(n / d) for d in dfs.tolist()]
    ln_values = table[index.df]
    ln_values.flags.writeable = False
    return IdfTable(ln_values, n, float(log_base))
