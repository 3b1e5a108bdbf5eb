"""Command-line pipeline: ingest -> build -> recommend -> evaluate, plus
split and stats.

Defaults mirror the reference configuration (prune ratio 0.4, k = 500,
natural-log idf, dummy padding); anything else needs an explicit flag.
Every run prints its full effective configuration to stderr first, so any
output can be reproduced from the log line alone. Path flags may also be
supplied through TASTECF_* environment variables.
"""

import argparse
from contextlib import contextmanager
import os
import sys

from . import ingest
from .core import (AP_CHALLENGE, AP_LIST_LENGTH, Config, DataError,
                   DuplicatePairError, MalformedLineError, PAD_DUMMY,
                   PAD_STRATEGIES)
from .evaluate import mean_average_precision, split_history, tracks_by_user
from .index import (_DATASET_MAGIC, _MAGIC as _INDEX_MAGIC, _build_file,
                    _read_dataset, load_index, save_dataset)
from .ingest import read_triplets, write_triplets
from .recommend import recommend_all, write_recommendations

_MODE_NAMES = {"challenge": AP_CHALLENGE, "paper": AP_LIST_LENGTH}


def _ratio(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("must be in [0, 1]")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("must be in (0, 1)")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_path(parser, flag: str, env: str, help_text: str, required=True):
    default = os.environ.get(env)
    parser.add_argument(flag, default=default,
                        required=required and default is None,
                        help=f"{help_text} (env {env})")


@contextmanager
def _located(path):
    """Raise a line error raised inside as DataError `FILE:LINE: ...`."""
    try:
        yield
    except (MalformedLineError, DuplicatePairError) as exc:
        raise DataError(f"{path}:{exc.line_no}: {exc.message}") from None


def _text_lines(path):
    """(line number, line) for each line of the UTF-8 text file at `path`,
    its line end stripped, read in blocks as read_triplets reads a file. A
    byte that is not UTF-8 raises MalformedLineError at its line, after the
    lines before it."""
    with open(path, "rb") as fh:
        for data, first_line, _, error in ingest._file_blocks(fh):
            yield from enumerate(str(data, "utf-8").split("\n")[:-1], first_line)
            if error is not None:
                raise error


def _read_triplets(path):
    """read_triplets, with a line error raised as `FILE:LINE: ...`."""
    with _located(path):
        return read_triplets(path)


def _log_config(command: str, args, keys) -> None:
    shown = []
    for key in keys:
        value = getattr(args, key)
        if isinstance(value, float):
            value = repr(value)
        shown.append(f"{key}={value}")
    print(f"config: command={command} " + " ".join(shown), file=sys.stderr)


def _cmd_ingest(args) -> int:
    _log_config("ingest", args, ["input", "out"])
    batch = _read_triplets(args.input)
    save_dataset(batch, args.out)
    print(f"ingested {len(batch)} triplets "
          f"({len(batch.user_vocab)} users, {len(batch.track_vocab)} tracks) "
          f"-> {args.out}", file=sys.stderr)
    return 0


def _cmd_build(args) -> int:
    _log_config("build", args, ["input", "out"])
    n_users, n_tracks, nnz = _build_file(args.input, args.out)
    print(f"built index: {n_users} users, {n_tracks} tracks, "
          f"{nnz} interactions -> {args.out}", file=sys.stderr)
    return 0


def _read_user_ids(path) -> list[str]:
    """The ids of a --users file, one per non-empty line; an id listed
    twice is a MalformedLineError."""
    ids = []
    seen = set()
    with _located(path):
        for line_no, line in _text_lines(path):
            # only spaces are stripped: ids cannot hold one, but may hold a tab
            ext_id = line.strip(" ")
            if not ext_id:
                continue
            if ext_id in seen:
                raise MalformedLineError(line_no, f"duplicate user id {ext_id!r}")
            seen.add(ext_id)
            ids.append(ext_id)
    return ids


def _cmd_recommend(args) -> int:
    _log_config("recommend", args,
                ["input", "users", "out", "prune_ratio", "k", "exclude_seen",
                 "pad", "workers"])
    config = Config(prune_ratio=args.prune_ratio, k=args.k,
                    exclude_seen=args.exclude_seen, pad_strategy=args.pad)
    user_ids = _read_user_ids(args.users)
    loaded = load_index(args.input, users=user_ids)
    indexes = loaded.user_indexes
    if None in indexes:
        unknown = user_ids[indexes.index(None)]
        raise DataError(f"unknown user id {unknown!r} in {args.users}")
    recs = recommend_all(loaded.index, loaded.idf, indexes, config,
                         workers=args.workers)
    # each line's user is its --users id, byte for byte the stored one
    write_recommendations(recs, args.out, user_ids, loaded.track_vocab)
    print(f"recommended for {len(indexes)} users -> {args.out}", file=sys.stderr)
    return 0


def _read_recommendation_lines(path):
    """{user: items} from lines of single-space-separated ids, so an empty
    id or one holding other whitespace reads back as written."""
    rankings = {}
    with _located(path):
        for line_no, line in _text_lines(path):
            if not line:
                continue
            parts = line.split(" ")
            user, items = parts[0], parts[1:]
            if user in rankings:
                raise MalformedLineError(
                    line_no, f"duplicate recommendation for user {user!r}")
            rankings[user] = items
    return rankings


def _cmd_evaluate(args) -> int:
    _log_config("evaluate", args,
                ["recs", "hidden", "k", "mode", "per_user"])
    rankings = _read_recommendation_lines(args.recs)
    hidden = _read_triplets(args.hidden)
    hidden_by_user = tracks_by_user(hidden, hidden.user_vocab.ids,
                                    hidden.track_vocab.ids)

    report = mean_average_precision(rankings, hidden_by_user, args.k,
                                    _MODE_NAMES[args.mode])
    if args.per_user:
        with open(args.per_user, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("user\tap\thidden_count\n")
            for user, ap, hidden_count in report.per_user:
                fh.write(f"{user}\t{ap:.10f}\t{hidden_count}\n")
    print(f"mAP@{args.k} ({args.mode}) = {report.map_score:.6f}")
    return 0


def _cmd_split(args) -> int:
    _log_config("split", args,
                ["input", "visible_out", "hidden_out", "fraction", "seed"])
    split = split_history(_read_triplets(args.input), args.fraction, args.seed)
    visible, hidden = len(split.visible), len(split.hidden)
    write_triplets(split.visible, args.visible_out)
    write_triplets(split.hidden, args.hidden_out)
    print(f"split {visible + hidden} triplets into {visible} visible / "
          f"{hidden} hidden", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    _log_config("stats", args, ["input"])
    with open(args.input, "rb") as fh:
        magic = fh.read(len(_DATASET_MAGIC))
    if magic == _INDEX_MAGIC:
        index = load_index(args.input).index
        shape = (index.n_users, index.n_tracks, index.nnz,
                 index.total_plays.sum())
    elif magic == _DATASET_MAGIC:
        # play counts summed as they are read, as load_index sums them
        uv, _, tv, _, tracks, plays = _read_dataset(args.input, sum_counts=True)
        shape = (len(uv), len(tv), tracks.size, plays.sum())
    else:
        batch = _read_triplets(args.input)
        shape = (len(batch.user_vocab), len(batch.track_vocab), len(batch),
                 batch.counts.sum(dtype="int64"))
    for name, value in zip(("n_users", "n_tracks", "triplets", "total_plays"),
                           shape):
        print(f"{name}={int(value)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tastecf",
        description="IDF-weighted user-based collaborative filtering over "
                    "implicit listening triplets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse triplet text into a binary dataset")
    _add_path(p, "--input", "TASTECF_INPUT", "triplet text file")
    _add_path(p, "--out", "TASTECF_OUT", "binary dataset to write")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("build", help="build the interaction index from a dataset")
    _add_path(p, "--input", "TASTECF_INPUT", "binary dataset file")
    _add_path(p, "--out", "TASTECF_OUT", "binary index to write")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("recommend", help="write top-k lists for a set of users")
    _add_path(p, "--input", "TASTECF_INPUT", "binary index file")
    _add_path(p, "--users", "TASTECF_USERS", "file with one user id per line")
    _add_path(p, "--out", "TASTECF_OUT", "recommendation file to write")
    p.add_argument("--prune-ratio", type=_ratio, default=0.4,
                   help="keep neighbors scoring at least this fraction of "
                        "the best (default 0.4)")
    p.add_argument("--k", type=_positive_int, default=500,
                   help="recommendation list length (default 500)")
    p.add_argument("--exclude-seen", action=argparse.BooleanOptionalAction,
                   default=True, help="drop tracks the user already played")
    p.add_argument("--pad", choices=PAD_STRATEGIES, default=PAD_DUMMY,
                   help="how to fill lists shorter than k (default dummy)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="parallel workers (output is identical for any N)")
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("evaluate", help="score a recommendation file with mAP@k")
    _add_path(p, "--recs", "TASTECF_RECS", "recommendation file")
    _add_path(p, "--hidden", "TASTECF_HIDDEN", "hidden-half triplet text file")
    p.add_argument("--k", type=_positive_int, default=500,
                   help="truncation depth (default 500)")
    p.add_argument("--mode", choices=sorted(_MODE_NAMES), default="challenge",
                   help="AP normalizer: 'challenge' divides by hidden count, "
                        "'paper' by list length")
    _add_path(p, "--per-user", "TASTECF_PER_USER",
              "optional per-user TSV to write", required=False)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("split", help="split each user's history into "
                                     "visible/hidden triplet files")
    _add_path(p, "--input", "TASTECF_INPUT", "triplet text file")
    _add_path(p, "--visible-out", "TASTECF_VISIBLE_OUT", "visible half to write")
    _add_path(p, "--hidden-out", "TASTECF_HIDDEN_OUT", "hidden half to write")
    p.add_argument("--fraction", type=_fraction, default=0.5,
                   help="visible share of each user's distinct tracks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("stats", help="print dataset statistics")
    _add_path(p, "--input", "TASTECF_INPUT",
              "triplet text, binary dataset or binary index")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
