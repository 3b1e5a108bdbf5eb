#!/usr/bin/env python3
"""CLI `evaluate` at the Million Song Dataset challenge's shape: each query
user's list of K distinct track ids scored against that user's hidden
tracks.

    python3 scripts/evaluate_shape.py --users 2000
    python3 scripts/evaluate_shape.py --users 8000,27500 --runs 3 \\
        --src ../parent/src --src src --out BENCH_evaluate.json

For each user count N, a child process writes a hidden triplet file and a
recs file once to --cache, and later runs reuse them. The N users have
40-hex ids, the TRACKS tracks 18-character ids. Each user has
HIDDEN_MIN..HIDDEN_MAX hidden tracks and a list of K distinct tracks,
both drawn from one popularity curve by one searchsorted of uniform draws
in its CDF; about HIT_SHARE of a user's hidden tracks are also put in its
list, mostly near the top. Then `python -m tastecf evaluate --k K
--per-user` runs --runs times from each --src, the sources alternating
and their order reversed every other round, each in a fresh process. For
each run it records the wall time and the `ru_maxrss` that os.wait4
reports; for each N, the mAP line and the sha256 of the per-user TSV.
Each --src is compiled (`python -m compileall -q`) before the first run,
so that no run compiles the package as it starts. This process never
imports numpy, so that a run started as a copy of it does not count its
memory.

The JSON object is printed and, with --out, written there. The script
exits 1, after that, when two runs print different mAP lines or write
different TSVs.
"""

import argparse
import hashlib
import json
import os
from pathlib import Path
import statistics
import subprocess
import sys

from msd_shape_bench import git_sha, run_stage, sha256

ROOT = Path(__file__).resolve().parent.parent
# the challenge's list length, catalogue and hidden tracks per query user
K = 500
TRACKS = 385_000
HIDDEN_MIN, HIDDEN_MAX = 5, 42
# the share of a user's hidden tracks placed in its list
HIT_SHARE = 0.3
# track popularity ~ 1 / (rank + POP_OFFSET) ** POP_POWER
POP_OFFSET, POP_POWER = 10, 1.0
SEED = 7
# users drawn and written at a time
CHUNK_USERS = 2_000


def _first_distinct(np, draws, counts):
    """Each row's first counts[i] distinct draws, in draw order, flattened,
    and how many each row gave."""
    order = np.argsort(draws, axis=1, kind="stable")
    ranked = np.take_along_axis(draws, order, 1)
    new = np.ones(draws.shape, bool)
    new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    first = np.empty_like(new)
    np.put_along_axis(first, order, new, 1)
    first &= np.cumsum(first, 1) <= counts[:, None]
    return draws[first], first.sum(1)


def write_inputs(users: str, stem: str) -> None:
    """Write the hidden file, the recs file and the shape of N users; run
    as `evaluate_shape.py generate N STEM`."""
    import numpy as np

    n_users = int(users)
    rng = np.random.default_rng([SEED, n_users])
    # an odd multiplier is a bijection mod 2**64: the ids are distinct
    track_ids = [f"TR{i * 0x9E3779B97F4A7C15 % 2**64:016X}" for i in range(TRACKS)]
    cdf = np.cumsum(1.0 / (np.arange(TRACKS) + POP_OFFSET) ** POP_POWER)
    cdf /= cdf[-1]
    hidden_rows = 0
    with open(stem + ".hidden.txt", "w", encoding="utf-8", newline="\n") as hid, \
            open(stem + ".recs.txt", "w", encoding="utf-8", newline="\n") as recs:
        for at in range(0, n_users, CHUNK_USERS):
            n = min(CHUNK_USERS, n_users - at)
            wanted = rng.integers(HIDDEN_MIN, HIDDEN_MAX + 1, n)
            draws = np.searchsorted(cdf, rng.random((n, 2 * HIDDEN_MAX)))
            hidden, held = _first_distinct(np, draws, wanted)
            # each hidden track, with chance HIT_SHARE, overwrites a slot of
            # the list's draws, slot K * u**2 for a uniform u
            draws = np.searchsorted(cdf, rng.random((n, 3 * K)))
            rows = np.repeat(np.arange(n), held)
            hit = rng.random(hidden.size) < HIT_SHARE
            slots = (K * rng.random(hidden.size) ** 2).astype(np.int64)
            draws[rows[hit], slots[hit]] = hidden[hit]
            ranked, lens = _first_distinct(np, draws, np.full(n, K))
            if (lens < K).any():
                raise SystemExit("a list drew fewer than K distinct tracks")
            ends = np.cumsum(held).tolist()
            hidden = hidden.tolist()
            ranked = ranked.reshape(n, K).tolist()
            for i in range(n):
                user = hashlib.sha1(f"{SEED}:{at + i}".encode()).hexdigest()
                tracks = hidden[ends[i] - int(held[i]):ends[i]]
                hid.write("".join(f"{user}\t{track_ids[t]}\t1\n" for t in tracks))
                recs.write(" ".join([user, *map(track_ids.__getitem__, ranked[i])]))
                recs.write("\n")
            hidden_rows += len(hidden)
    Path(stem + ".shape.json").write_text(json.dumps([n_users, hidden_rows]))


def cached_inputs(n_users: int, cache: Path):
    """(hidden file, recs file, hidden rows) of N users, made by a child
    process the first time."""
    stem = cache / f"evaluate-{n_users}"
    shape = Path(f"{stem}.shape.json")
    if not shape.exists():
        cache.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, __file__, "generate", str(n_users),
                        str(stem)], env=env, check=True)
    return (Path(f"{stem}.hidden.txt"), Path(f"{stem}.recs.txt"),
            json.loads(shape.read_text())[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--users", default="8000",
                        help="comma-separated query user counts")
    parser.add_argument("--src", type=Path, action="append",
                        help="a src directory whose CLI is measured; repeat "
                             "to alternate several (default: this tree's)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per user count and --src")
    parser.add_argument("--cache", type=Path, default=ROOT / ".evaluate_shape",
                        help="where the inputs and per-user TSVs are kept")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    args = parser.parse_args()
    srcs = [src.resolve() for src in args.src or [ROOT / "src"]]
    for src in srcs:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)],
                       check=True)

    result = {
        "sources": {str(src): {
            "git_sha": git_sha(src),
            "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                             for p in sorted(src.rglob("*.py")))} for src in srcs},
        "nproc": os.cpu_count(),
        "k": K, "tracks": TRACKS, "seed": SEED,
        "users": {},
    }
    differ = []
    for name in args.users.split(","):
        n_users = int(name)
        hidden, recs, hidden_rows = cached_inputs(n_users, args.cache)
        per_user = args.cache / f"per_user-{os.getpid()}.tsv"
        runs = {str(src): [] for src in srcs}
        outputs = set()
        for round_no in range(args.runs):
            for src in srcs if round_no % 2 == 0 else srcs[::-1]:
                run, out = run_stage(src, [
                    "evaluate", "--recs", str(recs), "--hidden", str(hidden),
                    "--k", str(K), "--per-user", str(per_user)])
                map_line = out.strip()
                runs[str(src)].append(run)
                outputs.add((map_line, sha256(per_user)))
                per_user.unlink()
                print(f"users={n_users} {src}: {run} {map_line}", file=sys.stderr)
        result["users"][name] = {
            "hidden_rows": hidden_rows,
            "recs_bytes": recs.stat().st_size,
            "runs": runs,
            "median": {src: {key: statistics.median(run[key] for run in src_runs)
                             for key in ("wall_s", "ru_maxrss_mib")}
                       for src, src_runs in runs.items()},
            "outputs": [{"map_line": line, "per_user_sha256": digest}
                        for line, digest in sorted(outputs)],
        }
        if len(outputs) > 1:
            differ.append(name)
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    print(text, end="")
    if differ:
        print(f"evaluate output differs between runs at {', '.join(differ)} users",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["generate"]:
        write_inputs(*sys.argv[2:])
    else:
        sys.exit(main())
