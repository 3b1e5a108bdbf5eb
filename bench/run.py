#!/usr/bin/env python3
"""tastecf benchmark: the real CLI pipeline on generated workloads.

    python3 bench/run.py --workload skewed-100k --seed 9 --seconds 45 --trace 0

Every workload follows the Million Song Dataset challenge protocol. A seeded
set of query users has half of each history hidden by `tastecf split`; the
visible half joins every other user's full history as the training file.
Then `ingest`, `build`, `recommend` (query users, k = 500) and `evaluate`
(mAP@500, challenge mode) run as subprocesses. Inputs come from
`tastecf.synth` and the seed, and writing them is never timed.

Full pipeline rounds repeat while the next one fits in --seconds, then
recommend alone repeats while the next call fits. With --trace 0 the
end-to-end metrics are measured from outside the CLI (wall time with
time.perf_counter, peak RSS with os.wait4). With --trace 1 the same CLI
runs happen, and then an in-process run times the public functions of each
module with spans recorded in traced.py, never inside the program.
Either way, every output is checked for correctness. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
from dataclasses import dataclass
import hashlib
import json
import os
from pathlib import Path
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
PINNED = BENCH / "pinned.json"

K = 500
PRUNE_RATIO = 0.4
SPLIT_FRACTION = 0.5
MIN_ROUNDS = 3          # full pipeline rounds per run, at least
MIN_RECOMMENDS = 4      # recommend calls per run, at least
# split_history leaves a user with fewer tracks wholly visible, with nothing
# hidden to evaluate against
MIN_QUERY_TRACKS = 2
ORACLE_USERS = 8        # query users re-derived with tests/oracle.py per run
POOL_WORKERS = 2        # fork-pool size checked and timed in traced runs
STAGE_TIMEOUT_S = 150
SETUP_STAGES = ("split", "ingest", "build")


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], object]   # seed -> tastecf TripletBatch
    query_users: int


def _skewed_100k(seed):
    from tastecf.synth import skewed_batch
    return skewed_batch(100_000, 20_000, 10.5, seed=seed, skew=0.8)


def _wide_1m(seed):
    from tastecf.synth import skewed_batch
    return skewed_batch(1_000_000, 200_000, 1.5, seed=seed, skew=0.8)


# Why each workload is here is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("skewed-100k", _skewed_100k, query_users=600),
        Workload("wide-1m", _wide_1m, query_users=200),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "recommend_users_per_s": "users/s",
    "peak_rss_mib": "MiB",
    "recommend_rss_mib": "MiB",
}


class StageFailed(Exception):
    """A CLI stage whose output later stages need did not succeed."""


class Tally:
    """Operations attempted and failed; every check and CLI call is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class StageRun:
    wall_s: float
    rss_mib: float
    stdout: str


class Cli:
    """Runs `tastecf` stages in `work` through the spawner process, timing
    each one and reading its rusage."""

    def __init__(self, work: Path, tally: Tally):
        self.work = work
        self.tally = tally
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.spawner.terminate()
            self.spawner.wait()
        self.spawner.stdout.close()

    def stage(self, stage: str, args: list) -> StageRun:
        out_path = self.work / f"{stage}.stdout"
        err_path = self.work / f"{stage}.stderr"
        request = {"argv": [sys.executable, "-m", "tastecf", stage, *args],
                   "cwd": str(self.work), "env": self.env,
                   "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": STAGE_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        code = reply["exit_code"]
        run = StageRun(reply["wall_s"], reply["maxrss_kib"] / 1024.0,
                       out_path.read_text(encoding="utf-8"))
        if not self.tally.check(code == 0, f"tastecf {stage} exited {code}: "
                                + err_path.read_text(encoding="utf-8")[-400:]):
            raise StageFailed(stage)
        return run


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# --- inputs ------------------------------------------------------------------

def write_rows(path: Path, users, tracks, counts, user_ids, track_ids) -> None:
    """Triplet text in the layout tastecf.ingest.write_triplets produces."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        step = 1 << 16
        for lo in range(0, len(users), step):
            fh.write("".join(
                f"{user_ids[u]}\t{track_ids[t]}\t{c}\n"
                for u, t, c in zip(users[lo:lo + step].tolist(),
                                   tracks[lo:lo + step].tolist(),
                                   counts[lo:lo + step].tolist())))


def read_rows(path: Path):
    """(user, track, count) string/int rows of a triplet text file."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            user, track, count = line.rstrip("\n").split("\t")
            rows.append((user, track, int(count)))
    return rows


@dataclass
class Inputs:
    """Generated files plus what the checks need to re-derive the output."""

    user_ids: list          # generator user index -> external id
    track_ids: list         # generator track index -> external id
    base: tuple             # (users, tracks, counts) of non-query users
    query_names: list       # query users' external ids, in users.txt order


def make_inputs(wl: Workload, seed: int, work: Path) -> Inputs:
    batch = wl.generate(seed)
    user_ids, track_ids = batch.user_vocab.ids, batch.track_vocab.ids
    n_users = len(user_ids)
    eligible = np.flatnonzero(np.bincount(batch.users, minlength=n_users)
                              >= MIN_QUERY_TRACKS)
    print(f"query users: {wl.query_users} drawn from {eligible.size} users with "
          f">= {MIN_QUERY_TRACKS} tracks ({eligible.size / n_users:.1%} of {n_users})")
    rng = np.random.default_rng([seed, 0xB3AC])
    query = np.sort(rng.choice(eligible, size=wl.query_users, replace=False))
    is_query = np.zeros(n_users, dtype=bool)
    is_query[query] = True
    rows_q = is_query[batch.users]
    cols = (batch.users, batch.tracks, batch.counts)
    write_rows(work / "query.txt", *(c[rows_q] for c in cols), user_ids, track_ids)
    base = tuple(c[~rows_q] for c in cols)
    write_rows(work / "base.txt", *base, user_ids, track_ids)
    names = [user_ids[u] for u in query.tolist()]
    (work / "users.txt").write_text("".join(n + "\n" for n in names),
                                    encoding="utf-8")
    return Inputs(user_ids, track_ids, base, names)


def join_training_file(work: Path) -> None:
    """train.txt = every non-query history, then the query users' visible half."""
    with open(work / "train.txt", "wb") as out:
        for part in ("base.txt", "visible.txt"):
            with open(work / part, "rb") as fh:
                shutil.copyfileobj(fh, out)


# --- the CLI pipeline --------------------------------------------------------

@dataclass
class PipelineResult:
    setups: list            # per round: {stage: StageRun} for SETUP_STAGES
    recommends: list        # StageRun per recommend call
    evaluates: list         # StageRun per evaluate call
    recs_sha256: str
    map_text: str


def run_pipeline(seed: int, seconds: float, cli: Cli, inputs: Inputs,
                 check_workers: bool) -> PipelineResult:
    """Rounds of split -> ingest -> build -> recommend -> evaluate, then
    recommend calls alone.

    Another round starts while it is predicted, from the length of the last
    one, to end within `seconds` of the start, and at least MIN_ROUNDS run;
    recommend calls then fill the rest the same way, with at least
    MIN_RECOMMENDS in all. So a run lasts about `seconds` unless the minimums
    take longer, and set-up and recommend are both sampled across the run.
    With check_workers, recommend is rerun with POOL_WORKERS fork-pool
    workers and must give the same bytes.
    """
    work, tally = cli.work, cli.tally
    rec_args = ["--input", "train.tcfi", "--users", "users.txt", "--k", str(K),
                "--prune-ratio", str(PRUNE_RATIO)]

    def recommend():
        run = cli.stage("recommend", rec_args + ["--out", "recs.txt"])
        check_recs_file(work / "recs.txt", inputs.query_names, tally)
        recs.append(sha256(work / "recs.txt"))
        return run

    setups, recommends, evaluates, outputs, recs = [], [], [], [], []
    start = time.perf_counter()

    def fits(next_s):
        return time.perf_counter() - start + next_s <= seconds

    round_s = 0.0
    while len(setups) < MIN_ROUNDS or fits(round_s):
        round_start = time.perf_counter()
        setup = {"split": cli.stage("split", [
            "--input", "query.txt", "--visible-out", "visible.txt",
            "--hidden-out", "hidden.txt", "--fraction", str(SPLIT_FRACTION),
            "--seed", str(seed)])}
        join_training_file(work)
        setup["ingest"] = cli.stage("ingest", ["--input", "train.txt",
                                               "--out", "train.tcfd"])
        setup["build"] = cli.stage("build", ["--input", "train.tcfd",
                                             "--out", "train.tcfi"])
        setups.append(setup)
        outputs.append(tuple(sha256(work / f) for f in
                             ("visible.txt", "hidden.txt", "train.tcfi")))
        recommends.append(recommend())
        evaluates.append(cli.stage("evaluate", [
            "--recs", "recs.txt", "--hidden", "hidden.txt", "--k", str(K),
            "--mode", "challenge"]))
        round_s = time.perf_counter() - round_start
    while len(recommends) < MIN_RECOMMENDS or fits(recommends[-1].wall_s):
        recommends.append(recommend())
    tally.check(len(set(outputs)) == 1, "set-up outputs differ between rounds")
    tally.check(len(set(recs)) == 1, "recs differ between recommend calls")
    tally.check(len({e.stdout for e in evaluates}) == 1,
                "evaluate output differs between rounds")

    if check_workers:
        cli.stage("recommend", rec_args + ["--out", "recs_pool.txt",
                                           "--workers", str(POOL_WORKERS)])
        tally.check(sha256(work / "recs_pool.txt") == recs[0],
                    f"recs with --workers {POOL_WORKERS} differ from --workers 1")

    map_line = evaluates[0].stdout.strip()
    prefix = f"mAP@{K} (challenge) = "
    tally.check(map_line.startswith(prefix), f"unexpected evaluate output {map_line!r}")
    return PipelineResult(setups, recommends, evaluates, recs[0],
                          map_line[len(prefix):])


def check_recs_file(path: Path, names: list, tally: Tally) -> None:
    """One line per requested user, in order, each with exactly K items."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    tally.check(len(lines) == len(names),
                f"{path.name}: {len(lines)} lines for {len(names)} users")
    bad = 0
    for line, name in zip(lines, names):
        parts = line.split(" ")
        items = parts[1:]
        if parts[0] != name or len(items) != K or len(set(items)) != K:
            bad += 1
    tally.check(bad == 0, f"{path.name}: {bad} malformed lists")


# --- correctness against tests/oracle.py -------------------------------------

def first_seen_dense(codes: np.ndarray) -> np.ndarray:
    """Dense ids in first-occurrence order, as tastecf's Vocabulary assigns."""
    uniq, first = np.unique(codes, return_index=True)
    dense = np.empty(int(uniq[-1]) + 1, dtype=np.int64)
    dense[uniq[np.argsort(first, kind="stable")]] = np.arange(uniq.size)
    return dense[codes]


def check_against_oracle(seed: int, work: Path, inputs: Inputs, tally: Tally,
                         recs_lines: dict) -> None:
    """Re-derive a seeded sample of lists with the brute-force building blocks.

    The oracle runs on the slices of the training data each step reads:
    every listener of the user's tracks for the similarities, the kept
    neighbours' full histories for the scores. Document frequency and the
    user count come from the whole training file.
    """
    import oracle

    user_pos = {n: i for i, n in enumerate(inputs.user_ids)}
    track_pos = {n: i for i, n in enumerate(inputs.track_ids)}
    visible = read_rows(work / "visible.txt")
    users = np.concatenate([inputs.base[0],
                            np.array([user_pos[r[0]] for r in visible], dtype=np.int64)])
    tracks = np.concatenate([inputs.base[1],
                             np.array([track_pos[r[1]] for r in visible], dtype=np.int64)])
    counts = np.concatenate([inputs.base[2],
                             np.array([r[2] for r in visible], dtype=np.int64)])
    du, dt = first_seen_dense(users), first_seen_dense(tracks)
    n_users = int(du.max()) + 1
    df = np.bincount(dt)
    track_name = np.empty(df.size, dtype=object)
    track_name[dt] = [inputs.track_ids[t] for t in tracks.tolist()]
    user_dense = dict(zip((inputs.user_ids[u] for u in users.tolist()), du.tolist()))
    known_tracks = set(track_name.tolist())

    def pad_label(p):
        label = str(p)
        while label in known_tracks:
            label = "#" + label
        return label

    rng = np.random.default_rng([seed, 0x0AC1E])
    sample = rng.choice(len(inputs.query_names),
                        size=min(ORACLE_USERS, len(inputs.query_names)),
                        replace=False)
    for i in sorted(sample.tolist()):
        name = inputs.query_names[i]
        u = user_dense[name]
        own = np.flatnonzero(du == u)
        near = np.flatnonzero(np.isin(dt, dt[own]))
        history, listeners = oracle.build_maps(
            zip(du[near].tolist(), dt[near].tolist(), counts[near].tolist()))
        idf = oracle.idf_values(listeners, n_users)
        weights = oracle.user_weights(history, listeners, idf, u)
        kept, _ = oracle.pruned_neighbors(weights, PRUNE_RATIO)
        rows = np.flatnonzero(np.isin(du, [v for v, _ in kept] + [u]))
        history, _ = oracle.build_maps(
            zip(du[rows].tolist(), dt[rows].tolist(), counts[rows].tolist()))
        total_plays = {v: sum(h.values()) for v, h in history.items()}
        scores = oracle.track_scores(history, kept, total_plays, u, True)
        items = oracle.ranked_items(scores, {t: int(df[t]) for t in scores}, K)
        want = [track_name[t] if t >= 0 else pad_label(-t) for t in items]
        tally.check(recs_lines.get(name) == want,
                    f"list for {name} differs from tests/oracle.py")


def check_map(work: Path, map_text: str, tally: Tally, recs_lines: dict) -> None:
    """The printed mAP equals tests/oracle.py's mean_ap of the same lists."""
    import oracle

    hidden = {}
    for user, track, _ in read_rows(work / "hidden.txt"):
        hidden.setdefault(user, set()).add(track)
    value = oracle.mean_ap(recs_lines, hidden, K, "challenge")
    tally.check(f"{value:.6f}" == map_text,
                f"evaluate printed {map_text}, oracle mean_ap is {value:.6f}")


def read_recs(path: Path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            out[parts[0]] = parts[1:]
    return out


def check_pins(wl: Workload, seed: int, result: PipelineResult, tally: Tally) -> None:
    pins = json.loads(PINNED.read_text()).get(wl.name, {}).get(str(seed))
    if pins is None:
        return
    tally.check(result.recs_sha256 == pins["recs_sha256"],
                f"recs sha256 {result.recs_sha256} != pinned {pins['recs_sha256']}")
    tally.check(result.map_text == pins["map_at_k"],
                f"mAP {result.map_text} != pinned {pins['map_at_k']}")


# --- metrics -------------------------------------------------------------------

def end_to_end_metrics(result: PipelineResult, n_query: int) -> dict:
    runs = [r for s in result.setups for r in s.values()] + result.recommends + result.evaluates
    values = {
        "setup_s": statistics.median(sum(r.wall_s for r in s.values())
                                     for s in result.setups),
        "recommend_users_per_s": statistics.median(
            n_query / r.wall_s for r in result.recommends),
        "peak_rss_mib": max(r.rss_mib for r in runs),
        "recommend_rss_mib": max(r.rss_mib for r in result.recommends),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def cli_stage_metrics(result: PipelineResult) -> dict:
    per_stage = {stage: [s[stage] for s in result.setups] for stage in SETUP_STAGES}
    per_stage["recommend"] = result.recommends
    per_stage["evaluate"] = result.evaluates
    out = {}
    for stage, runs in per_stage.items():
        out[f"cli.{stage}_s"] = (statistics.median(r.wall_s for r in runs), "s")
        out[f"cli.{stage}_rss_mib"] = (max(r.rss_mib for r in runs), "MiB")
    return out


def run(wl: Workload, seed: int, seconds: float, trace: bool, cli: Cli) -> dict:
    """One benchmark run in `cli.work`; returns the result object to print."""
    work, tally = cli.work, cli.tally
    inputs = make_inputs(wl, seed, work)
    n_query = len(inputs.query_names)
    try:
        result = run_pipeline(seed, seconds, cli, inputs, check_workers=trace)
    except StageFailed:
        return {"correct": False, "attempted": tally.attempted,
                "failed": tally.failed, "metrics": {}}
    recs_lines = read_recs(work / "recs.txt")
    check_pins(wl, seed, result, tally)
    check_against_oracle(seed, work, inputs, tally, recs_lines)
    check_map(work, result.map_text, tally, recs_lines)
    print(f"recs_sha256={result.recs_sha256}")
    print(f"map_at_k={result.map_text}")
    for i, setup in enumerate(result.setups):
        print(f"set-up {i}: " + " ".join(f"{s}={r.wall_s:.3f}s" for s, r in setup.items()))
    print(f"recommend ({n_query} users): "
          + " ".join(f"{r.wall_s:.3f}s" for r in result.recommends))
    print("evaluate: " + " ".join(f"{r.wall_s:.3f}s" for r in result.evaluates))

    if trace:
        from traced import traced_run
        layer = traced_run(wl, seed, work, recs_lines, tally,
                           out_dir=Path.cwd() / ".bench_out")
        layer.update(cli_stage_metrics(result))
        layer["evaluate.map_at_k"] = (float(result.map_text), "mAP")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = end_to_end_metrics(result, n_query)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="minimum time spent measuring")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tastecf" / "__init__.py").is_file() or not (TESTS / "oracle.py").is_file():
        print(f"error: no tastecf sources under {ROOT} (expected src/tastecf "
              "and tests/oracle.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]

    work = Path.cwd() / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    cli = Cli(work, Tally())
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), cli)
    finally:
        cli.close()
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
