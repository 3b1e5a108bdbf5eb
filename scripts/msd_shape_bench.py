#!/usr/bin/env python3
"""Paper-shaped pipeline run: `ingest`, `build`, `recommend` and `split`
through the CLI at fractions of the Million Song Dataset challenge's shape.

    python3 scripts/msd_shape_bench.py
    python3 scripts/msd_shape_bench.py --fractions 1/16

For each fraction f, the text of synth.msd_shaped_batch(f) is written once
to --cache and reused by later runs, together with a file of QUERY_USERS
query users drawn with SEED. Each stage then runs as `python -m tastecf`
in a fresh process started by this script, so the `ru_maxrss` that
os.wait4 reports is that stage's own peak. --out gets one JSON object: per
fraction and stage the wall time and peak RSS, with recommend run at each
of WORKERS and split run over the whole text with SPLIT_FRACTION and SEED,
the sha256 of the dataset, index, recs and split halves (equal for changes
that keep output), and the git SHA, nproc and src/ line count of the
measured code. The script exits 1, after writing --out, when the recs
of two worker counts differ.
--src runs the stages from another checkout's src directory, so two
checkouts can be measured on the same cached text. That directory is
compiled (`python -m compileall -q`) before the first stage, so every
stage starts from cached bytecode: a stage that compiles the package as it
starts takes about 20 ms and 1-2 MiB more, which would make two checkouts
with different cache states differ for no change in the code. The text is
made in a child process, and this process never imports numpy: a stage
starts as a copy of it, so its ru_maxrss would otherwise count this
process's memory.
"""

import argparse
from fractions import Fraction
import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys
import time

ROOT = Path(__file__).resolve().parent.parent
# the users recommend is asked for, as in the table of ROADMAP item 1
QUERY_USERS = 300
# draws the query users
SEED = 3
# the worker counts recommend runs with
WORKERS = (1, 2)
# the visible share of each user's tracks that split keeps
SPLIT_FRACTION = "0.5"


def write_inputs(fraction: str, stem: str) -> None:
    """Write the text, the users file and the shape of one fraction; run
    as `msd_shape_bench.py generate FRACTION STEM`."""
    import numpy as np
    from tastecf.ingest import write_triplets
    from tastecf.synth import msd_shaped_batch

    batch = msd_shaped_batch(float(Fraction(fraction)))
    write_triplets(batch, stem + ".txt")
    rng = np.random.default_rng([SEED, 2])
    query = np.sort(rng.choice(len(batch.user_vocab), QUERY_USERS, replace=False))
    Path(stem + ".users.txt").write_text(
        "".join(batch.user_vocab.lookup(int(u)) + "\n" for u in query),
        encoding="utf-8")
    Path(stem + ".shape.json").write_text(json.dumps(
        [len(batch), len(batch.user_vocab), len(batch.track_vocab)]))


def cached_inputs(fraction: Fraction, cache: Path):
    """(text, users file, triplets, users, tracks) of a fraction, made by
    a child process the first time."""
    stem = cache / f"msd-{fraction.numerator}-{fraction.denominator}"
    shape = Path(f"{stem}.shape.json")
    if not shape.exists():
        cache.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, __file__, "generate", str(fraction),
                        str(stem)], env=env, check=True)
    return (Path(f"{stem}.txt"), Path(f"{stem}.users.txt"),
            *json.loads(shape.read_text()))


def run_stage(src: Path, args: list) -> dict:
    """Wall time and ru_maxrss of one `python -m tastecf` call."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "tastecf", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = proc.stderr.read().decode("utf-8", "replace")
    proc.stderr.close()
    if proc.returncode != 0:
        raise SystemExit(f"tastecf {args[0]} exited {proc.returncode}:\n{err[-2000:]}")
    return {"wall_s": round(wall, 3), "ru_maxrss_mib": round(usage.ru_maxrss / 1024, 1)}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def git_sha(src: Path) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=src, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fractions", default="1/16,1/8,1/4",
                        help="comma-separated fractions of the full shape")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory whose CLI is measured")
    parser.add_argument("--cache", type=Path, default=ROOT / ".msd_shape",
                        help="where texts and stage outputs are kept")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_msd-shape.json")
    args = parser.parse_args()
    src = args.src.resolve()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)], check=True)

    result = {
        "git_sha": git_sha(src),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(src.rglob("*.py"))),
        "seed": SEED,
        "query_users": QUERY_USERS,
        "split_fraction": SPLIT_FRACTION,
        "fractions": {},
    }
    for name in args.fractions.split(","):
        fraction = Fraction(name)
        text, users, n_triplets, n_users, n_tracks = cached_inputs(
            fraction, args.cache)
        work = args.cache / f"run-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        dataset, index = work / "plays.tcfd", work / "plays.tcfi"
        stages = {"ingest": ["ingest", "--input", str(text), "--out", str(dataset)],
                  "build": ["build", "--input", str(dataset), "--out", str(index)]}
        for w in WORKERS:
            stages[f"recommend_w{w}"] = [
                "recommend", "--input", str(index), "--users", str(users),
                "--out", str(work / f"recs_w{w}.txt"), "--workers", str(w)]
        stages["split"] = ["split", "--input", str(text),
                           "--visible-out", str(work / "visible.txt"),
                           "--hidden-out", str(work / "hidden.txt"),
                           "--fraction", SPLIT_FRACTION, "--seed", str(SEED)]
        runs = {}
        for stage, stage_args in stages.items():
            runs[stage] = run_stage(src, stage_args)
            print(f"f={name} {stage}: {runs[stage]}", file=sys.stderr)
        result["fractions"][name] = {
            "triplets": n_triplets, "users": n_users, "tracks": n_tracks,
            "text_bytes": text.stat().st_size,
            "stages": runs,
            "dataset_sha256": sha256(dataset),
            "index_sha256": sha256(index),
            "recs_sha256": {f"w{w}": sha256(work / f"recs_w{w}.txt") for w in WORKERS},
            "split_sha256": {half: sha256(work / f"{half}.txt") for half in ("visible", "hidden")},
        }
        for path in work.iterdir():
            path.unlink()
        work.rmdir()
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    differ = [name for name, run in result["fractions"].items()
              if len(set(run["recs_sha256"].values())) > 1]
    if differ:
        print(f"recs differ between worker counts at f = {', '.join(differ)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["generate"]:
        write_inputs(*sys.argv[2:])
    else:
        sys.exit(main())
