"""The traced run: per-layer timings and counters, in process.

Spans are recorded here, around calls into tastecf's public functions; the
program itself is not instrumented. Each span has a name, start, end and
parent, and the spans of one recommended user share that user's id. Spans
stay in memory and are written as JSON lines when the run ends.

Storage calls made inside `load_index` are timed by swapping the
`tastecf.storage` functions for timing wrappers for the duration of that
one call, so they nest under the load span.

The spans of one user's steps are cut from one chain of perf_counter
readings, and the user's span runs from the first reading to the last, so
the step spans tile their parent by construction: its self time is zero.
"""

from contextlib import contextmanager
import json
from pathlib import Path
import time

import numpy as np


class Tracer:
    """In-memory spans: [name, start, end, parent id, user]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, user=None):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, user]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end, parent, user=None) -> int:
        self.spans.append([name, start, end, parent, user])
        return len(self.spans) - 1

    def current(self):
        return self._stack[-1] if self._stack else None

    def self_times(self) -> dict:
        """Per span name: (calls, total s, self s), where self time is the
        span's duration minus the durations of its direct children."""
        child_sum = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_sum[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start,
                         own + end - start - child_sum[i])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, user) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "user": user}) + "\n")


@contextmanager
def interpose(tracer: Tracer, module, attr: str, span_name: str):
    """Time every call of module.attr made while the block runs.

    Raises AttributeError if the program has no such function, so that a
    rename cannot leave its metric silently at zero.
    """
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        with tracer.span(span_name):
            return original(*args, **kwargs)

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


# what traced_run times for each user, in recommend_one's order, then render
USER_STEPS = (("candidates", "similarity.candidate_neighbors"),
              ("prune", "similarity.prune"),
              ("score", "recommend.score_tracks"),
              ("rank", "recommend.rank_and_pad"),
              ("render", "recommend.render_recommendation"))


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def traced_run(wl, seed: int, work: Path, recs_lines: dict, tally,
               out_dir: Path) -> dict:
    """Per-layer metrics as {name: (value, unit)} for one workload."""
    from tastecf import (AP_CHALLENGE, Config, build_index, candidate_neighbors,
                         compute_idf, load_dataset, load_index,
                         mean_average_precision, parse_triplets, prune,
                         rank_and_pad, recommend_all, recommend_one,
                         render_recommendation, save_dataset, save_index,
                         score_tracks, split_history, write_triplets)
    from tastecf import storage
    from run import K, POOL_WORKERS, PRUNE_RATIO, SPLIT_FRACTION, read_rows, sha256

    tr = Tracer()
    m = {}
    with tr.span("traced_run"):
        # ingest and split: what `split`, `ingest` and `build` do, call by call
        with open(work / "query.txt", encoding="utf-8") as fh, \
                tr.span("ingest.parse_triplets"):
            query = parse_triplets(fh)
        with tr.span("evaluate.split_history") as s:
            split = split_history(query, SPLIT_FRACTION, seed)
        m["evaluate.split_history_s"] = (s[2] - s[1], "s")
        with tr.span("ingest.write_triplets") as s:
            write_triplets(split.visible, work / "traced_visible.txt")
            write_triplets(split.hidden, work / "traced_hidden.txt")
        m["ingest.write_triplets_s"] = (s[2] - s[1], "s")
        tally.check(sha256(work / "traced_visible.txt") == sha256(work / "visible.txt")
                    and sha256(work / "traced_hidden.txt") == sha256(work / "hidden.txt"),
                    "in-process split differs from `tastecf split`")
        del query, split

        with open(work / "train.txt", encoding="utf-8") as fh, \
                tr.span("ingest.parse_triplets") as s:
            batch = parse_triplets(fh)
        m["ingest.parse_s"] = (s[2] - s[1], "s")
        dataset = work / "traced.tcfd"
        with tr.span("ingest.save_dataset") as s:
            save_dataset(batch, dataset)
        m["ingest.save_dataset_s"] = (s[2] - s[1], "s")
        m["ingest.dataset_bytes"] = (dataset.stat().st_size, "bytes")
        del batch
        with tr.span("ingest.load_dataset") as s, \
                interpose(tr, storage, "read_verified", "storage.read_verified"), \
                interpose(tr, storage, "decode_vocab", "storage.decode_vocab"):
            batch = load_dataset(dataset)
        m["ingest.load_dataset_s"] = (s[2] - s[1], "s")

        with tr.span("index.build_index") as s:
            index = build_index(batch)
        m["index.build_s"] = (s[2] - s[1], "s")
        with tr.span("idf.compute_idf") as s:
            idf = compute_idf(index)
        m["idf.compute_s"] = (s[2] - s[1], "s")
        index_path = work / "traced.tcfi"
        with tr.span("index.save_index") as s:
            save_index(index, batch.user_vocab, batch.track_vocab, index_path, idf=idf)
        m["index.save_s"] = (s[2] - s[1], "s")
        m["index.file_bytes"] = (index_path.stat().st_size, "bytes")
        del batch, index, idf

        with tr.span("index.load_index") as s, \
                interpose(tr, storage, "read_verified", "storage.read_verified"), \
                interpose(tr, storage, "decode_vocab", "storage.decode_vocab"):
            loaded = load_index(index_path)
        m["index.load_s"] = (s[2] - s[1], "s")
        for attr in ("read_verified", "decode_vocab"):   # inside load_index only
            m[f"storage.{attr}_s"] = (sum(
                sp[2] - sp[1] for sp in tr.spans
                if sp[0] == f"storage.{attr}" and sp[1] >= s[1]), "s")
        index, idf = loaded.index, loaded.idf
        uv, tv = loaded.user_vocab, loaded.track_vocab
        posting = np.asarray(index.df)
        m["index.posting_len_p50"] = (_pct(posting, 50), "count")
        m["index.posting_len_p99"] = (_pct(posting, 99), "count")
        m["index.posting_len_max"] = (int(posting.max()), "count")

        # recommend: a warm-up pass, then each user once untraced and once
        # traced, alternating which goes first so that neither the warmer
        # caches of a repeat nor a slow spell of the machine favours one side
        config = Config(prune_ratio=PRUNE_RATIO, k=K)
        names = (work / "users.txt").read_text(encoding="utf-8").split()
        users = [uv.index_of(n) for n in names]
        for u in users:
            recommend_one(index, idf, u, config)

        plain_ms = []
        steps = {key: [] for key, _ in USER_STEPS}
        shape = {k: [] for k in ("postings", "candidates", "kept", "forward",
                                 "scored", "listed", "pads")}
        fwd = index.fwd_offsets

        def plain(u):
            t0 = time.perf_counter()
            recommend_one(index, idf, u, config)
            t1 = time.perf_counter()
            tr.add("recommend.recommend_one", t0, t1, tr.current(), u)
            plain_ms.append((t1 - t0) * 1e3)

        def traced(u) -> str:
            t0 = time.perf_counter()
            cands = candidate_neighbors(index, idf, u)
            t1 = time.perf_counter()
            neighbors = prune(cands, config.prune_ratio)
            t2 = time.perf_counter()
            scored = score_tracks(index, neighbors, config.exclude_seen)
            t3 = time.perf_counter()
            rec = rank_and_pad(u, scored, config.k, config.pad_strategy,
                               index.df, seen=index.forward_tracks(u))
            t4 = time.perf_counter()
            line = render_recommendation(rec, uv, tv)
            t5 = time.perf_counter()
            parent = tr.add("recommend.user", t0, t5, tr.current(), u)
            bounds = (t0, t1, t2, t3, t4, t5)
            for j, (key, name) in enumerate(USER_STEPS):
                tr.add(name, bounds[j], bounds[j + 1], parent, u)
                steps[key].append((bounds[j + 1] - bounds[j]) * 1e3)

            shape["postings"].append(int(index.df[index.forward_tracks(u)].sum()))
            shape["candidates"].append(len(cands))
            shape["kept"].append(len(neighbors))
            shape["forward"].append(int((fwd[neighbors.users + 1]
                                         - fwd[neighbors.users]).sum()))
            shape["scored"].append(int(scored.tracks.size))
            shape["listed"].append(len(rec.real_items))
            shape["pads"].append(rec.pad_count)
            return line

        mismatched = 0
        with tr.span("recommend.users"):
            for i, u in enumerate(users):
                if i % 2:
                    plain(u)
                line = traced(u)
                if not i % 2:
                    plain(u)
                parts = line.split(" ")
                if recs_lines.get(parts[0]) != parts[1:]:
                    mismatched += 1
        tally.check(mismatched == 0,
                    f"{mismatched} traced lines differ from the CLI recs file")

        with tr.span("recommend.recommend_all") as s:
            for _ in recommend_all(index, idf, users, config, workers=POOL_WORKERS):
                pass
        all_s = s[2] - s[1]

        hidden = {}
        for user, track, _ in read_rows(work / "hidden.txt"):
            hidden.setdefault(user, set()).add(track)
        with tr.span("evaluate.mean_average_precision") as s:
            mean_average_precision(recs_lines, hidden, K, AP_CHALLENGE)
        m["evaluate.map_s"] = (s[2] - s[1], "s")

    traced_s = sum(sum(steps[k]) for k in ("candidates", "prune", "score", "rank")) / 1e3
    plain_total_s = sum(plain_ms) / 1e3
    n_scored = sum(shape["scored"])
    n_candidates = sum(shape["candidates"])
    m.update({
        "similarity.candidates_ms_p50": (_pct(steps["candidates"], 50), "ms"),
        "similarity.candidates_ms_p99": (_pct(steps["candidates"], 99), "ms"),
        "similarity.candidates_total_s": (sum(steps["candidates"]) / 1e3, "s"),
        "similarity.postings_touched_p50": (_pct(shape["postings"], 50), "count"),
        "similarity.postings_touched_p99": (_pct(shape["postings"], 99), "count"),
        "similarity.candidates_p50": (_pct(shape["candidates"], 50), "count"),
        "similarity.candidates_p99": (_pct(shape["candidates"], 99), "count"),
        "similarity.prune_total_s": (sum(steps["prune"]) / 1e3, "s"),
        "similarity.kept_p50": (_pct(shape["kept"], 50), "count"),
        "similarity.kept_p99": (_pct(shape["kept"], 99), "count"),
        "similarity.keep_ratio": (sum(shape["kept"]) / max(1, n_candidates), "ratio"),
        "recommend.score_ms_p50": (_pct(steps["score"], 50), "ms"),
        "recommend.score_ms_p99": (_pct(steps["score"], 99), "ms"),
        "recommend.score_total_s": (sum(steps["score"]) / 1e3, "s"),
        "recommend.forward_entries_touched_p50": (_pct(shape["forward"], 50), "count"),
        "recommend.forward_entries_touched_p99": (_pct(shape["forward"], 99), "count"),
        "recommend.scored_tracks_p50": (_pct(shape["scored"], 50), "count"),
        "recommend.rank_ms_p50": (_pct(steps["rank"], 50), "ms"),
        "recommend.rank_ms_p99": (_pct(steps["rank"], 99), "ms"),
        "recommend.rank_total_s": (sum(steps["rank"]) / 1e3, "s"),
        "recommend.listed_ratio": (sum(shape["listed"]) / max(1, n_scored), "ratio"),
        "recommend.pad_ratio": (sum(shape["pads"]) / (K * max(1, len(users))), "ratio"),
        "recommend.render_total_s": (sum(steps["render"]) / 1e3, "s"),
        "recommend.user_ms_p50": (_pct(plain_ms, 50), "ms"),
        "recommend.user_ms_p99": (_pct(plain_ms, 99), "ms"),
        "recommend.all_s": (all_s, "s"),
        "recommend.pool_overhead_s": (all_s - plain_total_s / POOL_WORKERS, "s"),
        "trace.overhead_ratio": (traced_s / plain_total_s, "ratio"),
        "trace.users": (len(users), "count"),
    })

    spans_path = out_dir / f"trace-{wl.name}-{seed}.jsonl"
    tr.write(spans_path)
    print(f"spans: {len(tr.spans)} -> {spans_path}")
    print(f"{'span':36s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
    for name, (calls, total, own) in sorted(tr.self_times().items(),
                                            key=lambda kv: -kv[1][2]):
        print(f"{name:36s} {calls:7d} {total:10.4f} {own:10.4f}")
    return m
