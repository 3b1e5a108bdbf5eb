import json
import os
from pathlib import Path
import struct
import subprocess
import sys
import tempfile
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from tastecf import (AP_CHALLENGE, AP_LIST_LENGTH, TripletBatch, Vocabulary,
                     build_index, compute_idf, load_dataset, load_index,
                     mean_average_precision, parse_triplets, save_dataset,
                     save_index)
from tastecf import (cli, index as index_module, ingest as ingest_module,
                     storage)
from tastecf.cli import main
from tastecf.ingest import write_triplets
from tastecf.synth import planted_clusters, skewed_batch
import oracle
from conftest import T1_TEXT


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "t1.txt"
    path.write_text(T1_TEXT)
    return path


def _pipeline(tmp_path, t1_file, capsys, rec_args=()):
    dataset = tmp_path / "t1.ds"
    index = tmp_path / "t1.idx"
    users = tmp_path / "users.txt"
    recs = tmp_path / "recs.txt"
    users.write_text("u1\n")
    assert main(["ingest", "--input", str(t1_file), "--out", str(dataset)]) == 0
    assert main(["build", "--input", str(dataset), "--out", str(index)]) == 0
    code = main(["recommend", "--input", str(index), "--users", str(users),
                 "--out", str(recs), *rec_args])
    capsys.readouterr()
    return code, recs


def test_stats_on_text(t1_file, capsys):
    assert main(["stats", "--input", str(t1_file)]) == 0
    out = capsys.readouterr().out
    assert "n_users=4" in out
    assert "n_tracks=3" in out
    assert "triplets=8" in out


def test_stats_on_binary_dataset(tmp_path, t1_file, capsys):
    dataset = tmp_path / "t1.ds"
    assert main(["ingest", "--input", str(t1_file), "--out", str(dataset)]) == 0
    assert main(["stats", "--input", str(dataset)]) == 0
    assert "triplets=8" in capsys.readouterr().out


def test_stats_on_an_index_prints_what_it_prints_for_the_dataset(tmp_path,
                                                                 capsys):
    # user 0 has no rows, and play totals pass 2**32
    batch = TripletBatch(np.array([2, 1, 2, 3], np.int32),
                         np.array([0, 1, 1, 0], np.int32),
                         np.array([2**32 - 1, 7, 2**32 - 1, 1], np.uint32),
                         Vocabulary(["u0", "u1", "u2", "u3"]),
                         Vocabulary(["a", "b", "c"]))
    dataset, index = tmp_path / "d.tcfd", tmp_path / "d.tcfi"
    save_dataset(batch, dataset)
    assert main(["build", "--input", str(dataset), "--out", str(index)]) == 0
    capsys.readouterr()
    assert main(["stats", "--input", str(dataset)]) == 0
    expected = capsys.readouterr().out
    assert expected == ("n_users=4\nn_tracks=3\ntriplets=4\n"
                        f"total_plays={2 * (2**32 - 1) + 8}\n")
    assert main(["stats", "--input", str(index)]) == 0
    assert capsys.readouterr().out == expected


def test_build_and_recommend_on_a_dataset_of_0_users(tmp_path, capsys):
    # an empty index holds no idf, and no user can be asked for
    dataset, index = tmp_path / "empty.tcfd", tmp_path / "empty.tcfi"
    save_dataset(TripletBatch(np.empty(0, np.int32), np.empty(0, np.int32),
                              np.empty(0, np.uint32), Vocabulary(), Vocabulary()),
                 dataset)
    assert main(["build", "--input", str(dataset), "--out", str(index)]) == 0
    assert load_index(index).idf is None
    users, recs = tmp_path / "users.txt", tmp_path / "recs.txt"
    users.write_text("\n")
    assert main(["recommend", "--input", str(index), "--users", str(users),
                 "--out", str(recs)]) == 0
    assert recs.read_bytes() == b""
    users.write_text("u1\n")
    recs.unlink()
    assert main(["recommend", "--input", str(index), "--users", str(users),
                 "--out", str(recs)]) == 1
    assert f"unknown user id 'u1' in {users}" in capsys.readouterr().err
    assert not recs.exists()


def test_full_pipeline_produces_golden_line(tmp_path, t1_file, capsys):
    code, recs = _pipeline(tmp_path, t1_file, capsys, rec_args=["--k", "5"])
    assert code == 0
    assert recs.read_text() == "u1 c 1 2 3 4\n"


def test_recommend_gives_the_same_bytes_for_any_log_base_given_to_save_index(
        tmp_path, t1_file, capsys):
    # the engine reads only natural-log idf, and an index file stores none:
    # a table of base 2 is accepted, checked and dropped, so the file and
    # the recs are the bytes of the base-e index
    code, recs = _pipeline(tmp_path, t1_file, capsys, rec_args=["--k", "5"])
    assert code == 0
    batch = load_dataset(tmp_path / "t1.ds")
    index = build_index(batch)
    base_2_index = tmp_path / "t1_base_2.idx"
    save_index(index, batch.user_vocab, batch.track_vocab, base_2_index,
               idf=compute_idf(index, 2.0))
    assert base_2_index.read_bytes() == (tmp_path / "t1.idx").read_bytes()
    assert load_index(base_2_index).idf == compute_idf(index)
    base_2 = tmp_path / "recs_base_2.txt"
    assert main(["recommend", "--input", str(base_2_index),
                 "--users", str(tmp_path / "users.txt"), "--out", str(base_2),
                 "--k", "5"]) == 0
    assert base_2.read_bytes() == recs.read_bytes()


def test_build_has_no_log_base_option(tmp_path, t1_file, capsys):
    # the base only labels the idf table, so build always writes base e
    dataset = tmp_path / "t1.ds"
    assert main(["ingest", "--input", str(t1_file), "--out", str(dataset)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["build", "--input", str(dataset), "--out", str(tmp_path / "t1.idx"),
              "--log-base", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --log-base 2" in capsys.readouterr().err
    assert not (tmp_path / "t1.idx").exists()


@pytest.mark.parametrize("command", ["ingest", "split", "stats", "evaluate"])
def test_triplet_readers_have_no_delimiter_option(tmp_path, t1_file, capsys,
                                                  command):
    # triplet text is TAB-separated, as the taste-profile files are
    argv = {
        "ingest": ["--input", str(t1_file), "--out", str(tmp_path / "t1.ds")],
        "split": ["--input", str(t1_file),
                  "--visible-out", str(tmp_path / "v.txt"),
                  "--hidden-out", str(tmp_path / "h.txt")],
        "stats": ["--input", str(t1_file)],
        "evaluate": ["--recs", str(t1_file), "--hidden", str(t1_file)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--delimiter", ","])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --delimiter ," in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t1.txt"]


def test_ingest_comma_separated_file_exits_1_with_line(tmp_path, capsys):
    text = tmp_path / "plays.csv"
    text.write_text("u1,a,1\nu1,b,2\n")
    out = tmp_path / "plays.ds"
    assert main(["ingest", "--input", str(text), "--out", str(out)]) == 1
    assert (f"{text}:1: expected 3 '\\t'-separated fields, got 1"
            in capsys.readouterr().err)
    assert not out.exists()


def test_recommend_defaults_echo_reference_constants(tmp_path, t1_file, capsys):
    dataset = tmp_path / "t1.ds"
    index = tmp_path / "t1.idx"
    users = tmp_path / "users.txt"
    users.write_text("u1\n")
    main(["ingest", "--input", str(t1_file), "--out", str(dataset)])
    main(["build", "--input", str(dataset), "--out", str(index)])
    capsys.readouterr()
    assert main(["recommend", "--input", str(index), "--users", str(users),
                 "--out", str(tmp_path / "r.txt")]) == 0
    err = capsys.readouterr().err
    assert "config: command=recommend" in err
    assert "prune_ratio=0.4" in err
    assert "k=500" in err
    assert "exclude_seen=True" in err
    assert "pad=dummy" in err


def test_every_run_logs_full_config(t1_file, capsys):
    assert main(["stats", "--input", str(t1_file)]) == 0
    err = capsys.readouterr().err
    assert err.splitlines()[0] == f"config: command=stats input={t1_file}"


def test_evaluate_pipeline_and_per_user_tsv(tmp_path, t1_file, capsys):
    code, recs = _pipeline(tmp_path, t1_file, capsys, rec_args=["--k", "3"])
    assert code == 0
    hidden = tmp_path / "hidden.txt"
    hidden.write_text("u1\tc\t1\n")
    per_user = tmp_path / "per_user.tsv"
    assert main(["evaluate", "--recs", str(recs), "--hidden", str(hidden),
                 "--k", "3", "--per-user", str(per_user)]) == 0
    out = capsys.readouterr().out
    assert "mAP@3 (challenge) = 1.000000" in out
    lines = per_user.read_text().splitlines()
    assert lines[0] == "user\tap\thidden_count"
    assert lines[1].startswith("u1\t1.0")


def test_evaluate_paper_mode_divides_by_list_length(tmp_path, t1_file, capsys):
    code, recs = _pipeline(tmp_path, t1_file, capsys, rec_args=["--k", "3"])
    hidden = tmp_path / "hidden.txt"
    hidden.write_text("u1\tc\t1\n")
    assert main(["evaluate", "--recs", str(recs), "--hidden", str(hidden),
                 "--k", "3", "--mode", "paper"]) == 0
    out = capsys.readouterr().out
    assert "mAP@3 (paper) = 0.333333" in out


def test_evaluate_many_users_matches_oracle_and_library(tmp_path, capsys):
    k = 20
    source = tmp_path / "plays.txt"
    write_triplets(planted_clusters(n_users=300, seed=101), source)
    visible, hidden_path = tmp_path / "visible.txt", tmp_path / "hidden.txt"
    dataset, index = tmp_path / "visible.ds", tmp_path / "visible.idx"
    users, recs = tmp_path / "users.txt", tmp_path / "recs.txt"
    assert main(["split", "--input", str(source), "--visible-out", str(visible),
                 "--hidden-out", str(hidden_path), "--seed", "101"]) == 0
    hidden = {}
    for line in hidden_path.read_text().splitlines():
        user, track, _ = line.split("\t")
        hidden.setdefault(user, set()).add(track)
    users.write_text("".join(f"{u}\n" for u in hidden))
    assert main(["ingest", "--input", str(visible), "--out", str(dataset)]) == 0
    assert main(["build", "--input", str(dataset), "--out", str(index)]) == 0
    assert main(["recommend", "--input", str(index), "--users", str(users),
                 "--out", str(recs), "--k", str(k)]) == 0
    rankings = {}
    for line in recs.read_text().splitlines():
        user, *items = line.split(" ")
        rankings[user] = items
    assert len(rankings) == len(hidden) == 300
    capsys.readouterr()

    printed = []
    for mode, ap_mode in (("challenge", AP_CHALLENGE), ("paper", AP_LIST_LENGTH)):
        per_user = tmp_path / f"per_user_{mode}.tsv"
        assert main(["evaluate", "--recs", str(recs), "--hidden", str(hidden_path),
                     "--k", str(k), "--mode", mode, "--per-user", str(per_user)]) == 0
        want = oracle.mean_ap(rankings, hidden, k, mode)
        assert capsys.readouterr().out == f"mAP@{k} ({mode}) = {want:.6f}\n"
        report = mean_average_precision(rankings, hidden, k, ap_mode)
        assert per_user.read_text().splitlines() == ["user\tap\thidden_count"] + [
            f"{user}\t{ap:.10f}\t{count}" for user, ap, count in report.per_user]
        printed.append(want)
    assert 0.0 < printed[1] < printed[0] < 1.0


def test_evaluate_missing_recommendation_fails(tmp_path, t1_file, capsys):
    code, recs = _pipeline(tmp_path, t1_file, capsys)
    hidden = tmp_path / "hidden.txt"
    hidden.write_text("u2\tc\t1\n")
    assert main(["evaluate", "--recs", str(recs), "--hidden", str(hidden)]) == 1
    assert "u2" in capsys.readouterr().err


def _write_recs_and_hidden(tmp_path, rankings, hidden):
    """A recs file of `rankings` ({user: items}) and a hidden triplet file
    of `hidden` ({user: tracks}), both in dict order."""
    recs, hidden_path = tmp_path / "recs.txt", tmp_path / "hidden.txt"
    recs.write_text("".join(" ".join([user, *items]) + "\n"
                            for user, items in rankings.items()))
    hidden_path.write_text("".join(f"{user}\t{track}\t1\n"
                                   for user, tracks in hidden.items()
                                   for track in tracks))
    return recs, hidden_path


def test_evaluate_scores_recs_lines_across_block_edges(tmp_path, monkeypatch,
                                                       capsys):
    # blocks of 64 bytes: most recs lines cross an edge, some several
    monkeypatch.setattr(ingest_module, "_BLOCK_BYTES", 64)
    rng = np.random.default_rng(11)
    tracks = [f"t{i}" for i in range(30)]
    rankings, hidden = {}, {}
    for u in range(60):
        # repeated items, and ids the hidden file does not hold
        rankings[f"u{u}"] = [tracks[t] if t < 30 else f"x{t}"
                             for t in rng.integers(0, 36, rng.integers(0, 25))]
        # every fifth user has a list but no hidden rows
        if u % 5:
            hidden[f"u{u}"] = sorted(set(rng.choice(tracks, rng.integers(1, 6))))
    recs, hidden_path = _write_recs_and_hidden(tmp_path, rankings, hidden)
    hidden_sets = {user: set(tracks) for user, tracks in hidden.items()}
    per_user = tmp_path / "per_user.tsv"
    for mode, ap_mode in (("challenge", AP_CHALLENGE), ("paper", AP_LIST_LENGTH)):
        capsys.readouterr()
        assert main(["evaluate", "--recs", str(recs), "--hidden", str(hidden_path),
                     "--k", "10", "--mode", mode, "--per-user", str(per_user)]) == 0
        want = oracle.mean_ap(rankings, hidden_sets, 10, mode)
        assert capsys.readouterr().out == f"mAP@10 ({mode}) = {want:.6f}\n"
        report = mean_average_precision(rankings, hidden_sets, 10, ap_mode)
        assert per_user.read_text().splitlines() == ["user\tap\thidden_count"] + [
            f"{user}\t{ap:.10f}\t{count}" for user, ap, count in report.per_user]
    per_user.unlink()

    # a user repeated after the first block fails at its line, and no
    # per-user file is written
    with open(recs, "a") as fh:
        fh.write("u3 t1\n")
    assert main(["evaluate", "--recs", str(recs), "--hidden", str(hidden_path),
                 "--per-user", str(per_user)]) == 1
    assert (f"{recs}:61: duplicate recommendation for user 'u3'"
            in capsys.readouterr().err)
    assert not per_user.exists()

    # with both files bad, the hidden file, read first, is the one reported
    with open(hidden_path, "a") as fh:
        fh.write("u1\tt1\n")
    assert main(["evaluate", "--recs", str(recs), "--hidden", str(hidden_path)]) == 1
    err = capsys.readouterr().err
    lines = len(hidden_path.read_text().splitlines())
    assert f"{hidden_path}:{lines}: " in err and "duplicate recommendation" not in err


# the tracemalloc peak of `tastecf evaluate` per recs item, on 2,000 lists
# of 400 items against up to 3 hidden tracks per user: 8.2 bytes when each
# line is scored as it is read (most of it one block of the file), and
# 64.5 while every item was held as a str
_EVALUATE_BYTES_PER_ITEM = 24


def test_evaluate_holds_no_rankings(tmp_path, capsys):
    rng = np.random.default_rng(5)
    tracks = [f"t{i}" for i in range(5_000)]
    picks = rng.integers(0, len(tracks), (2_000, 400)).tolist()
    rankings = {f"u{u}": [tracks[t] for t in row] for u, row in enumerate(picks)}
    hidden = {user: sorted(set(items[::150])) for user, items in rankings.items()}
    recs, hidden_path = _write_recs_and_hidden(tmp_path, rankings, hidden)
    want = oracle.mean_ap(rankings, hidden, 400)
    del rankings, hidden, picks
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(["evaluate", "--recs", str(recs), "--hidden", str(hidden_path),
                     "--k", "400"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == f"mAP@400 (challenge) = {want:.6f}\n"
    assert peak / (2_000 * 400) <= _EVALUATE_BYTES_PER_ITEM


def test_split_emits_disjoint_triplet_files(tmp_path, t1_file, capsys):
    visible = tmp_path / "vis.txt"
    hidden = tmp_path / "hid.txt"
    assert main(["split", "--input", str(t1_file), "--visible-out", str(visible),
                 "--hidden-out", str(hidden), "--fraction", "0.5",
                 "--seed", "7"]) == 0
    with open(visible) as fh:
        vis = parse_triplets(fh)
    with open(hidden) as fh:
        hid = parse_triplets(fh)
    assert len(vis) + len(hid) == 8
    vis_pairs = set(zip(vis.users.tolist(), vis.tracks.tolist()))
    assert len(vis_pairs) == len(vis)


# the tracemalloc peak of `tastecf split` per triplet once its input is
# parsed, on about 100k triplets: 67 bytes when the parsed batch is freed
# before the halves are written, and 79 while it was held to the end
_SPLIT_BYTES_PER_TRIPLET = 73


def test_split_frees_its_parsed_input_before_writing_the_halves(
        tmp_path, monkeypatch, capsys):
    batch = skewed_batch(10_000, 3_000, 10.0, seed=3)
    text = tmp_path / "in.txt"
    write_triplets(batch, text)
    rows = len(batch)
    del batch
    read = cli._read_triplets

    def parsed(path):
        # the parse has a peak of its own; count from its end
        batch = read(path)
        tracemalloc.reset_peak()
        return batch

    monkeypatch.setattr(cli, "_read_triplets", parsed)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(["split", "--input", str(text),
                     "--visible-out", str(tmp_path / "vis.txt"),
                     "--hidden-out", str(tmp_path / "hid.txt")]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert f"split {rows} triplets" in capsys.readouterr().err
    assert peak / rows <= _SPLIT_BYTES_PER_TRIPLET


def test_missing_input_file_exits_1_with_path(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["stats", "--input", str(missing)]) == 1
    assert "nope.txt" in capsys.readouterr().err


def test_unknown_user_id_exits_1_with_id(tmp_path, t1_file, capsys):
    dataset = tmp_path / "t1.ds"
    index = tmp_path / "t1.idx"
    users = tmp_path / "users.txt"
    users.write_text("u1\nghost\nu2\nspook\n")
    main(["ingest", "--input", str(t1_file), "--out", str(dataset)])
    main(["build", "--input", str(dataset), "--out", str(index)])
    capsys.readouterr()
    assert main(["recommend", "--input", str(index), "--users", str(users),
                 "--out", str(tmp_path / "r.txt")]) == 1
    # the first unknown id in file order is named
    assert f"unknown user id 'ghost' in {users}" in capsys.readouterr().err


def test_blank_lines_and_spaces_in_files_read_as_a_clean_file(tmp_path, capsys):
    batch = planted_clusters(n_users=40, n_tracks=200, n_clusters=5, seed=2)
    text, dataset, index = (tmp_path / name for name in ("p.txt", "p.ds", "p.idx"))
    write_triplets(batch, text)
    assert main(["ingest", "--input", str(text), "--out", str(dataset)]) == 0
    assert main(["build", "--input", str(dataset), "--out", str(index)]) == 0
    ids = [batch.user_vocab.lookup(u) for u in (3, 17, 0, 25)]
    # every track of the planted cluster each user belongs to
    hidden = tmp_path / "hidden.txt"
    hidden.write_text("".join(f"{ids[i]}\t{batch.track_vocab.lookup(t)}\t1\n"
                              for i, u in enumerate((3, 17, 0, 25))
                              for t in range(u % 5 * 40, u % 5 * 40 + 40)))
    users = {"clean": "".join(f"{u}\n" for u in ids),
             "padded": "\n  \n".join(f"  {u} " for u in ids) + "\n\n \n"}
    got = {}
    for name, content in users.items():
        path = tmp_path / f"users_{name}.txt"
        path.write_text(content)
        recs = tmp_path / f"recs_{name}.txt"
        assert main(["recommend", "--input", str(index), "--users", str(path),
                     "--out", str(recs), "--k", "10"]) == 0
        got[name] = recs.read_bytes()
    assert got["padded"] == got["clean"] and got["clean"].count(b"\n") == 4
    # evaluate --recs skips blank lines as well
    spaced = tmp_path / "recs_spaced.txt"
    spaced.write_bytes(b"\n" + got["clean"].replace(b"\n", b"\n\n"))
    scores = []
    for recs in (tmp_path / "recs_clean.txt", spaced):
        capsys.readouterr()
        assert main(["evaluate", "--recs", str(recs), "--hidden", str(hidden),
                     "--k", "10"]) == 0
        scores.append(capsys.readouterr().out)
    assert scores[0] == scores[1] != "mAP@10 (challenge) = 0.000000\n"


def test_repeated_user_id_exits_1_with_line(tmp_path, t1_file, capsys):
    code, _ = _pipeline(tmp_path, t1_file, capsys)
    assert code == 0
    users = tmp_path / "repeated.txt"
    users.write_text("u1\nu3\n\n u1\n")
    assert main(["recommend", "--input", str(tmp_path / "t1.idx"),
                 "--users", str(users), "--out", str(tmp_path / "r.txt")]) == 1
    assert f"{users}:4: duplicate user id 'u1'" in capsys.readouterr().err


def test_recommend_reads_its_users_before_the_index(tmp_path, t1_file, capsys):
    assert _pipeline(tmp_path, t1_file, capsys)[0] == 0
    corrupt = tmp_path / "corrupt.idx"
    data = bytearray((tmp_path / "t1.idx").read_bytes())
    data[-1] ^= 1
    corrupt.write_bytes(data)
    users = tmp_path / "repeated.txt"
    users.write_text("u1\nu1\n")
    recommend = ["recommend", "--input", str(corrupt), "--users", str(users),
                 "--out", str(tmp_path / "r.txt")]
    assert main(recommend) == 1
    err = capsys.readouterr().err
    assert f"{users}:2: duplicate user id 'u1'" in err and "checksum" not in err
    users.write_text("u1\n")
    assert main(recommend) == 1
    assert f"{corrupt}: checksum mismatch" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("case", ["recommend --users", "evaluate --recs"])
def test_a_repeat_before_a_byte_not_utf8_decides(tmp_path, t1_file, capsys, case):
    assert _pipeline(tmp_path, t1_file, capsys)[0] == 0
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"u1 a\r\nu1 b\r\nu\xff c\r\n" if case == "evaluate --recs"
                    else b"u1\ru1\ru\xff\r")
    argv = (["evaluate", "--recs", str(bad), "--hidden", str(t1_file)]
            if case == "evaluate --recs" else
            ["recommend", "--input", str(tmp_path / "t1.idx"), "--users", str(bad),
             "--out", str(tmp_path / "r.txt")])
    assert main(argv) == 1
    assert f"{bad}:2: duplicate" in capsys.readouterr().err


# ids shaped like pad labels, and non-ASCII ones
_CLI_USERS = ["u1", "u2", "1", "é", "u3"]
_CLI_TRACKS = ["1", "2", "#1", "##2", "01", "١", "a", "b", "c"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_CLI_USERS), st.sampled_from(_CLI_TRACKS),
                          st.integers(1, 3)),
                min_size=1, unique_by=lambda row: row[:2]),
       st.lists(st.sampled_from(_CLI_USERS), min_size=1, max_size=6),
       st.integers(1, 8), st.sampled_from(["dummy", "popularity"]))
def test_every_recs_file_recommend_writes_is_accepted_by_evaluate(
        rows, query, k, pad):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "plays.txt").write_text(
            "".join(f"{u}\t{t}\t{c}\n" for u, t, c in rows), encoding="utf-8")
        present = {u for u, _, _ in rows}
        query = [u for u in query if u in present] or [rows[0][0]]
        (work / "users.txt").write_text("".join(f"{u}\n" for u in query),
                                        encoding="utf-8")
        (work / "hidden.txt").write_text(
            "".join(f"{u}\t{t}\t{c}\n" for u, t, c in rows if u in query),
            encoding="utf-8")
        paths = {name: str(work / name) for name in
                 ("plays.txt", "p.ds", "p.idx", "users.txt", "recs.txt", "hidden.txt")}
        assert main(["ingest", "--input", paths["plays.txt"], "--out", paths["p.ds"]]) == 0
        assert main(["build", "--input", paths["p.ds"], "--out", paths["p.idx"]]) == 0
        code = main(["recommend", "--input", paths["p.idx"], "--users", paths["users.txt"],
                     "--out", paths["recs.txt"], "--k", str(k), "--pad", pad])
        assert code == (1 if len(set(query)) < len(query) else 0)
        if code == 0:
            assert main(["evaluate", "--recs", paths["recs.txt"],
                         "--hidden", paths["hidden.txt"], "--k", str(k)]) == 0


# the empty id, ids across the id hash's 8-byte words, non-ASCII ones, and
# one holding a comma
_ROUND_TRIP_IDS = ["u1", "", "1", "é", "a" * 8, "中" * 3, "😀" * 4 + "a", "a,b"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_ROUND_TRIP_IDS),
                          st.sampled_from(_ROUND_TRIP_IDS),
                          st.integers(1, 2**32 - 1)),
                min_size=1, max_size=30, unique_by=lambda row: row[:2]),
       st.integers(0, 3))
def test_every_file_split_and_ingest_write_is_accepted_by_its_reader(rows, seed):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "plays.txt").write_text(
            "".join(f"{u}\t{t}\t{c}\n" for u, t, c in rows), encoding="utf-8")
        assert main(["split", "--input", str(work / "plays.txt"), "--seed", str(seed),
                     "--visible-out", str(work / "visible.txt"),
                     "--hidden-out", str(work / "hidden.txt")]) == 0
        for name in ("visible", "hidden", "plays"):
            text, dataset = work / f"{name}.txt", work / f"{name}.ds"
            assert main(["ingest", "--input", str(text), "--out", str(dataset)]) == 0
            with open(text, encoding="utf-8") as fh:
                parsed = parse_triplets(fh)
            # ingest saves the parsed rows ordered by (user, track)
            order = np.lexsort((parsed.tracks, parsed.users))
            batch = TripletBatch(parsed.users[order], parsed.tracks[order],
                                 parsed.counts[order], parsed.user_vocab,
                                 parsed.track_vocab)
            assert load_dataset(dataset) == batch
            # the same bytes as a save from the ids as a list of str
            listed = TripletBatch(batch.users, batch.tracks, batch.counts,
                                  Vocabulary(batch.user_vocab.ids),
                                  Vocabulary(batch.track_vocab.ids))
            save_dataset(listed, work / "listed.ds")
            assert (work / "listed.ds").read_bytes() == dataset.read_bytes()
        assert main(["build", "--input", str(work / "plays.ds"),
                     "--out", str(work / "plays.idx")]) == 0
        assert main(["stats", "--input", str(work / "plays.ds")]) == 0


def test_ingest_id_with_space_exits_1_with_line(tmp_path, capsys):
    text = tmp_path / "spaced.txt"
    text.write_text("u1\ta\t1\nu 1\ta\t2\n")
    out = tmp_path / "spaced.ds"
    assert main(["ingest", "--input", str(text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{text}:2: id contains a space: 'u 1'" in err
    assert not out.exists()


def test_ingest_repeated_pair_exits_1_at_the_first_repeat(tmp_path, capsys):
    text = tmp_path / "repeated.txt"
    # (u2, b) repeats at line 4 and (u1, a) at line 5; the sort that orders
    # the rows for the dataset file must not decide which is named
    text.write_text("u1\ta\t1\nu2\tb\t1\nu1\tb\t1\nu2\tb\t2\nu1\ta\t3\n")
    out = tmp_path / "repeated.ds"
    assert main(["ingest", "--input", str(text), "--out", str(out)]) == 1
    assert (f"error: ingest: {text}:4: duplicate (user, track) pair: 'u2', 'b'\n"
            in capsys.readouterr().err)
    assert not out.exists()


def test_ingested_dataset_holds_rows_in_user_track_order(tmp_path):
    text = tmp_path / "plays.txt"
    text.write_text("u2\tc\t1\nu1\tb\t4\nu2\ta\t2\nu1\tc\t3\nu3\ta\t5\n")
    dataset = tmp_path / "plays.ds"
    assert main(["ingest", "--input", str(text), "--out", str(dataset)]) == 0
    loaded = load_dataset(dataset)
    with open(text, encoding="utf-8") as fh:
        parsed = parse_triplets(fh)
    # the parse gives the rows in this order, with first-seen vocabularies
    assert loaded == parsed
    assert loaded.user_vocab.ids == ["u2", "u1", "u3"]
    rows = list(zip(loaded.users.tolist(), loaded.tracks.tolist()))
    assert rows == sorted(rows) and len(set(rows)) == len(rows)


@pytest.mark.parametrize("case", ["ingest", "split", "evaluate --hidden"])
def test_each_text_read_sorts_its_rows_once(tmp_path, monkeypatch, capsys, case):
    text = tmp_path / "plays.txt"
    text.write_text("u2\tc\t1\nu1\tb\t4\nu2\ta\t2\nu1\tc\t3\nu3\ta\t5\n")
    recs = tmp_path / "recs.txt"
    recs.write_text("u1 b c\nu2 a\nu3 a\n")
    argv = {
        "ingest": ["ingest", "--input", str(text), "--out", str(tmp_path / "p.ds")],
        "split": ["split", "--input", str(text),
                  "--visible-out", str(tmp_path / "v.txt"),
                  "--hidden-out", str(tmp_path / "h.txt")],
        "evaluate --hidden": ["evaluate", "--recs", str(recs), "--hidden", str(text)],
    }[case]
    sorts = []
    sort_by_pair = ingest_module.sort_by_pair

    def counted(batch):
        sorts.append(len(batch))
        return sort_by_pair(batch)

    # the parse's own name for it, and the one sorted_rows calls
    monkeypatch.setattr(ingest_module, "sort_by_pair", counted)
    monkeypatch.setattr(index_module, "sort_by_pair", counted)
    assert main(argv) == 0, capsys.readouterr().err
    assert sorts == [5]


@pytest.mark.parametrize("case", ["split", "stats", "evaluate --hidden"])
def test_parse_error_in_text_input_exits_1_with_file_and_line(
        tmp_path, capsys, case):
    bad = tmp_path / "bad.txt"
    bad.write_text("u1\ta\t1\nu1\ta\t2\n")
    recs = tmp_path / "recs.txt"
    recs.write_text("u1 a\n")
    argv = {
        "split": ["split", "--input", str(bad),
                  "--visible-out", str(tmp_path / "v.txt"),
                  "--hidden-out", str(tmp_path / "h.txt")],
        "stats": ["stats", "--input", str(bad)],
        "evaluate --hidden": ["evaluate", "--recs", str(recs), "--hidden", str(bad)],
    }[case]
    assert main(argv) == 1
    assert (f"error: {case.split()[0]}: {bad}:2: duplicate (user, track) pair: "
            f"'u1', 'a'\n") in capsys.readouterr().err


def test_build_names_the_dataset_holding_a_repeated_pair(tmp_path, capsys):
    # save_dataset refuses to write the pair (u, a) twice, so the file's
    # sections are written by hand: user u's list is [a, a]
    dataset = tmp_path / "repeated.ds"
    storage.write_file(dataset, [
        storage.header(index_module._DATASET_MAGIC, index_module._DATASET_VERSION),
        struct.pack("<QQQ", 1, 1, 2), *storage.encode_vocab(Vocabulary(["u"])),
        *storage.encode_vocab(Vocabulary(["a"])), np.array([0, 2], "<i4"),
        np.array([0, 0], "<i4"), np.array([1, 2], "<u4")])
    assert main(["build", "--input", str(dataset),
                 "--out", str(tmp_path / "repeated.idx")]) == 1
    assert (f"error: build: {dataset}: fwd_tracks do not rise within each "
            "user's list\n" in capsys.readouterr().err)
    assert not (tmp_path / "repeated.idx").exists()


# the tracemalloc peak of `tastecf build` per triplet, about 200k of them
# at 10 per user: 25.7 bytes when it adds the inverse lists to the dataset
# file's forward sections, and 31.7 while it read a users column and built
# the index, play totals included, from the loaded batch
_BUILD_BYTES_PER_TRIPLET = 29


def test_build_adds_only_the_inverse_lists_to_the_dataset(tmp_path, capsys):
    batch = skewed_batch(20_000, 5_000, 10.0)
    dataset, index = tmp_path / "plays.ds", tmp_path / "plays.idx"
    save_dataset(batch, dataset)
    rows = len(batch)
    del batch
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(["build", "--input", str(dataset), "--out", str(index)])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert load_index(index).index.nnz == rows
    assert peak / rows <= _BUILD_BYTES_PER_TRIPLET


# the tracemalloc peak of `tastecf stats` of a dataset per triplet, about
# 200k of them at 10 per user, with play counts summed 1,024 users at a
# time: 8.4 bytes when it reads the forward sections as load_index does,
# and 16.1 while it loaded the batch, users column and counts held
_STATS_BYTES_PER_TRIPLET = 12


def test_stats_of_a_dataset_sums_its_counts_as_it_reads_them(
        tmp_path, monkeypatch, capsys):
    batch = skewed_batch(20_000, 5_000, 10.0)
    dataset = tmp_path / "plays.ds"
    save_dataset(batch, dataset)
    rows = len(batch)
    want = (f"n_users={len(batch.user_vocab)}\nn_tracks={len(batch.track_vocab)}\n"
            f"triplets={rows}\ntotal_plays={batch.counts.sum(dtype=np.int64)}\n")
    del batch
    monkeypatch.setattr(index_module, "_CHECK_USERS", 1024)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(["stats", "--input", str(dataset)])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == want
    assert peak / rows <= _STATS_BYTES_PER_TRIPLET


def _write_with_bad_byte(path, line, end):
    """Lines line(1) to line(2000) ended by `end`, with a 0xff byte in line
    1900, which lies past the first 8 KiB."""
    rows = [line(i).encode("utf-8") for i in range(1, 2001)]
    rows[1899] = rows[1899][:1] + b"\xff" + rows[1899][1:]
    data = end.encode("utf-8").join(rows) + end.encode("utf-8")
    assert data.index(b"\xff") > 8192
    path.write_bytes(data)


@pytest.mark.parametrize("case, end", [
    ("ingest", "\n"), ("split", "\n"), ("stats", "\n"), ("stats", "\r\n"),
    ("stats", "\r"), ("evaluate --recs", "\n"), ("evaluate --hidden", "\n"),
    ("recommend --users", "\n"),
])
def test_invalid_utf8_in_text_input_exits_1_with_file_and_line(
        tmp_path, t1_file, capsys, case, end):
    bad = tmp_path / "bad.txt"
    line = {"evaluate --recs": "u{0} t{0}",
            "recommend --users": "user{0}"}.get(case, "u{0}\tt{0}\t1")
    _write_with_bad_byte(bad, line.format, end)
    good_recs = tmp_path / "recs.txt"
    good_recs.write_text("u1 a\n")
    if case == "recommend --users":
        assert _pipeline(tmp_path, t1_file, capsys)[0] == 0
    argv = {
        "ingest": ["ingest", "--input", str(bad), "--out", str(tmp_path / "d.ds")],
        "split": ["split", "--input", str(bad),
                  "--visible-out", str(tmp_path / "v.txt"),
                  "--hidden-out", str(tmp_path / "h.txt")],
        "stats": ["stats", "--input", str(bad)],
        "evaluate --recs": ["evaluate", "--recs", str(bad), "--hidden", str(t1_file)],
        "evaluate --hidden": ["evaluate", "--recs", str(good_recs),
                              "--hidden", str(bad)],
        "recommend --users": ["recommend", "--input", str(tmp_path / "t1.idx"),
                              "--users", str(bad), "--out", str(tmp_path / "r.txt")],
    }[case]
    assert main(argv) == 1
    assert f"{bad}:1900: not valid UTF-8" in capsys.readouterr().err


def _recommend_saved(tmp_path, pairs, users, k):
    """build and recommend over a dataset that save_dataset wrote from
    (user, track) pairs, each played once, so ids may be empty or hold a
    tab, as no triplet text can give them; returns the recs path."""
    users_path = tmp_path / "users.txt"
    dataset, index = tmp_path / "d.ds", tmp_path / "d.idx"
    recs = tmp_path / "recs.txt"
    user_ids = list(dict.fromkeys(u for u, _ in pairs))
    track_ids = list(dict.fromkeys(t for _, t in pairs))
    save_dataset(TripletBatch(np.array([user_ids.index(u) for u, _ in pairs], np.int32),
                              np.array([track_ids.index(t) for _, t in pairs], np.int32),
                              np.ones(len(pairs), np.uint32),
                              Vocabulary(user_ids), Vocabulary(track_ids)), dataset)
    users_path.write_text(users)
    assert main(["build", "--input", str(dataset), "--out", str(index)]) == 0
    assert main(["recommend", "--input", str(index), "--users", str(users_path),
                 "--out", str(recs), "--k", str(k)]) == 0
    return recs


def test_empty_and_tab_track_ids_round_trip_through_recs(tmp_path, capsys):
    # the recs line "q  a<TAB>b 1" must read back as those two tracks and a pad
    recs = _recommend_saved(tmp_path, [("q", "z"), ("n", "z"), ("n", ""),
                                       ("n", "a\tb"), ("m", "y")], "q\n", 3)
    assert recs.read_text() == "q  a\tb 1\n"
    assert dict(cli._read_recommendation_lines(recs)) == {"q": ["", "a\tb", "1"]}
    # a hidden file can name the empty track, not the one holding a tab
    hidden, per_user = tmp_path / "hidden.txt", tmp_path / "per_user.tsv"
    hidden.write_text("q\t\t1\n")
    capsys.readouterr()
    assert main(["evaluate", "--recs", str(recs), "--hidden", str(hidden),
                 "--k", "3", "--per-user", str(per_user)]) == 0
    assert capsys.readouterr().out == "mAP@3 (challenge) = 1.000000\n"
    assert per_user.read_text().splitlines()[1] == "q\t1.0000000000\t1"


@pytest.mark.parametrize("pairs, users, bad", [
    ([("q", "z"), ("n", "z"), ("n", "a b"), ("m", "y")], "q\n", "{}: id 'a b'"),
    ([("q", "z"), ("n", "z"), ("n", "c\rd"), ("m", "y")], "q\n", "{}: id 'c\\rd'"),
    ([("q r", "z"), ("n", "z"), ("n", "a"), ("m", "y")], "q r\n", "user id 'q r'"),
], ids=["space-in-track", "cr-in-track", "space-in-user"])
def test_recommend_refuses_an_id_its_recs_line_cannot_hold(tmp_path, capsys,
                                                          pairs, users, bad):
    # "q a b c\rd 1" would read back as a list [a, b, c] and a user d; a
    # stored track id is named with the index file that holds it
    with pytest.raises(AssertionError):
        _recommend_saved(tmp_path, pairs, users, 3)
    bad = bad.format(f"{tmp_path / 'd.idx'}: track vocabulary")
    assert (f"error: recommend: {bad} holds a space or a line end, so its "
            "recs line could not be read back\n") in capsys.readouterr().err
    assert not (tmp_path / "recs.txt").exists()


def test_users_file_keeps_tabs_in_ids(tmp_path):
    # "<TAB>q" and "q" are different users; stripping the tab would answer
    # for the wrong one
    recs = _recommend_saved(tmp_path, [("q", "z"), ("q", "y"), ("\tq", "z"),
                                       ("\tq", "x"), ("m", "y")], " \tq \n\n", 2)
    assert recs.read_text() == "\tq y 1\n"


@pytest.mark.parametrize("count", [str(2**64), "5000000000"])
def test_ingest_play_count_above_u32_exits_1_with_line(tmp_path, capsys, count):
    text = tmp_path / "big.txt"
    text.write_text(f"u1\ta\t1\nu1\tb\t{count}\n")
    out = tmp_path / "big.ds"
    assert main(["ingest", "--input", str(text), "--out", str(out)]) == 1
    assert f"{text}:2: play_count must be in [1, " in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_2(tmp_path, t1_file):
    with pytest.raises(SystemExit) as exc:
        main(["recommend", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["recommend", "--input", "x", "--users", "y", "--out", "z",
              "--prune-ratio", "1.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--recs", "a", "--hidden", "b", "--mode", "weird"])
    assert exc.value.code == 2


def test_env_var_supplies_path(t1_file, capsys, monkeypatch):
    monkeypatch.setenv("TASTECF_INPUT", str(t1_file))
    assert main(["stats"]) == 0
    assert "n_users=4" in capsys.readouterr().out


def test_dummy_pad_collision_gets_escaped(tmp_path, capsys):
    # a real track literally named "1" forces pads to "#1"
    source = tmp_path / "tricky.txt"
    source.write_text("u1\t1\t2\nu1\tb\t1\nu2\tb\t3\nu2\tc\t1\n")
    dataset = tmp_path / "d.ds"
    index = tmp_path / "d.idx"
    users = tmp_path / "users.txt"
    recs = tmp_path / "recs.txt"
    users.write_text("u1\n")
    main(["ingest", "--input", str(source), "--out", str(dataset)])
    main(["build", "--input", str(dataset), "--out", str(index)])
    assert main(["recommend", "--input", str(index), "--users", str(users),
                 "--out", str(recs), "--k", "3"]) == 0
    capsys.readouterr()
    line = recs.read_text().strip().split()
    # only shared track has idf 0 with two users, so the list is all pads
    assert line == ["u1", "#1", "2", "3"]


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "tastecf", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "recommend" in proc.stdout


def test_importing_the_cli_leaves_out_multiprocessing():
    # importing it cost every CLI start about 6 ms; only recommend_all's
    # fork pool needs it
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tastecf.cli; print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# runs each command of argv[1] (JSON) through cli.main in turn and fails at
# the first that imports numpy.ma; numpy 1.x imports it with numpy itself,
# so there only the commands' success is checked
_WITHOUT_NUMPY_MA = """\
import json, sys
import numpy
from tastecf.cli import main
preloaded = "numpy.ma" in sys.modules
for args in json.loads(sys.argv[1]):
    assert main(args) == 0, args
    assert preloaded or "numpy.ma" not in sys.modules, ("numpy.ma imported", args)
"""


def test_no_command_imports_numpy_ma(tmp_path):
    # importing numpy.ma costs a process about 15 ms; on numpy 2.x np.unique
    # with no return_* flag imports it, and so np.union1d and the sorting
    # path of np.isin, taken for a few values looked up among many spread
    # over a wide range. Here that would be build's check for repeated pairs
    # (u2 starts with u9's last track) and u9's popularity pads (its 20
    # tracks are spread over 3,000 track ids)
    rows = [(1, f"t{t:04d}") for t in range(1500)]
    rows += [(9, f"s{i:02d}") for i in range(10)]
    rows += [(1, f"t{t:04d}") for t in range(1500, 3000)]
    rows += [(9, f"s{i:02d}") for i in range(10, 20)]
    rows += [(2, "s19"), (2, "t3000")]
    rows += [(u, f"f{u}.{i}") for u in (3, 4, 5, 6, 7, 8, 10, 11, 12) for i in (0, 1)]
    source = tmp_path / "t.txt"
    source.write_text("".join(f"u{u}\t{t}\t1\n" for u, t in rows))
    users = tmp_path / "users.txt"
    users.write_text("".join(f"u{u}\n" for u in range(1, 13)))
    path = {name: str(tmp_path / name)
            for name in ("vis.txt", "hid.txt", "d.ds", "d.idx", "recs.txt")}
    recommend = ["recommend", "--input", path["d.idx"], "--users", str(users),
                 "--out", path["recs.txt"], "--k", "5"]
    commands = [
        ["split", "--input", str(source), "--visible-out", path["vis.txt"],
         "--hidden-out", path["hid.txt"], "--fraction", "0.5", "--seed", "7"],
        ["ingest", "--input", str(source), "--out", path["d.ds"]],
        ["build", "--input", path["d.ds"], "--out", path["d.idx"]],
        recommend,
        [*recommend, "--workers", "2"],
        [*recommend, "--pad", "popularity"],
        ["evaluate", "--recs", path["recs.txt"], "--hidden", path["hid.txt"],
         "--k", "5"],
        ["stats", "--input", str(source)],
        ["stats", "--input", path["d.ds"]],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY_MA, json.dumps(commands)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
