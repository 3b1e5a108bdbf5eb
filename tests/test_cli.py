import subprocess
import sys

import pytest

from tastecf import load_dataset, parse_triplets
from tastecf.cli import main
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


def test_full_pipeline_produces_golden_line(tmp_path, t1_file, capsys):
    code, recs = _pipeline(tmp_path, t1_file, capsys, rec_args=["--k", "5"])
    assert code == 0
    assert recs.read_text() == "u1 c 1 2 3 4\n"


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
    assert err.startswith("config: command=stats")
    assert "delimiter=" in err


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


def test_evaluate_parallel_matches_serial(tmp_path, t1_file, capsys):
    code, recs = _pipeline(tmp_path, t1_file, capsys, rec_args=["--k", "3"])
    hidden = tmp_path / "hidden.txt"
    hidden.write_text("u1\tc\t1\n")
    outputs = []
    for workers in ("1", "2"):
        assert main(["evaluate", "--recs", str(recs), "--hidden", str(hidden),
                     "--k", "3", "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_evaluate_missing_recommendation_fails(tmp_path, t1_file, capsys):
    code, recs = _pipeline(tmp_path, t1_file, capsys)
    hidden = tmp_path / "hidden.txt"
    hidden.write_text("u2\tc\t1\n")
    assert main(["evaluate", "--recs", str(recs), "--hidden", str(hidden)]) == 1
    assert "u2" in capsys.readouterr().err


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


def test_missing_input_file_exits_1_with_path(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["stats", "--input", str(missing)]) == 1
    assert "nope.txt" in capsys.readouterr().err


def test_unknown_user_id_exits_1_with_id(tmp_path, t1_file, capsys):
    dataset = tmp_path / "t1.ds"
    index = tmp_path / "t1.idx"
    users = tmp_path / "users.txt"
    users.write_text("ghost\n")
    main(["ingest", "--input", str(t1_file), "--out", str(dataset)])
    main(["build", "--input", str(dataset), "--out", str(index)])
    capsys.readouterr()
    assert main(["recommend", "--input", str(index), "--users", str(users),
                 "--out", str(tmp_path / "r.txt")]) == 1
    assert "ghost" in capsys.readouterr().err


@pytest.mark.parametrize("count", [str(2**64), "5000000000"])
def test_ingest_play_count_above_u32_exits_1_with_line(tmp_path, capsys, count):
    text = tmp_path / "big.txt"
    text.write_text(f"u1\ta\t1\nu1\tb\t{count}\n")
    out = tmp_path / "big.ds"
    assert main(["ingest", "--input", str(text), "--out", str(out)]) == 1
    assert "line 2" in capsys.readouterr().err
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
