"""Smoke test of the benchmark harness at toy scale.

    PYTHONPATH=src python -m pytest -q bench/tests

Runs every workload shape end to end, traced and untraced, on inputs small
enough to finish in seconds, and checks that a corrupted recs file is
counted as a failed operation.
"""

import dataclasses
import json
import math
from pathlib import Path
import sys

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src"), str(BENCH.parent / "tests")]

import run  # noqa: E402
from tastecf.synth import skewed_batch  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TOY_GENERATORS = {
    "skewed-100k": (lambda seed: skewed_batch(1_000, 200, 10.5, seed=seed), 40),
    "wide-1m": (lambda seed: skewed_batch(4_000, 800, 2.0, seed=seed), 30),
}


def toy(name):
    generate, query_users = TOY_GENERATORS[name]
    return dataclasses.replace(run.WORKLOADS[name], name=f"toy-{name}",
                               generate=generate, query_users=query_users)


@pytest.fixture(autouse=True)
def one_round(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "MIN_RECOMMENDS", 1)
    monkeypatch.chdir(tmp_path)


def bench_run(workload, trace, tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    cli = run.Cli(work, run.Tally())
    try:
        return run.run(workload, seed=3, seconds=0, trace=trace, cli=cli)
    finally:
        cli.close()


def test_every_workload_is_covered():
    assert set(TOY_GENERATORS) == set(run.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TOY_GENERATORS))
def test_workload_reports_every_metric(name, trace, tmp_path):
    result = bench_run(toy(name), trace, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        # every time is measured, so none reads 0; pool_overhead_s is a
        # difference of two times and may have either sign
        if metric["unit"] in ("s", "ms") and metric["name"] != "recommend.pool_overhead_s":
            assert got["value"] > 0, metric["name"]
    if trace:
        spans = (tmp_path / ".bench_out" / f"trace-toy-{name}-3.jsonl").read_text()
        assert '"recommend.user"' in spans


def test_corrupted_recs_file_is_a_failure(tmp_path, monkeypatch):
    stage = run.Cli.stage

    def corrupting(self, name, args):
        out = stage(self, name, args)
        if name == "recommend":
            recs = self.work / "recs.txt"
            lines = recs.read_text(encoding="utf-8").split("\n")
            lines[0] = lines[0].rsplit(" ", 1)[0]      # one item short
            recs.write_text("\n".join(lines), encoding="utf-8")
        return out

    monkeypatch.setattr(run.Cli, "stage", corrupting)
    result = bench_run(toy("skewed-100k"), 0, tmp_path)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
