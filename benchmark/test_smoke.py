"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest benchmark/test_smoke.py

Every workload, untraced and traced, must print each metric that
BENCHMARK.json names, with its unit, and a corrupted output (a dropped or
repeated solution, a wrong count) must be counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

import run

TINY = {
    "cli_lines": ((12, 13), (14, 15)),
    "count_c4free": ((12, 13), (14, 15)),
    "general_sink": ((10, 14), (12, 16)),
    "large_sparse": ((300, 300),),
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    tiny = {name: dataclasses.replace(wl, sizes=TINY[name], solutions=None)
            for name, wl in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", tiny)


def result_of(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_unit(capsys, workload, trace):
    result = result_of(capsys, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def corrupt_lines(path, how):
    lines = path.read_text().splitlines(keepends=True)
    lines = lines[1:] if how == "drop" else lines + lines[:1]
    path.write_text("".join(lines))


def corrupt_pickle(path, how):
    with open(path, "rb") as fh:
        sols = pickle.load(fh)
    sols = sols[1:] if how == "drop" else sols + sols[:1]
    with open(path, "wb") as fh:
        pickle.dump(sols, fh)


@pytest.mark.parametrize("workload", ["cli_lines", "general_sink", "large_sparse", "count_c4free"])
@pytest.mark.parametrize("how", ["drop", "repeat"])
def test_corrupted_output_is_a_failure(capsys, monkeypatch, workload, how):
    real_op = run.Harness.op
    calls = []

    def op(self, path, cutoff, probes=5):
        res = real_op(self, path, cutoff, probes)
        if path.name.startswith("g") and "error" not in res:  # timed operations only
            calls.append(path)
            if len(calls) == 1:
                if self.wl.kind == "cli":
                    corrupt_lines(res["output"], how)
                elif self.wl.kind == "sink":
                    corrupt_pickle(res["output"], how)
                else:
                    res["count"] += -1 if how == "drop" else 1
        return res

    monkeypatch.setattr(run.Harness, "op", op)
    result = result_of(capsys, workload, trace=0)
    assert calls
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] == (result["attempted"] - 1) / result["attempted"]
