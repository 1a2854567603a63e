"""Tests of the benchmark itself, on tiny instances.

Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import pipelines  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from pipelines import Kind  # noqa: E402
from transversals import certificate, cli  # noqa: E402

TINY = {
    "guarantee-wide": (Kind("random", (0, 0)),),
    "certificate-join": (Kind("counterexample", (0, 0)), Kind("counterexample", (1, 0))),
    "generate-rank": (
        Kind("counterexample", (0, 0)),
        Kind("counterexample", (0, 0), "flats"),
    ),
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def root(monkeypatch, tmp_path):
    """A scratch checkout root, with every workload shrunk to tiny targets."""
    for name, kinds in TINY.items():
        monkeypatch.setitem(
            pipelines.WORKLOADS,
            name,
            dataclasses.replace(pipelines.WORKLOADS[name], kinds=kinds),
        )
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    return tmp_path


def bench(capsys, workload, trace, seed=1):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0"]
    assert run.main(argv + ["--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_spec_lists_the_metrics_the_harness_reports():
    assert {w["name"] for w in SPEC["workloads"]} == set(pipelines.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_prints_every_metric(root, capsys, workload):
    document, lines = bench(capsys, workload, trace=0)
    assert document["correct"] and document["failed"] == 0
    assert set(document["metrics"]) == set(harness.END_TO_END)
    printed = {line.split()[0]: line.split()[2] for line in lines[1:]}
    for name, unit in harness.END_TO_END.items():
        assert printed[name] == unit
    assert printed["failed_share"] == "share"
    assert any(name.startswith("cmd.") for name in printed)

    document, _ = bench(capsys, workload, trace=1)
    assert document["correct"] and document["failed"] == 0
    assert set(document["metrics"]) == set(harness.PER_LAYER)
    metrics = {name: entry["value"] for name, entry in document["metrics"].items()}
    # Spans cover the commands and nothing else, so the layers' self times
    # add up to the traced command seconds.
    layer_seconds = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0.8 < layer_seconds * metrics["trace.instances_per_s"] <= 1
    if workload == "generate-rank":
        assert metrics["exactla.standard_form_feasible.calls"] == 0
    assert (root / ".bench_traces" / f"{workload}.jsonl").stat().st_size > 0


def test_wrong_exit_code_is_counted(root, capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_certificate", lambda *args: cli.EXIT_NEGATIVE)
    document, lines = bench(capsys, "guarantee-wide", trace=0)
    assert not document["correct"]
    assert document["failed"] == 1 and document["attempted"] == 4
    assert "failed_share 0.25 share (1/4)" in lines


def test_wrong_verdict_is_counted(root, capsys, monkeypatch):
    monkeypatch.setattr(certificate, "THEOREM_CONFIRMED", "THEOREM-REFUTED")
    document, lines = bench(capsys, "guarantee-wide", trace=0)
    assert document["failed"] == 1
    assert any("verdict THEOREM-REFUTED" in line for line in lines)


def test_traced_and_untraced_runs_print_identical_bytes(root, capsys):
    first, _ = bench(capsys, "certificate-join", trace=0, seed=3)
    second, _ = bench(capsys, "certificate-join", trace=1, seed=3)
    assert first["failed"] == 0 and second["failed"] == 0
    # The traced run compared its untraced pass against the first run's
    # digests and its traced pass against its untraced pass.
    (record,) = (root / ".bench_digests").glob("*/certificate-join-3.json")
    assert len(json.loads(record.read_text())) == 2 * 5


def test_changed_bytes_on_a_rerun_are_counted(root, capsys, monkeypatch):
    bench(capsys, "generate-rank", trace=0, seed=5)
    dump = cli._dump_json
    monkeypatch.setattr(cli, "_dump_json", lambda doc: dump(doc) + " ")
    document, _ = bench(capsys, "generate-rank", trace=0, seed=5)
    assert document["failed"] == 2 and document["attempted"] == 2


def test_missing_report_is_counted(root, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_emit", lambda doc, out: None)
    document, _ = bench(capsys, "guarantee-wide", trace=0)
    assert document["failed"] == 3 and document["attempted"] == 4
