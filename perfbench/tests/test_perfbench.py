"""The benchmark's own tests, at a tiny input scale.

    python -m pytest perfbench/tests -q

The inputs are generated at 2% of the defined volume into
``perfbench/.work/inputs`` (a few seconds on first use).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SCALE = 0.02
SEED = 3
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _oracles(workload: str, directory: Path) -> tuple[str, str]:
    return tuple(
        inputs.battery_digest(json.loads((directory / name).read_text()))
        for name in run.ORACLES[workload]
    )


def _rep(workload: str, tmp_path: Path, tracer: Tracer | None = None) -> tuple[dict, Path]:
    directory = inputs.ensure(workload, SEED, SCALE)
    subject = workloads.WORKLOADS[workload](directory, tmp_path)
    subject.open()
    return workloads.run_rep(subject, 1, tracer), directory


def test_metric_names_match_the_contract_and_the_declaration():
    from repro.experiments.registry import ALL_EXPERIMENTS
    from tracing import EXPERIMENT_IDS

    assert EXPERIMENT_IDS == tuple(e.id for e in ALL_EXPERIMENTS)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == run.per_layer_metrics()
    for name in [*end_to_end, *per_layer, *(w["name"] for w in declared["workloads"])]:
        assert NAME.match(name), name


@pytest.mark.parametrize("workload", sorted(run.ORACLES))
def test_tiny_run_has_no_failed_operation(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "0", "--scale", str(SCALE)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.ORACLES))
def test_traced_and_untraced_batteries_are_identical(workload, tmp_path):
    plain, directory = _rep(workload, tmp_path)
    traced, _ = _rep(workload, tmp_path, Tracer())
    oracles = _oracles(workload, directory)
    for phase, oracle in zip(("answer", "reanswer"), oracles):
        assert plain[phase]["digest"] == traced[phase]["digest"] == oracle
    layers = traced["layers"]
    assert set(layers) <= set(run.per_layer_metrics())
    assert layers["trace.coverage"] > 0.5
    assert layers["experiments.battery_s"] > 0


def test_tracer_uninstall_restores_every_callable():
    from repro.core.context import AnalysisContext
    from repro.experiments.registry import ALL_EXPERIMENTS

    before = (AnalysisContext.view, [e.run for e in ALL_EXPERIMENTS])
    tracer = Tracer()
    tracer.install()
    assert AnalysisContext.view is not before[0]
    tracer.uninstall()
    assert (AnalysisContext.view, [e.run for e in ALL_EXPERIMENTS]) == before


def test_injected_mismatch_is_a_failure_not_a_crash(tmp_path, monkeypatch):
    from repro.experiments.base import ExperimentResult

    inputs.ensure("flat-paper", SEED, SCALE)  # the oracles come from the real render
    render = ExperimentResult.render
    monkeypatch.setattr(ExperimentResult, "render", lambda self: render(self) + " ")
    record, directory = _rep("flat-paper", tmp_path)
    result = {"warmup": record, "reps": []}
    attempted, failed, messages = run.check([result], _oracles("flat-paper", directory))
    assert (attempted, failed) == (2, 2)
    assert all("differs from the oracle" in m for m in messages)


def test_injected_exception_is_a_failure_not_a_crash(tmp_path, monkeypatch):
    from repro import api

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    inputs.ensure("sharded-500k", SEED, SCALE)
    monkeypatch.setattr(api, "run_all", broken)
    record, directory = _rep("sharded-500k", tmp_path)
    attempted, failed, messages = run.check(
        [{"warmup": record, "reps": []}], _oracles("sharded-500k", directory)
    )
    assert (attempted, failed) == (1, 1)
    assert "injected" in messages[0]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "inputs.py", "workloads.py", "tracing.py"):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
