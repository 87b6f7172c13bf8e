"""Quick tests of the benchmark itself: smoke-sized runs and checks that fire.

Run from the root of the repository with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def _smoke(workload: str, trace: int) -> dict:
    code, result = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--size", "smoke")
    assert code == 0 and result is not None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _smoke(workload, trace=0)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_counts_one_scheme_build_per_prefix_tea_group():
    result = _smoke("advantage", trace=1)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    groups = workloads.SIZES["smoke"]["groups"]
    assert result["metrics"]["prefixes.build_scheme.calls"]["value"] == groups
    assert result["metrics"]["advantages.compute_rule.calls"]["value"] == 3 * groups


def test_benchmark_json_lists_the_reported_per_layer_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, result = _bench("--workload", "advantage", "--seed", "1", "--seconds", "1", "--trace", "0",
                          cwd=tmp_path)
    assert code != 0 and result is None


# --- the checks fire on corrupted outputs -----------------------------------------


def test_advantage_check_fires_on_a_corrupted_value_and_on_reordered_rows(tmp_path):
    from bontea import cli

    plan, truth = workloads.generate("advantage", 5, tmp_path, "smoke")
    out = tmp_path / "out.jsonl"
    assert cli.main(["advantage", "-i", plan["input"], "-o", str(out), "--rule", "prefix-tea"]) == 0
    rows = workloads._read_jsonl(out)
    assert workloads.check_advantage_output("prefix-tea", rows, truth) == (0, [])

    corrupted = copy.deepcopy(rows)
    corrupted[4]["advantages"][7] += 1e-6
    bad, problems = workloads.check_advantage_output("prefix-tea", corrupted, truth)
    assert bad == 1 and "differ from the reference" in problems[0]

    swapped = rows[:1] + [rows[2], rows[1]] + rows[3:]
    assert workloads.check_advantage_output("prefix-tea", swapped, truth)[0] == 2


def test_pools_checks_fire_on_corrupted_outputs(tmp_path):
    from bontea import cli

    plan, truth = workloads.generate("pools", 5, tmp_path, "smoke")
    budgets = ",".join(map(str, plan["budgets"]))
    paths = {name: tmp_path / name for name in ("predict.json", "eval.json", "qq.csv")}
    assert cli.main(["predict-bon", "-i", plan["pools"], "--budgets", budgets,
                     "-o", str(paths["predict.json"])]) == 0
    assert cli.main(["eval-bon", "-i", plan["pools"], "--baseline", plan["baseline"],
                     "--budgets", budgets, "-o", str(paths["eval.json"])]) == 0
    assert cli.main(["qq-fit", "-i", plan["pools"], "-o", str(paths["qq.csv"])]) == 0
    predict = json.loads(paths["predict.json"].read_text())
    evaluation = json.loads(paths["eval.json"].read_text())
    qq = paths["qq.csv"].read_text()
    assert workloads.check_predict(predict, truth, plan["budgets"]) == (0, [])
    assert workloads.check_eval(evaluation, truth, plan["budgets"]) == []
    assert workloads.check_qq(qq, truth) == []

    predict["per_prompt"][3]["predicted"]["128"] *= 1.001
    assert workloads.check_predict(predict, truth, plan["budgets"])[0] >= 1
    evaluation["deltas"]["8"]["delta"] += 1e-3
    assert any("delta at n=8" in p for p in workloads.check_eval(evaluation, truth, plan["budgets"]))
    halved = "\n".join(
        line if line.startswith(("#", "prompt_id")) else ",".join(
            line.split(",")[:2] + [repr(float(line.split(",")[2]) / 2)] + line.split(",")[3:])
        for line in qq.splitlines())
    assert any("b / sigma" in p for p in workloads.check_qq(halved, truth))


def test_train_check_fires_on_a_corrupted_trajectory():
    import numpy as np

    from bontea.trainer import ToyTask, TrainConfig, train

    rewards = np.random.default_rng(5).standard_normal(workloads.TOY_SHAPE)
    task = ToyTask(rewards=rewards, reference_logits=np.zeros_like(rewards))
    record = worker.train_record(train(task, TrainConfig(rule="tea", steps=100, seed=5)))
    assert workloads.check_train("tea", record, {"rewards": rewards}) == []
    record["trajectory"][-1][4] += 0.5
    assert any("final bon_8" in p for p in workloads.check_train("tea", record, {"rewards": rewards}))


def test_lab_check_fires_on_a_biased_oracle_and_a_wrong_true_gradient():
    from bontea.synth import SyntheticSpec, estimator_bias_variance, true_gradient

    spec = SyntheticSpec()
    rows = {}
    for rule, m in workloads.LAB_ROWS["smoke"]:
        rows[f"{rule}.m{m}"] = worker.lab_record(
            estimator_bias_variance(rule, spec, m, replications=4096, seed=m))
    g = true_gradient(spec).tolist()
    assert workloads.check_lab_round(rows, g) == (set(), [])

    biased = copy.deepcopy(rows)
    biased["oracle.m256"]["bias_vec"][0] += 0.05
    assert workloads.check_lab_round(biased, g)[0] == {"oracle.m256"}
    assert workloads.check_lab_round(rows, [g[0] * 1.001, g[1]])[0] == set(rows)


def test_tracer_reports_zero_for_a_function_that_is_gone(monkeypatch):
    import tracer
    from bontea import cli
    from bontea.gauss import tail_constants

    monkeypatch.setattr(tracer, "TARGETS",
                        tracer.TARGETS + (("gone.f", "bontea.cli", "no_such_function"),))
    spans = tracer.Tracer()
    spans.install()
    try:
        assert cli.tail_constants is not tail_constants  # the lookup through cli is wrapped
        cli.tail_constants(0.25, 128)
    finally:
        spans.uninstall()
    spans.fold(tracer.PENDING, "rounds", 1.0)
    report = spans.report("setup", "rounds", 1)
    assert report["gone.f.calls"] == 0 and report["gone.f.s"] == 0
    assert report["gauss.tail_constants.calls"] == 1
    assert cli.tail_constants is tail_constants
