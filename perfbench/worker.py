"""The measured process: imports ``bontea``, sets it up and times whole rounds.

Run by ``run.py`` as ``python3 perfbench/worker.py PLAN RESULT MODE`` with
``src`` on ``PYTHONPATH``. ``PLAN`` is the JSON plan that ``workloads.py``
wrote next to the generated inputs. ``MODE`` is ``setup`` (import, lazy
set-up, report the moment it was ready, exit) or ``run`` (the same, then
rounds of the workload's phases until ``seconds`` have passed).

Every program call goes through a public entry point looked up on its module
at call time (``bontea.cli.main``, ``bontea.trainer.train``,
``bontea.synth.estimator_bias_variance``), so a traced run sees it. A round
runs the same phases on the same inputs every time; what each phase
produced is recorded after its timer stops, for ``run.py`` to check.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from calibrate import REFERENCE_S, Calibrator, scaled
from tracer import PENDING, Tracer


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_record(result) -> dict:
    """What the checks need from a ``TrainResult``."""
    config = result.config
    return {
        "trajectory": [[p.step, p.kl, p.mean_reward] + [p.bon[n] for n in config.eval_n]
                       for p in result.trajectory],
        "eval_n": list(config.eval_n),
        "eval_samples": config.eval_samples,
        "thetas": result.thetas.tolist(),
    }


def lab_record(row) -> dict:
    """What the checks need from a ``BiasVarianceRow``."""
    return {"bias_vec": row.bias_vec.tolist(), "bias_se": row.bias_se.tolist(),
            "bias_norm": row.bias_norm, "variance": row.variance}


class Workload:
    """Phases of one round: ``(name, units, run, record)`` tuples."""

    module = "bontea"

    def __init__(self, plan: dict) -> None:
        self.plan = plan
        self.dir = Path(plan["workdir"])
        self.extras: dict = {}

    def import_program(self) -> None:
        importlib.import_module(self.module)
        self.bontea = sys.modules["bontea"]

    def setup(self) -> None:
        """Lazy set-up that every later call relies on (cached tail constants)."""
        self.bontea.gauss.tail_constants(0.25, 128)

    def phases(self) -> list:
        raise NotImplementedError


class CliWorkload(Workload):
    module = "bontea.cli"

    def cli_phase(self, name: str, units: int, argv: list[str], output: str):
        out = self.dir / output
        return (name, units, lambda: self.bontea.cli.main(argv + ["--output", str(out)]),
                lambda: _digest(out))


class Advantage(CliWorkload):
    def phases(self) -> list:
        groups = self.plan["groups"]
        return [
            self.cli_phase(rule, groups, ["advantage", "--input", self.plan["input"], "--rule", rule],
                           f"advantage-{rule}.jsonl")
            for rule in self.plan["rules"]
        ]


class Pools(CliWorkload):
    def setup(self) -> None:
        for n in self.plan["budgets"]:
            self.bontea.gauss.tail_constants(0.25, n)

    def phases(self) -> list:
        pools, baseline, prompts = self.plan["pools"], self.plan["baseline"], self.plan["prompts"]
        budgets = ",".join(str(n) for n in self.plan["budgets"])
        return [
            self.cli_phase("predict-bon", prompts, ["predict-bon", "-i", pools, "--budgets", budgets],
                           "predict.json"),
            self.cli_phase("eval-bon", 2 * prompts,
                           ["eval-bon", "-i", pools, "--baseline", baseline, "--budgets", budgets],
                           "eval.json"),
            self.cli_phase("qq-fit", prompts, ["qq-fit", "-i", pools], "qq.csv"),
        ]


class Train(Workload):
    module = "bontea.trainer"

    def phases(self) -> list:
        trainer = self.bontea.trainer
        table = json.loads(Path(self.plan["task"]).read_text())
        task = trainer.ToyTask(rewards=table["rewards"], reference_logits=table["reference_logits"])
        steps = self.plan["steps"]
        out = []
        for rule in self.plan["rules"]:
            config = trainer.TrainConfig(rule=rule, steps=steps, seed=self.plan["train_seed"])
            holder: dict = {}

            def run(config=config, holder=holder) -> int:
                holder["result"] = self.bontea.trainer.train(task, config)
                return 0

            out.append((rule, steps, run, lambda holder=holder: train_record(holder.pop("result"))))
        return out


class Lab(Workload):
    module = "bontea.synth"

    def setup(self) -> None:
        synth = self.bontea.synth
        self.spec = synth.SyntheticSpec(alpha=self.plan["alpha"], n_target=self.plan["n_target"],
                                        score_thresholds=tuple(self.plan["thresholds"]))
        super().setup()
        self.extras["true_gradient"] = synth.true_gradient(self.spec).tolist()

    def phases(self) -> list:
        out = []
        for rule, m, replications, seed in self.plan["rows"]:
            holder: dict = {}

            def run(rule=rule, m=m, replications=replications, seed=seed, holder=holder) -> int:
                holder["row"] = self.bontea.synth.estimator_bias_variance(
                    rule, self.spec, m, replications=replications, seed=seed)
                return 0

            out.append((f"{rule}.m{m}", replications, run,
                        lambda holder=holder: lab_record(holder.pop("row"))))
        return out


WORKLOADS = {"lab": Lab, "advantage": Advantage, "pools": Pools, "train": Train}


def run_rounds(phases: list, seconds: float, log: dict, kind: str,
               tracer: Tracer | None = None) -> int:
    """Whole rounds until ``seconds`` have passed; at least one.

    The calibration kernel runs between phases; each phase is logged with its
    time and the mean kernel time just before and just after it. A tracer's
    spans are scaled the same way, phase by phase, into its "rounds" bucket.
    """
    calibrator = Calibrator()
    deadline = time.perf_counter() + seconds
    rounds = 0
    before = calibrator.time(kind)
    while True:
        for name, _, run, record in phases:
            gc.collect()
            start = time.perf_counter()
            try:
                status = run()
            except SystemExit as exc:  # argparse rejects its arguments this way
                status = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                status = 1
            log["times"][name].append(time.perf_counter() - start)
            after = calibrator.time(kind)
            log["kernel"][name].append((before + after) / 2)
            if tracer is not None:
                tracer.fold(PENDING, "rounds", REFERENCE_S[kind] / log["kernel"][name][-1])
            before = after
            log["status"][name].append(status)
            try:
                log["records"][name].append(record() if status == 0 else None)
            except (OSError, KeyError):
                log["records"][name].append(None)
        rounds += 1
        if time.perf_counter() >= deadline:
            return rounds


def main() -> int:
    plan_path, result_path, mode = sys.argv[1:4]
    plan = json.loads(Path(plan_path).read_text())
    workload = WORKLOADS[plan["workload"]](plan)
    workload.import_program()
    tracer = None
    if mode == "run" and plan["trace"]:
        tracer = Tracer()
        calibrator = Calibrator()
        before = calibrator.time("python")
        tracer.install()
    workload.setup()
    ready = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
        kernel = (before + calibrator.time("python")) / 2
        tracer.fold(PENDING, "setup", REFERENCE_S["python"] / kernel)
    result: dict = {"ready": ready, "program": workload.bontea.__file__}
    if mode == "run":
        phases = workload.phases()
        kind = plan["calibration"]
        result["units"] = {name: units for name, units, _, _ in phases}
        log = {key: {name: [] for name, _, _, _ in phases}
               for key in ("times", "kernel", "status", "records")}
        seconds = plan["seconds"]
        rounds = run_rounds(phases, seconds / 2 if tracer else seconds, log, kind)
        if tracer is not None:
            untraced = {name: median(scaled(log["times"][name], log["kernel"][name], kind))
                        for name in log["times"]}
            tracer.install()
            traced_rounds = run_rounds(phases, seconds / 2, log, kind, tracer)
            tracer.uninstall()
            traced = {name: median(scaled(log["times"][name][rounds:],
                                          log["kernel"][name][rounds:], kind))
                      for name in log["times"]}
            rounds += traced_rounds
            result["trace"] = tracer.report("setup", "rounds", traced_rounds)
            result["trace"]["trace.overhead_pct"] = 100.0 * (
                sum(traced.values()) / sum(untraced.values()) - 1.0)
            if plan["workload"] == "lab":
                result["trace"].update({f"synth.row.{name}.s": value for name, value in traced.items()})
        result.update(log, rounds=rounds, extras=workload.extras,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
