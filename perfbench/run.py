"""Benchmark of bontea: one workload per run, end-to-end or per-layer metrics.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload {lab,advantage,pools,train} \
        --seed N --seconds S --trace {0,1} [--size {full,smoke}]

The inputs are generated from ``--seed`` into a scratch directory under
``perfbench/.work`` before any measured process starts; the program sees only
those files. Then fresh interpreters run ``worker.py``: five that only import
the package and finish its lazy set-up, then the measured process, which
repeats whole rounds of the workload for ``--seconds``. Its outputs are
checked against ``reference.py`` and the method's invariants.

With ``--trace 0`` the end-to-end metrics are reported: ``setup_s`` (median
set-up time of the five), ``ops_per_s`` (units of work per second, from the
median time of each phase of a round) and ``peak_rss_mb`` of the measured
process. Times are scaled to the machine's reference speed by the kernels in
``calibrate.py``; the unscaled figures go to standard error. With ``--trace 1``
the measured process spends half of ``--seconds`` untraced and half with
spans around each layer's public functions, and reports the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object; the exit code is nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import Calibrator, scaled  # noqa: E402
from tracer import SELF_TIMES, TARGETS  # noqa: E402

#: Set-up-only interpreters started before the measured one.
SETUP_PROBES = 5
#: Wall-clock limit for the whole run, below the 180 s a run may take.
TIME_LIMIT_S = 170.0


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update(dict.fromkeys(SELF_TIMES, "s"))
    units.update({f"synth.row.{rule}.m{m}.s": "s" for rule, m in workloads.LAB_ROWS["full"]})
    units["trace.overhead_pct"] = "%"
    return units


def run_worker(plan_path: Path, result_path: Path, mode: str, deadline: float) -> tuple[float, dict]:
    """Run one worker process to its end; returns (spawn time, its result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    spawned = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path), mode],
        env=env, stdout=sys.stderr, check=True, timeout=max(deadline - time.monotonic(), 1.0),
    )
    return spawned, json.loads(result_path.read_text())


def measure(args: argparse.Namespace, workdir: Path) -> tuple[dict, int, int, list[str]]:
    deadline = time.monotonic() + TIME_LIMIT_S
    plan, truth = workloads.generate(args.workload, args.seed, workdir, args.size)
    plan.update(seconds=args.seconds, trace=bool(args.trace))
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan))

    setups, kernel = [], []
    if not args.trace:
        calibrator = Calibrator()
        before = calibrator.time("python")
        for i in range(SETUP_PROBES):
            spawned, probe = run_worker(plan_path, workdir / f"setup-{i}.json", "setup", deadline)
            setups.append(probe["ready"] - spawned)
            after = calibrator.time("python")
            kernel.append((before + after) / 2)
            before = after
    _, result = run_worker(plan_path, workdir / "result.json", "run", deadline)
    expected_program = (Path("src") / "bontea" / "__init__.py").resolve()
    if Path(result["program"]).resolve() != expected_program:
        raise RuntimeError(f"measured {result['program']}, not {expected_program}")

    failed, problems = workloads.check(args.workload, plan, truth, result, workdir)
    attempted = result["rounds"] * sum(result["units"].values())
    if args.trace:
        metrics = {name: (result["trace"].get(name, 0.0), unit)
                   for name, unit in per_layer_units().items()}
    else:
        units = sum(result["units"].values())
        kind = plan["calibration"]
        phase_time = sum(median(scaled(result["times"][name], result["kernel"][name], kind))
                         for name in result["times"])
        metrics = {
            "setup_s": (median(scaled(setups, kernel, "python")), "s"),
            "ops_per_s": (units / phase_time, "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        raw_time = sum(median(times) for times in result["times"].values())
        print(f"{args.workload}: unscaled setup_s = {median(setups):.4g} s,"
              f" unscaled ops_per_s = {units / raw_time:.6g} 1/s", file=sys.stderr)
    return metrics, attempted, sum(sum(v) for v in failed.values()), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("lab", "advantage", "pools", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input size; 'smoke' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # worker and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (Path("src") / "bontea" / "__init__.py").is_file():
        print("error: run from the root of a bontea checkout (src/bontea not found)", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        metrics, attempted, failed, problems = measure(args, workdir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
