"""Inputs and output checks of the four workloads.

``generate(name, seed, workdir, size)`` writes the inputs the program will
read and returns ``(plan, truth)``: the plan goes to the measured process,
the truth (what the inputs were drawn from) stays with the checks.
``check(name, plan, truth, result, workdir)`` compares what the program
produced with ``reference.py`` and with properties the method must have, and
returns ``(failed, problems)``: failed units per phase per round, and one line
per failed check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

ALPHA = 0.25
N_TARGET = 128

#: Rows of the lab: the acceptance fixture's shapes at one block of
#: replications each, plus an oracle row whose bias is known to be zero.
LAB_ROWS = {
    "full": [("tea", m) for m in (256, 512, 1024, 2048, 4096)]
    + [("prefix-tea", m) for m in (512, 1024, 2048, 4096)]
    + [("oracle", 1024)],
    "smoke": [("tea", m) for m in (256, 512, 1024)] + [("prefix-tea", m) for m in (512, 1024)]
    + [("oracle", 256)],
}
LAB_REPLICATIONS = 4096  # the lab's block size: fewer still draws a whole block
LAB_THRESHOLDS = (1.0, 1.5)

SIZES = {
    "full": {"groups": 1000, "prompts": 100, "pool": 512, "steps": 200},
    "smoke": {"groups": 30, "prompts": 8, "pool": 128, "steps": 100},
}
GROUP_SIZE = 64
ADVANTAGE_RULES = ("tea", "prefix-tea", "grpo-z")
TRAIN_RULES = ("tea", "prefix-tea")
BUDGETS = (1, 2, 4, 8, 16, 32, 64, 128)
TOY_SHAPE = (8, 32)

#: Calibration kernel per workload (see calibrate.py): the lab is memory-bound
#: NumPy work, the others are interpreter-bound work on small arrays.
CALIBRATION = {"lab": "numpy", "advantage": "python", "pools": "python", "train": "python"}

#: Standard errors a Monte Carlo quantity may stray before a check fails.
Z_TOL = 5.0


def _rng(seed: int, workload: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, key])


def _write_groups(path: Path, ids: list[str], rows: np.ndarray) -> None:
    with path.open("w", encoding="utf-8") as out:
        for prompt_id, row in zip(ids, rows):
            out.write(json.dumps({"prompt_id": prompt_id, "rewards": row.tolist()}) + "\n")


# --- generation ----------------------------------------------------------------


def generate(name: str, seed: int, workdir: Path, size: str = "full") -> tuple[dict, dict]:
    rng = _rng(seed, name)
    dims = SIZES[size]
    plan: dict = {"workload": name, "workdir": str(workdir), "calibration": CALIBRATION[name]}
    truth: dict = {}
    if name == "lab":
        rows = LAB_ROWS[size]
        seeds = rng.integers(0, 2**32, size=len(rows))
        plan.update(alpha=ALPHA, n_target=N_TARGET, thresholds=list(LAB_THRESHOLDS),
                    rows=[[rule, m, LAB_REPLICATIONS, int(s)] for (rule, m), s in zip(rows, seeds)])
    elif name == "advantage":
        rewards = rng.standard_normal((dims["groups"], GROUP_SIZE))
        ids = [f"g{i:05d}" for i in range(len(rewards))]
        _write_groups(workdir / "groups.jsonl", ids, rewards)
        plan.update(input=str(workdir / "groups.jsonl"), groups=len(ids), rules=list(ADVANTAGE_RULES))
        truth.update(ids=ids, rewards=rewards)
    elif name == "pools":
        p, m = dims["prompts"], dims["pool"]
        mu = rng.uniform(-1.0, 1.0, p)
        sigma = rng.uniform(0.5, 2.0, p)
        pools = mu[:, None] + sigma[:, None] * rng.standard_normal((p, m))
        baseline = mu[:, None] - 0.1 + sigma[:, None] * rng.standard_normal((p, m))
        ids = [f"p{i:04d}" for i in range(p)]
        _write_groups(workdir / "pools.jsonl", ids, pools)
        _write_groups(workdir / "baseline.jsonl", ids, baseline)
        plan.update(pools=str(workdir / "pools.jsonl"), baseline=str(workdir / "baseline.jsonl"),
                    prompts=p, budgets=[n for n in BUDGETS if m % n == 0])
        truth.update(ids=ids, mu=mu, sigma=sigma, pools=pools, baseline=baseline)
    elif name == "train":
        rewards = rng.standard_normal(TOY_SHAPE)
        task = {"rewards": rewards.tolist(), "reference_logits": np.zeros(TOY_SHAPE).tolist()}
        (workdir / "task.json").write_text(json.dumps(task))
        plan.update(task=str(workdir / "task.json"), steps=dims["steps"], rules=list(TRAIN_RULES),
                    train_seed=int(rng.integers(0, 2**32)))
        truth.update(rewards=rewards)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return plan, truth


# --- checks ----------------------------------------------------------------------


def _close(a, b, tol: float = 1e-9) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b))))


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def check_advantage_output(rule: str, rows: list[dict], truth: dict) -> tuple[int, list[str]]:
    """Failed groups in one ``bontea advantage`` output, with the reasons."""
    c_tilde = ref.tail_constants(ALPHA, N_TARGET)["c_tilde"]
    expect = {
        "tea": lambda x: ref.tea(x, ALPHA, c_tilde),
        "prefix-tea": lambda x: ref.prefix_tea(x, ALPHA, c_tilde),
        "grpo-z": ref.grpo_z,
    }[rule]
    ids, rewards = truth["ids"], truth["rewards"]
    if not rows or rows[0].get("rule") != rule or len(rows) != len(ids) + 1:
        return len(ids), [
            f"advantage {rule}: expected a header and {len(ids)} rows, got {len(rows)} lines"]
    bad = []
    for i, (row, prompt_id, x) in enumerate(zip(rows[1:], ids, rewards)):
        values = np.asarray(row.get("advantages", []), dtype=float)
        if row.get("prompt_id") != prompt_id:
            bad.append(f"row {i} has prompt {row.get('prompt_id')!r}, expected {prompt_id!r}")
        elif not _close(values, expect(x)):
            bad.append(f"{prompt_id}: advantages differ from the reference")
        elif abs(values.sum()) > 1e-9 * (1.0 + np.abs(values).sum()):
            bad.append(f"{prompt_id}: advantages sum to {values.sum()!r}")
    return len(bad), [f"advantage {rule}: {msg}" for msg in bad[:3]]


def check_predict(payload: dict, truth: dict, budgets: list[int]) -> tuple[int, list[str]]:
    c_tilde = {n: ref.tail_constants(ALPHA, n)["c_tilde"] for n in budgets}
    entries = payload.get("per_prompt", [])
    if [e.get("prompt_id") for e in entries] != truth["ids"]:
        return len(truth["ids"]), ["predict-bon: prompts missing or out of order"]
    bad = []
    expected_mean = dict.fromkeys(budgets, 0.0)
    for entry, x in zip(entries, truth["pools"]):
        r, mu, sigma = ref.tail_vector(x, ALPHA)
        expect = {n: mu + c_tilde[n] * sigma for n in budgets}
        for n in budgets:
            expected_mean[n] += expect[n] / len(entries)
        tail = entry["tail"]
        got = [entry["predicted"].get(str(n), math.nan) for n in budgets]
        if not _close([tail["r"], tail["mu"], tail["sigma"]], [r, mu, sigma]) or not _close(
                got, [expect[n] for n in budgets]):
            bad.append(f"predict-bon {entry['prompt_id']}: tail or prediction differs from"
                       " mu + c_tilde sigma")
    got_mean = [payload.get("mean_predicted", {}).get(str(n), math.nan) for n in budgets]
    if not _close(got_mean, [expected_mean[n] for n in budgets]):
        return len(entries), ["predict-bon: mean_predicted is not the mean of the per-prompt predictions"]
    return len(bad), bad[:3]


def _curve(samples: np.ndarray, budgets: list[int]) -> np.ndarray:
    p, m = samples.shape
    return np.stack([samples.reshape(p, m // n, n).max(axis=2).mean(axis=1) for n in budgets], axis=1)


def check_eval(payload: dict, truth: dict, budgets: list[int]) -> list[str]:
    problems = []
    curves = {"curve": _curve(truth["pools"], budgets),
              "baseline_curve": _curve(truth["baseline"], budgets)}
    for key, expect in curves.items():
        got = payload.get(key, {})
        if got.get("n") != budgets or not _close(got.get("per_prompt"), expect, 1e-12) or not _close(
                got.get("mean"), expect.mean(axis=0), 1e-12):
            problems.append(f"eval-bon: {key} is not the reshape-max-mean of the input")
    for col, n in enumerate(budgets):
        delta = payload.get("deltas", {}).get(str(n), {})
        diff = float((curves["curve"][:, col] - curves["baseline_curve"][:, col]).mean())
        if not _close(delta.get("delta", math.nan), diff, 1e-12):
            problems.append(f"eval-bon: delta at n={n} is not the mean paired difference")
        elif not delta["ci_lo"] <= delta["delta"] <= delta["ci_hi"]:
            problems.append(f"eval-bon: delta at n={n} lies outside its interval")
        wtl = payload.get("win_tie_loss", {}).get(str(n), {})
        if abs(wtl.get("win", 0.0) + wtl.get("tie", 0.0) + wtl.get("loss", 0.0) - 100.0) > 1e-9:
            problems.append(f"eval-bon: win/tie/loss at n={n} does not sum to 100")
    return problems


def check_qq(text: str, truth: dict) -> list[str]:
    """Slope and intercept recover sigma and mu; tolerance from the spread across prompts."""
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    if not rows or rows[0] != ["prompt_id", "a", "b", "r_squared"] or [
            r[0] for r in rows[1:]] != truth["ids"]:
        return ["qq-fit: header or prompt rows missing"]
    fit = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    if not np.all((fit[:, 2] > 0.0) & (fit[:, 2] <= 1.0)):
        return ["qq-fit: an R^2 lies outside (0, 1]"]
    problems = []
    scaled = {"b / sigma": (fit[:, 1] / truth["sigma"], 1.0),
              "(a - mu) / sigma": ((fit[:, 0] - truth["mu"]) / truth["sigma"], 0.0)}
    for label, (values, target) in scaled.items():
        # 0.05 allows for the small-sample bias of extreme sample quantiles.
        tol = Z_TOL * values.std() / math.sqrt(values.size) + 0.05
        if abs(values.mean() - target) > tol:
            problems.append(
                f"qq-fit: mean {label} = {values.mean():.4f}, expected {target} +- {tol:.3f}")
    return problems


def check_train(rule: str, record: dict, truth: dict) -> list[str]:
    trajectory = np.asarray(record["trajectory"], dtype=float)
    eval_n = record["eval_n"]
    i1, i8, i128 = (3 + eval_n.index(n) for n in (1, 8, 128))
    problems = []
    if trajectory[0, 0] != 0 or abs(trajectory[0, 1]) > 1e-15:
        problems.append(f"train {rule}: KL at step 0 is {trajectory[0, 1]!r}, expected 0")
    if np.any(trajectory[:, i1] > trajectory[:, i8] + 1e-12) or np.any(
            trajectory[:, i8] > trajectory[:, i128] + 1e-12):
        problems.append(f"train {rule}: bon_1 <= bon_8 <= bon_128 fails at some point")
    probs = ref.softmax(np.asarray(record["thetas"], dtype=float))
    rewards = truth["rewards"]
    moments = [ref.discrete_max_moments(rewards[x], probs[x], 8) for x in range(len(rewards))]
    exact = float(np.mean([mean for mean, _ in moments]))
    groups = record["eval_samples"] // 8
    se = math.sqrt(sum(var for _, var in moments) / groups) / len(rewards)
    if abs(trajectory[-1, i8] - exact) > Z_TOL * se + 1e-12:
        problems.append(
            f"train {rule}: final bon_8 {trajectory[-1, i8]:.5f} vs exact {exact:.5f} (se {se:.2g})")
    mean_reward = float((probs * rewards).sum(axis=1).mean())
    if not _close(trajectory[-1, 2], mean_reward):
        problems.append(f"train {rule}: final mean reward is not the policy's expected reward")
    if rule == "tea" and not trajectory[-1, i8] > trajectory[0, i8]:
        problems.append(
            f"train tea: bon_8 did not rise ({trajectory[0, i8]:.4f} -> {trajectory[-1, i8]:.4f})")
    return problems


def check_lab_round(rows: dict[str, dict | None],
                    true_gradient: list[float]) -> tuple[set[str], list[str]]:
    """Failed row names in one lab round, with the reasons."""
    failed: set[str] = set()
    problems = []
    expect = ref.lab_true_gradient(ALPHA, N_TARGET, LAB_THRESHOLDS)
    if not _close(true_gradient, expect, 1e-8):
        return set(rows), [
            f"lab: true_gradient {true_gradient} differs from quadrature {expect.tolist()}"]
    for name, row in rows.items():
        if row is None or not (math.isfinite(row["variance"]) and row["variance"] > 0.0
                               and np.all(np.isfinite(row["bias_vec"]))):
            failed.add(name)
            problems.append(f"lab {name}: missing row, or variance not finite and positive")
        elif name.startswith("oracle.") and np.any(
                np.abs(row["bias_vec"]) > Z_TOL * np.asarray(row["bias_se"])):
            failed.add(name)
            problems.append(f"lab {name}: oracle bias {row['bias_vec']} not within {Z_TOL} se of 0")
    tea = sorted(((int(name.split(".m")[1]), row) for name, row in rows.items()
                  if name.startswith("tea.") and row is not None), key=lambda item: item[0])
    spread = [(row["bias_norm"], float(np.linalg.norm(row["bias_se"]))) for _, row in tea]
    rising = any(b2 > b1 + 4.0 * math.hypot(s1, s2)
                 for (b1, s1), (b2, s2) in zip(spread, spread[1:]))
    if len(spread) >= 2:
        (first, s_first), (last, s_last) = spread[0], spread[-1]
        if rising or not last < first - 3.0 * math.hypot(s_first, s_last):
            failed.update(name for name in rows if name.startswith("tea."))
            problems.append(
                f"lab: tea bias does not decrease with m: {[round(b, 5) for b, _ in spread]}")
    return failed, problems


def check(name: str, plan: dict, truth: dict, result: dict,
          workdir: Path) -> tuple[dict[str, list[int]], list[str]]:
    units, status, records = result["units"], result["status"], result["records"]
    failed = {phase: [units[phase] if code != 0 else 0 for code in status[phase]] for phase in units}
    problems = [f"{phase}: round {i} exited {code}" for phase in units
                for i, code in enumerate(status[phase]) if code != 0]

    if name == "lab":
        for i in range(result["rounds"]):
            bad, found = check_lab_round({phase: records[phase][i] for phase in units},
                                         result["extras"]["true_gradient"])
            for phase in bad:
                failed[phase][i] = units[phase]
            problems += found
        return failed, problems
    if name == "train":
        for phase in units:
            for i, record in enumerate(records[phase]):
                if status[phase][i] != 0:
                    continue
                found = (check_train(phase, record, truth) if record is not None
                         else [f"train {phase}: round {i} recorded no result"])
                if found:
                    failed[phase][i] = units[phase]
                    problems += found
        return failed, problems

    # CLI workloads: rounds rewrite the same files, so check the last output and
    # require every round to have produced exactly the same bytes.
    for phase in units:
        try:
            if name == "advantage":
                bad, found = check_advantage_output(
                    phase, _read_jsonl(workdir / f"advantage-{phase}.jsonl"), truth)
            elif phase == "predict-bon":
                bad, found = check_predict(
                    json.loads((workdir / "predict.json").read_text()), truth, plan["budgets"])
            elif phase == "eval-bon":
                found = check_eval(
                    json.loads((workdir / "eval.json").read_text()), truth, plan["budgets"])
                bad = units[phase] if found else 0
            else:
                found = check_qq((workdir / "qq.csv").read_text(), truth)
                bad = units[phase] if found else 0
        except (OSError, ValueError, KeyError, TypeError) as exc:
            bad, found = units[phase], [f"{phase}: output unreadable ({exc!r})"]
        problems += found
        last = records[phase][-1]
        for i, digest in enumerate(records[phase]):
            if status[phase][i] != 0:
                continue
            if digest != last:
                failed[phase][i] = units[phase]
                problems.append(f"{phase}: round {i} wrote different bytes from the last round")
            else:
                failed[phase][i] = bad
    return failed, problems
