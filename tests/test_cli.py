"""Command-line surface: formats, config resolution, determinism, exit codes."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bontea import (
    DegenerateError,
    EmpiricalPool,
    RuleParams,
    build_scheme,
    compute_rule,
    gradient_alignment,
    oracle_advantage,
    tea,
)
from bontea.advantages import with_group_seed
from bontea.cli import main


def write_groups(path, groups):
    with open(path, "w", encoding="utf-8") as f:
        for record in groups:
            f.write(json.dumps(record) + "\n")


@pytest.fixture()
def pools_path(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "pools.jsonl"
    write_groups(
        path,
        [
            {"prompt_id": f"p{i}", "rewards": rng.standard_normal(64).tolist()}
            for i in range(5)
        ],
    )
    return path


def read_csv(path):
    comments, rows = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                comments.append(line.strip())
            else:
                rows.append(line.strip())
    return comments, list(csv.reader(rows))


class TestAdvantageCommand:
    def test_matches_library_and_round_trips(self, tmp_path, pools_path):
        out = tmp_path / "adv.jsonl"
        code = main(["advantage", "-i", str(pools_path), "-o", str(out), "--rule", "tea"])
        assert code == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        header, rows = lines[0], lines[1:]
        assert header["config"]["version"]
        assert len(rows) == 5
        source = [json.loads(line) for line in open(pools_path)]
        for src, row in zip(source, rows):
            expected = tea(np.array(src["rewards"]), RuleParams()).values
            # bit-exact round trip through decimal serialization
            assert row["advantages"] == expected.tolist()

    def test_grpo_hand_example(self, tmp_path):
        src = tmp_path / "one.jsonl"
        write_groups(src, [{"prompt_id": "x", "rewards": [1, 2, 3]}])
        out = tmp_path / "adv.jsonl"
        assert main(["advantage", "-i", str(src), "-o", str(out), "--rule", "grpo"]) == 0
        row = json.loads(out.read_text().splitlines()[1])
        assert row["advantages"] == [-1.0, 0.0, 1.0]

    def test_tea_hand_example(self, tmp_path):
        src = tmp_path / "one.jsonl"
        write_groups(src, [{"prompt_id": "x", "rewards": [0, 0, 0, 0, 0, 0, 1, 2]}])
        out = tmp_path / "adv.jsonl"
        assert main(["advantage", "-i", str(src), "-o", str(out), "--rule", "tea"]) == 0
        row = json.loads(out.read_text().splitlines()[1])
        assert row["advantages"] == [-0.5] * 7 + [3.5]

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"prompt_id": "a", "rewards": [1, 2]}\nnot json\n')
        assert main(["advantage", "-i", str(src), "-o", str(tmp_path / "o.jsonl")]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_per_group_errors_continue_processing(self, tmp_path, capsys):
        # group "short" is too small for the prefix scheme; the command reports
        # it on stderr, keeps going, and exits with the input-error code
        src = tmp_path / "mixed.jsonl"
        write_groups(
            src,
            [
                {"prompt_id": "ok1", "rewards": list(range(64))},
                {"prompt_id": "short", "rewards": list(range(6))},
                {"prompt_id": "ok2", "rewards": list(range(64))},
            ],
        )
        out = tmp_path / "adv.jsonl"
        code = main(["advantage", "-i", str(src), "-o", str(out), "--rule", "prefix-tea"])
        assert code == 2
        rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert [r["prompt_id"] for r in rows] == ["ok1", "ok2"]
        assert "short" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, pools_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["advantage", "-i", str(pools_path), "-o", str(out1), "--rule", "chow"])
        main(["advantage", "-i", str(pools_path), "-o", str(out2), "--rule", "chow"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_bon_mean_on_large_group(self, tmp_path):
        # C(4096, 512) is far beyond float range; the weights never form it
        src = tmp_path / "big.jsonl"
        rewards = np.random.default_rng(17).standard_normal(4096)
        write_groups(src, [{"prompt_id": "big", "rewards": rewards.tolist()}])
        out = tmp_path / "adv.jsonl"
        code = main(
            ["advantage", "-i", str(src), "-o", str(out), "--rule", "bon-mean", "--bon-k", "512"]
        )
        assert code == 0
        row = json.loads(out.read_text().splitlines()[1])
        assert np.all(np.isfinite(row["advantages"]))


class TestWeightsCommand:
    def test_matches_library(self, tmp_path):
        out = tmp_path / "w.json"
        assert main(["weights", "--m", "64", "--k", "2", "--j-count", "4", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        scheme = build_scheme(64, 2, 4)
        assert payload["sizes"] == list(scheme.sizes)
        assert payload["weights"] == list(scheme.weights)  # bit-exact round trip


class TestPredictAndEval:
    def test_predict_bon_self_consistency(self, tmp_path):
        # tail predictions from m=64 samples/prompt track the empirical
        # grouped bo128 computed from 512 samples/prompt within pooled error
        rng = np.random.default_rng(11)
        n_prompts = 48
        mus = rng.normal(size=n_prompts)
        sigmas = rng.uniform(0.5, 1.5, size=n_prompts)
        small = tmp_path / "small.jsonl"
        big = tmp_path / "big.jsonl"
        write_groups(
            small,
            [
                {"prompt_id": f"p{i}", "rewards": (mus[i] + sigmas[i] * rng.standard_normal(64)).tolist()}
                for i in range(n_prompts)
            ],
        )
        write_groups(
            big,
            [
                {"prompt_id": f"p{i}", "rewards": (mus[i] + sigmas[i] * rng.standard_normal(512)).tolist()}
                for i in range(n_prompts)
            ],
        )
        pred_out = tmp_path / "pred.json"
        eval_out = tmp_path / "eval.json"
        assert main(["predict-bon", "-i", str(small), "--budgets", "128", "-o", str(pred_out)]) == 0
        assert main(["eval-bon", "-i", str(big), "--budgets", "128", "-o", str(eval_out)]) == 0
        predicted = json.loads(pred_out.read_text())["mean_predicted"]["128"]
        evaluated = json.loads(eval_out.read_text())
        per_prompt = np.array(evaluated["curve"]["per_prompt"])[:, 0]
        pooled_se = per_prompt.std(ddof=1) / np.sqrt(n_prompts)
        assert abs(predicted - float(np.mean(per_prompt))) <= 3 * pooled_se

    def test_eval_bon_self_baseline_is_all_ties(self, tmp_path, pools_path):
        out = tmp_path / "eval.json"
        code = main(
            [
                "eval-bon", "-i", str(pools_path), "--budgets", "1,2,4",
                "--baseline", str(pools_path), "-o", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        for n in ("1", "2", "4"):
            assert payload["deltas"][n] == {"delta": 0.0, "ci_lo": 0.0, "ci_hi": 0.0}
            assert payload["win_tie_loss"][n] == {"win": 0.0, "tie": 100.0, "loss": 0.0}

    def test_eval_bon_rejects_nondivisible(self, tmp_path, pools_path):
        assert main(["eval-bon", "-i", str(pools_path), "--budgets", "3"]) == 2


class TestSynthCommand:
    def test_csv_schema_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "synth-bias-variance", "--rules", "tea", "--m-grid", "64",
            "--replications", "2000", "--seed", "3",
        ]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        comments, rows = read_csv(out1)
        assert rows[0] == [
            "estimator", "m", "bias_norm", "variance",
            "mse_p1", "mse_p2048", "mse_p65536", "replications", "seed",
        ]
        assert rows[1][0] == "tea"
        # round trip: mse columns reproduce bias_norm^2 + variance/P bit-exactly
        bias_norm, variance = float(rows[1][2]), float(rows[1][3])
        assert float(rows[1][4]) == bias_norm**2 + variance
        assert any(c.startswith("# version=") for c in comments)

    def test_degenerate_exit_code(self, tmp_path):
        code = main(
            [
                "synth-bias-variance", "--rules", "tea", "--m-grid", "4",
                "--replications", "1000", "-o", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3


class TestAlignCommand:
    def test_cosine_table(self, tmp_path):
        rng = np.random.default_rng(13)
        src = tmp_path / "scored.jsonl"
        write_groups(
            src,
            [
                {
                    "prompt_id": f"p{i}",
                    "rewards": rng.standard_normal(32).tolist(),
                    "scores": rng.standard_normal((32, 4)).tolist(),
                }
                for i in range(3)
            ],
        )
        out = tmp_path / "align.csv"
        assert main(["align", "-i", str(src), "--rules", "tea,grpo", "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0] == ["prompt_id", "cosine_tea", "cosine_grpo"]
        assert rows[-1][0] == "MEAN"
        values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert np.all(np.abs(values) <= 1.0 + 1e-12)

    def test_requires_scores(self, tmp_path, pools_path):
        assert main(["align", "-i", str(pools_path)]) == 2

    def test_degenerate_groups_are_skipped(self, tmp_path, capsys):
        # tea gives all-zero advantages when its top-q rewards tie (the binary
        # group) and, at m = 16, on a few Gaussian groups whose tail-shaped
        # rewards are all negative; alignment is undefined for those groups,
        # and the rest are still scored
        rng = np.random.default_rng(29)
        groups = [
            {
                "prompt_id": f"p{i}",
                "rewards": rng.standard_normal(16).tolist(),
                "scores": rng.standard_normal((16, 3)).tolist(),
            }
            for i in range(100)
        ]
        groups.insert(40, {
            "prompt_id": "binary",
            "rewards": [0.0] * 10 + [1.0] * 6,
            "scores": rng.standard_normal((16, 3)).tolist(),
        })
        expected = {}
        for index, g in enumerate(groups):
            rewards, scores = np.array(g["rewards"]), np.array(g["scores"])
            oracle = oracle_advantage(EmpiricalPool.from_values(rewards), 128)
            params = with_group_seed(RuleParams(), index)
            try:
                expected[g["prompt_id"]] = [
                    gradient_alignment(compute_rule(rule, rewards, params), scores, oracle)
                    for rule in ("tea", "grpo")
                ]
            except DegenerateError:
                pass
        assert "binary" not in expected and len(expected) > 90
        src = tmp_path / "scored.jsonl"
        write_groups(src, groups)
        out = tmp_path / "align.csv"
        assert main(["align", "-i", str(src), "-o", str(out)]) == 3
        err = capsys.readouterr().err
        skipped = [g["prompt_id"] for g in groups if g["prompt_id"] not in expected]
        assert all(f"prompt {pid}:" in err for pid in skipped)
        _, rows = read_csv(out)
        data = rows[1:-1]
        assert [row[0] for row in data] == list(expected)
        values = np.array([[float(v) for v in row[1:]] for row in data])
        assert_allclose(values, list(expected.values()), rtol=0, atol=0)
        mean = np.array([float(v) for v in rows[-1][1:]])
        assert rows[-1][0] == "MEAN" and np.all(np.isfinite(mean))
        assert_allclose(mean, values.mean(axis=0), rtol=1e-12)


class TestTrainSynthCommand:
    def test_trajectory_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "train-synth", "--rule", "grpo", "--m", "8", "--steps", "6",
                "--eval-every", "3", "--eval-n", "1,8", "--eval-samples", "64",
                "-o", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0] == ["step", "kl", "mean_reward", "bon_1", "bon_8"]
        assert [r[0] for r in rows[1:]] == ["0", "3", "6"]

    def test_gamma_zero_flat_mean_reward(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(
            [
                "train-synth", "--rule", "grpo", "--gamma", "0", "--m", "8",
                "--steps", "4", "--eval-every", "2", "--eval-n", "1,8",
                "--eval-samples", "64",
                "-o", str(out),
            ]
        )
        _, rows = read_csv(out)
        rewards = {row[2] for row in rows[1:]}
        assert len(rewards) == 1


class TestQqFitCommand:
    def test_table(self, tmp_path, pools_path):
        out = tmp_path / "qq.csv"
        assert main(["qq-fit", "-i", str(pools_path), "-o", str(out)]) == 0
        comments, rows = read_csv(out)
        assert rows[0] == ["prompt_id", "a", "b", "r_squared"]
        assert len(rows) == 6
        for row in rows[1:]:
            assert 0.0 <= float(row[3]) <= 1.0
        assert any(c.startswith("# q_lo=") for c in comments)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestHostileGroups:
    def test_integer_beyond_float_range_names_line(self, tmp_path, capsys):
        src = tmp_path / "huge.jsonl"
        src.write_text('{"rewards": [1, 2]}\n{"rewards": [1' + "0" * 400 + ', 2]}\n')
        code = main(["advantage", "-i", str(src), "-o", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert f"{src}:2:" in capsys.readouterr().err

    def test_overflowing_tail_skips_the_group(self, tmp_path, capsys):
        src = tmp_path / "big.jsonl"
        write_groups(
            src,
            [
                {"prompt_id": "big", "rewards": [1e200 * i for i in range(1, 9)]},
                {"prompt_id": "ok", "rewards": list(range(16))},
            ],
        )
        for rule in ("tea", "prefix-tea"):
            out = tmp_path / f"{rule}.jsonl"
            code = main(["advantage", "-i", str(src), "-o", str(out), "--rule", rule, "--k", "1",
                         "--j-count", "2"])
            assert code == 3
            assert "error: prompt big (line 1): tail statistics overflow" in capsys.readouterr().err
            rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
            assert [r["prompt_id"] for r in rows] == ["ok"]
        assert main(["predict-bon", "-i", str(src), "-o", str(tmp_path / "p.json")]) == 3

    def test_nonfinite_scores_are_input_error(self, tmp_path, capsys):
        src = tmp_path / "scored.jsonl"
        src.write_text(
            json.dumps({"rewards": [0.0, 1.0, 2.0, 3.0], "scores": [[float("nan")]] * 4}) + "\n"
        )
        assert main(["align", "-i", str(src), "-o", str(tmp_path / "a.csv")]) == 2
        assert "scores must be finite" in capsys.readouterr().err

    def test_one_reward_group_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "one.jsonl"
        write_groups(src, [{"prompt_id": "one", "rewards": [1.0]}, {"prompt_id": "two", "rewards": [1.0, 2.0]}])
        out = tmp_path / "adv.jsonl"
        assert main(["advantage", "-i", str(src), "-o", str(out), "--rule", "bonmax-second"]) == 2
        assert "prompt one (line 1): rewards must be a 1-d array with m >= 2" in capsys.readouterr().err
        rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert rows == [{"prompt_id": "two", "advantages": [0.0, 1.0]}]


class TestConfigResolution:
    def test_flag_beats_file_beats_default(self, tmp_path, pools_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rule = grpo\nseed = 9\n")
        out = tmp_path / "adv.jsonl"
        # rule from file, then overridden by flag
        main(
            [
                "advantage", "-i", str(pools_path), "-o", str(out),
                "--config", str(cfg), "--rule", "grpo-z",
            ]
        )
        header = json.loads(out.read_text().splitlines()[0])
        assert header["config"]["rule"] == "grpo-z"
        assert header["config"]["seed"] == 9

    def test_bad_config_line_is_input_error(self, tmp_path, pools_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rule grpo\n")
        assert main(["advantage", "-i", str(pools_path), "--config", str(cfg)]) == 2

    def test_missing_input_is_input_error(self, tmp_path):
        assert main(["advantage", "-i", str(tmp_path / "nope.jsonl")]) == 2
