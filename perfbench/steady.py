"""Repeat the benchmark over several seeds and print each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workloads lab,advantage,pools,train \
        --seeds 1-10 --seconds 12 [--out runs.jsonl]

Runs are made one after another, never in parallel. For every workload and
end-to-end metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
together with the share of failed operations. With ``--out`` every run's
result line is appended to that file as well.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default="lab,advantage,pools,train")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(line)
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if args.out:
                with args.out.open("a", encoding="utf-8") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, q2, q3 = quantiles(vals, n=4)
            print(f"{workload:9s} {name:12s} median {median(vals):11.5g}  q1 {q1:11.5g}"
                  f"  q3 {q3:11.5g}  spread {(q3 - q1) / median(vals):7.2%}  n={len(vals)}"
                  f"  failed share {sorted(shares)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
