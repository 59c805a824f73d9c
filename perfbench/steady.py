"""Steadiness report: repeat benchmark runs over seeds and judge the spread.

Run from the repository root::

    python3 perfbench/steady.py --workload batch --seeds 1-10 --sets 2

For every end-to-end metric on every chosen workload it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
sample count over the runs, and the spread - the distance between the
quartiles as a share of the median.  A metric is flagged ``UNSTEADY``
when its spread exceeds its bound in ``BENCHMARK.json``, ``noisy``
when it exceeds a third of the bound.  With ``--sets 2`` every seed is
run twice and each set's median is compared with the first set's: a
second median worse than the first by more than the bound is flagged
``DRIFT``.  The exit code is 1 when any run failed or any metric is
flagged ``UNSTEADY`` or ``DRIFT``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> List[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / middle if middle else float("inf"),
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = (
        [w["name"] for w in bench["workloads"]] if args.workload == "all" else args.workload.split(",")
    )
    metrics = bench["end_to_end"]
    status = 0
    for workload in workloads:
        sets: List[Dict[str, List[float]]] = []
        for _ in range(args.sets):
            values: Dict[str, List[float]] = {m["name"]: [] for m in metrics}
            for seed in seeds(args.seeds):
                result = run(workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
                    status = 1
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{name}={values[name][-1]:.6g}" for name in values), flush=True)
            sets.append(values)
        print(f"\n{workload}: {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}{'spread':>9}{'bound':>8}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            for number, values in enumerate(sets, 1):
                row = spread(values[name])
                flag = ""
                if row["spread"] > bound:
                    flag, status = "UNSTEADY", 1
                elif row["spread"] > bound / 3:
                    flag = "noisy"
                if number > 1:
                    drift = worse_by(spread(sets[0][name])["median"], row["median"], metric["better"])
                    if drift > bound:
                        flag, status = (flag + " DRIFT").strip(), 1
                print(
                    f"{workload}: {name + ('#%d' % number if len(sets) > 1 else ''):<14}"
                    f"{row['median']:>14.6g}{row['q1']:>14.6g}{row['q3']:>14.6g}{row['n']:>4}"
                    f"{row['spread']:>9.2%}{bound:>8.3f} {flag}"
                )
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
