"""Steadiness check: run each workload N times and compare spreads to bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --workloads service_cold
    python3 perfbench/steady.py --runs 10 --sets 2     # two sets, compare medians

Each run is ``perfbench/run.py`` in a fresh process with its own seed
(``--first-seed`` upward). For every end-to-end metric the script
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread ``(q3 - q1) / median`` against the metric's bound and a
third of it. ``setup_s``'s spread is informational: only its median is
bounded. With ``--sets 2`` the second set uses the next seeds; its
spreads are printed too, and each median is compared with the first
set's, worse-direction only.
Results are also written to ``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, RUN_SECONDS, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("diagnostics "):
            result["diagnostics"] = json.loads(line[len("diagnostics "):])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, mid, q3 = quantiles(values, n=4)
    center = median(values)
    return center, q1, q3, (q3 - q1) / center if center else float("inf")


def report(workload: str, sets: list[list[dict]]) -> bool:
    ok = True
    print(f"\n== {workload}: {len(sets)} set(s) of {len(sets[0])} runs")
    header = f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}{'bound':>7}{'b/3':>7}"
    if len(sets) > 1:
        header += f"{'median2':>12}{'spread2':>8}{'worse2':>8}"
    print(header)
    for name, _, better, bound in END_TO_END:
        values = [run["metrics"][name]["value"] for run in sets[0]]
        center, q1, q3, width = spread(values)
        status = ""
        if name != "setup_s" and width > bound:
            status, ok = " OVER BOUND", False
        elif name != "setup_s" and width > bound / 3:
            status = " over a third"
        line = (f"{name:<18}{center:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                f"{width:>8.3f}{bound:>7.3f}{bound / 3:>7.3f}")
        if len(sets) > 1:
            second, _, _, width2 = spread(
                [run["metrics"][name]["value"] for run in sets[1]]
            )
            change = (second - center) / center if center else 0.0
            worse = change if better == "lower" else -change
            line += f"{second:>12.5g}{width2:>8.3f}{worse:>8.3f}"
            if name != "setup_s" and width2 > bound:
                status, ok = status + " SET 2 OVER BOUND", False
            if worse > bound:
                status, ok = status + " SECOND SET WORSE", False
        print(line + status)
    refs = [
        run["diagnostics"]["host_ref_ms"][side]
        for runs in sets for run in runs for side in ("before", "after")
        if "diagnostics" in run
    ]
    if refs:
        center, q1, q3, width = spread(refs)
        print(f"host_ref_ms (diagnostic): median {center:.2f} q1 {q1:.2f} "
              f"q3 {q3:.2f} spread {width:.3f}")
    correct = all(run["correct"] for runs in sets for run in runs)
    print(f"all runs correct: {correct}")
    return ok and correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--workloads", nargs="*",
                        default=[name for name, _ in WORKLOADS])
    args = parser.parse_args()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads:
        sets = []
        seed = args.first_seed
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(workload, seed, args.seconds))
                print(f"  {workload} seed {seed} done", file=sys.stderr)
                seed += 1
            sets.append(runs)
        (out / f"steady-{workload}.json").write_text(json.dumps(sets, indent=1))
        steady = report(workload, sets) and steady
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
