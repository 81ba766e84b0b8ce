"""Self-test of the benchmark's answer check.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs a short ``service_cold`` pass twice in this process: once as is,
where every op must verify (``success_ratio`` 1.0, ``correct`` true),
and once with a wrong answer planted on one op after it returned, where
the replay must catch it (``success_ratio`` below 1, one failed op,
``correct`` false). Exits 0 when both hold.
"""

from __future__ import annotations

import contextlib
import io
import sys

import run

ARGS = ["--workload", "service_cold", "--seed", "7", "--seconds", "2", "--trace", "0"]


def quiet_main(plant_wrong: int | None) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.main(ARGS, plant_wrong=plant_wrong)


def main() -> int:
    clean = quiet_main(None)
    planted = quiet_main(plant_wrong=5)
    checks = {
        "clean run verifies every op": (
            clean["correct"]
            and clean["failed"] == 0
            and clean["metrics"]["success_ratio"]["value"] == 1.0
        ),
        "planted wrong answer is caught": (
            not planted["correct"]
            and planted["failed"] == 1
            and planted["metrics"]["success_ratio"]["value"] < 1.0
        ),
    }
    for name, passed in checks.items():
        print(f"{'PASS' if passed else 'FAIL'}: {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
