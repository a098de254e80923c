"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs run.py in child processes with one-second runs and checks that
- a planted wrong answer is counted as a failed op, on every kind of check;
- ops past the time limit are recorded as failed, not dropped;
- every metric printed, traced and untraced, is named in BENCHMARK.json
  with the same unit;
- without the package sources the benchmark exits nonzero and prints no
  result.
Exits 1 at the first check that does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, *extra: str, trace: int = 0, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(done) -> dict:
    if done.returncode != 0:
        raise SystemExit(f"benchmark exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    for workload in ("loops-field", "loops-laurent", "cli-fixtures"):
        res = result(run(workload, "--plant-wrong"))
        expect(not res["correct"] and res["failed"] >= 1 and res["attempted"] >= res["failed"],
               f"{workload}: a planted wrong answer is counted ({res['failed']} of {res['attempted']} failed)")

    for workload, limit in (("loops-field", "0.001"), ("cli-fixtures", "0.01")):
        res = result(run(workload, "--op-limit", limit))
        expect(res["attempted"] >= 1 and res["failed"] == res["attempted"],
               f"{workload}: ops past a {limit} s limit fail and stay counted "
               f"({res['failed']} of {res['attempted']} failed)")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in ("loops-laurent", "cli-fixtures"):
            res = result(run(workload, trace=trace))
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(res["correct"] and got == want,
                   f"{workload} --trace {trace}: metric names and units match BENCHMARK.json "
                   f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run("loops-field", cwd=bare)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and '"metrics"' not in done.stdout,
           f"without the sources the benchmark exits {done.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
