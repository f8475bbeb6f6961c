"""Self-test of the benchmark's checks and failure accounting.

    python3 perfbench/selftest.py

Runs short benchmark runs and asserts that:

* a wrong pinned digest (report-maxwell) and falsified identities
  (calculus) show up as failed operations, in a run that still ends
  normally with a result;
* clean runs of calculus at two seeds have no failures, the pinned seed
  matches its digest and the other seed prints a different one;
* two traced runs give identical counts and stay correct;
* a directory holding only the benchmark makes it exit non-zero without
  printing a result.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: int = 0,
        fault: str = "none") -> tuple[dict, list[str]]:
    code, lines = bench("--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace),
                        "--fault", fault)
    if code != 0:
        raise AssertionError(f"{workload} seed {seed} exited with {code}")
    return result(lines), lines


def digest(lines: list[str]) -> str:
    for line in lines:
        found = re.match(r"calculus digest ([0-9a-f]{64})", line)
        if found:
            return found.group(1)
    raise AssertionError("no calculus digest printed")


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        raise SystemExit(1)


def main() -> int:
    r, _ = run("report-maxwell", 0, 1, fault="digest")
    check(r["failed"] > 0 and not r["correct"],
          f"wrong pinned digest: {r['failed']}/{r['attempted']} failed")
    r, _ = run("calculus", 0, 1, fault="identity")
    check(r["failed"] > 0 and not r["correct"],
          f"falsified identities: {r['failed']}/{r['attempted']} failed")

    pins = json.loads((HERE / "pinned.json").read_text())["calculus"]
    r0, lines0 = run("calculus", 0, 1)
    r1, lines1 = run("calculus", 1, 1)
    check(r0["failed"] == 0 and r1["failed"] == 0,
          "calculus seeds 0 and 1 have no failures")
    check(digest(lines0) == pins["0"], "seed 0 matches its pinned digest")
    check(digest(lines1) != digest(lines0), "seed 1 prints another digest")

    for workload in ("report-maxwell", "calculus"):
        (a, _), (b, _) = (run(workload, 0, 1, trace=1) for _ in range(2))
        counts = {k: v["value"] for k, v in a["metrics"].items()
                  if v["unit"] == "count"}
        again = {k: v["value"] for k, v in b["metrics"].items()
                 if v["unit"] == "count"}
        check(a["correct"] and b["correct"] and counts == again,
              f"{workload}: two traced runs are correct with equal counts")

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "calculus", "--seed", "0",
                            "--seconds", "1", "--trace", "0", root=bare)
        check(code != 0 and not any(ln.startswith("{") for ln in lines),
              f"benchmark alone exits {code} without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
