"""vtc benchmark: one workload, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads are ``report-maxwell``, ``report-chiral`` and ``calculus`` (see
README.md).  With ``--trace 0`` the run starts fresh interpreters one after
another for ``--seconds``, each with an explicit environment and a single
thread.  Each one times its set-up and then runs one pass: every distinct
operation of the workload once, checked, between bursts of a fixed
reference loop that show how fast the machine ran.  Operation times are
scaled to the reference speed and reduced by medians over the passes.
With ``--trace 1`` one interpreter runs the workload under the span
tracer.  The run prints each metric by name with its unit, and as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full record of the run goes to
``.bench_out/``.

It exits with a non-zero code, printing no result, when the checkout has
no vtc sources or a workload process fails.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("report-maxwell", "report-chiral", "calculus")
# Fewest passes in a run, however short --seconds is.
MIN_PASSES = 3
# No pass starts later than this many seconds into the run, so that a run
# ends within the time the benchmark allows it.
LAST_START_S = 120
# Time metrics are scaled to a machine on which one burst of the worker's
# reference loop takes this long (about its fastest on a 2-core Xeon VM).
REFERENCE_S = 0.006
# When that VM slows down, vtc slows down less than the reference loop, so
# times are scaled by (REFERENCE_S / reference time) to this power.  In
# 10-seed sets of runs the spread over seeds was smallest near 0.6 on
# report-chiral, 0.6 to 0.8 on report-maxwell and 0.8 to 1 on calculus.
SPEED_EXPONENT = 0.8
TIME_LIMIT_S = 175


def child_env() -> dict:
    """The whole environment of a workload process.

    Nothing is inherited but PATH: in particular no VTC_JET_ORDER_CAP,
    which the engine would reread on every jet shift.  The hash seed is
    fixed so that runs of one seed repeat exactly, and thread pools of
    numeric libraries, should any be loaded, get one thread.
    """
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


class Worker:
    """A workload process, started at construction."""

    def __init__(self, args, cli_check: bool = False):
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--fault", args.fault]
        if cli_check:
            cmd.append("--cli-check")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT, text=True)

    def wait_ready(self) -> float:
        """Seconds from spawning the process until its set-up was done."""
        line = self.proc.stdout.readline()
        setup_s = time.perf_counter() - self.t0
        if line.strip() != "READY":
            raise RuntimeError("workload process failed during set-up")
        return setup_s

    def result(self) -> dict:
        """Wait for the process to end; the record it printed."""
        out = self.proc.stdout.read()
        code = self.proc.wait()
        if code != 0:
            raise RuntimeError(f"workload process exited with code {code}")
        results = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
        if not results:
            raise RuntimeError("workload process printed no result")
        return json.loads(results[-1][len("RESULT "):])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")


def run_passes(args) -> tuple[list[float], list[dict]]:
    """Fresh interpreters one after another, one pass each, for
    ``args.seconds`` and at least MIN_PASSES: their set-up times and
    records.  On a report workload the first one also runs the untimed
    CLI check."""
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if passes and (elapsed >= LAST_START_S or (
                elapsed >= args.seconds and len(passes) >= MIN_PASSES)):
            break
        worker = Worker(args, cli_check=not passes
                        and args.workload.startswith("report-"))
        try:
            setups.append(worker.wait_ready())
            passes.append(worker.result())
        finally:
            worker.kill()
    return setups, passes


def scale(reference_s: float) -> float:
    """The factor that takes a time measured beside a reference burst of
    ``reference_s`` seconds to the reference speed."""
    return (REFERENCE_S / reference_s) ** SPEED_EXPONENT


def scaled(passes: list[dict]) -> list[list[float]]:
    """Every operation time of every pass at the reference speed."""
    return [[t * scale(r)
             for t, r in zip(p["op_times_s"], p["op_reference_s"])]
            for p in passes]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated within the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hook: corrupt the pinned digests or falsify identities.
    ap.add_argument("--fault", choices=("none", "digest", "identity"),
                    default="none", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vtc" / "__init__.py").is_file():
        print(f"perfbench: no vtc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Compile ahead, so that set-up times never include bytecode compilation.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(TIME_LIMIT_S)
    try:
        if args.trace:
            worker = Worker(args)
            try:
                worker.wait_ready()
                setups, passes = [], [worker.result()]
            finally:
                worker.kill()
        else:
            setups, passes = run_passes(args)
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    first = passes[0]
    attempted = sum(p["attempted"] for p in passes)
    # Every pass must print the same bytes: all operations of a pass whose
    # digest differs from the first pass's count as failed.
    failed = sum(p["attempted"] if p["digest"] != first["digest"]
                 else p["failed"] for p in passes)
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"environment: python {first['python']} "
          f"({first['implementation']}), nproc {first['nproc']}, "
          f"cpu affinity {first['affinity']}, one single-threaded workload "
          f"process at a time, env {first['env']}")
    if first["digest"]:
        print(f"calculus digest {first['digest']}")
    for p in passes:
        for note in p["notes"]:
            print(note)
        if p["error"]:
            print(f"first error: {p['error']}")
            break
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:g}")

    if args.trace:
        kind = "per_layer"
        values = first["per_layer"]
        print(f"traced {first['traced_ops']} ops in {first['rounds']} "
              f"rounds; {first['spans']} spans of the first round in "
              f"{first['spans_file']}")
        if first["missing_spans"]:
            print(f"spans not installed: {first['missing_spans']}")
    else:
        kind = "end_to_end"
        per_pass = scaled(passes)
        # Each distinct operation's scaled time, median over the passes.
        times = [statistics.median(ts) for ts in zip(*per_pass)]
        values = {
            # A set-up time is scaled by the bursts right after it.
            "setup_s": statistics.median(
                t * scale(min(p["setup_reference_s"]))
                for t, p in zip(setups, passes)),
            "op_p50_s": statistics.median(times),
            "op_p90_s": quantile(times, 90),
            "ops_per_s": statistics.median(len(ts) / sum(ts)
                                           for ts in per_pass),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        every = [t for p in passes for t in p["op_times_s"]]
        print(f"setup_s: median of {len(setups)} fresh interpreters, "
              f"wall clock {[round(s, 4) for s in setups]}")
        print(f"{len(passes)} passes of {len(times)} distinct operations; "
              f"op_p50_s and op_p90_s are over {len(times)} scaled times, "
              f"{len(times) - int(0.9 * len(times))} of them at or beyond "
              f"the 90th percentile")
        print(f"machine speed per pass, median over its operations "
              f"(reference {REFERENCE_S * 1e3:g} ms over measured): "
              f"{[round(REFERENCE_S / statistics.median(p['op_reference_s']), 4) for p in passes]}")
        print(f"wall clock, not scaled: pass times "
              f"{[round(sum(p['op_times_s']), 4) for p in passes]}, median "
              f"of all {len(every)} op times {statistics.median(every):.6g} s")
    metrics = {}
    for m in bench[kind]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "setup_s": setups,
                                  "passes": passes, "metrics": metrics},
                                 indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
