"""One pass of a workload in one fresh interpreter.

Started by ``run.py`` with an explicit environment.  The worker imports
vtc, loads the workload's model and generates its seeded inputs, then
prints ``READY``, so the parent can time set-up.  It then runs one pass:
every distinct operation of the workload once, back to back, each timed
and checked, and prints ``RESULT <json>`` as its last line.  A report pass
is one operation; a calculus pass is the run's query list.

With ``--trace 1`` the worker instead runs passes under the span tracer,
in rounds of one pass each, for ``--seconds`` / 2, and then the same
operations untraced, so that the tracing overhead is the ratio of the two
median operation times.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("report-maxwell", "report-chiral", "calculus")

# Queries in a calculus pass: about three seconds of work, so that a run
# holds several passes.
CALCULUS_PASS = 200

# While a pass runs, a timer interrupts it this often to time one burst of
# the reference loop.
SAMPLE_EVERY_S = 0.25
# Bursts timed right after set-up.
SETUP_BURSTS = 3

VTC_MODULES = ("builtin_models", "cli", "forms", "grading", "kernel",
               "linsolve", "model", "parser", "report", "symplectic",
               "variational", "foliation")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Vtc:
    """The vtc modules, imported from the checkout's ``src``."""

    def __init__(self):
        import vtc
        where = Path(vtc.__file__).resolve()
        if ROOT / "src" not in where.parents:
            raise SystemExit(f"vtc imported from {where}, not from the "
                             f"checkout's src directory")
        for name in VTC_MODULES:
            setattr(self, name, importlib.import_module(f"vtc.{name}"))


class ReportWorkload:
    """One op: run_pipeline on a built-in model, emitted as JSON and text,
    both checked against the pinned SHA-256 digests."""

    pass_size = 1

    def __init__(self, v: Vtc, model: str, pins: dict):
        self.v = v
        self.name = model
        self.model = v.builtin_models.builtin(model)
        self.pins = pins["report"][model]

    def op(self, i: int) -> bool:
        rep = self.v.report.run_pipeline(self.model)
        data = self.v.report.emit(rep, "json")
        text = self.v.report.emit(rep, "text")
        return (rep["ok"] is True and sha256(data) == self.pins["json"]
                and sha256(text) == self.pins["text"])

    def untimed_check(self) -> tuple[bool, str]:
        """``vtc report <model> --out FILE`` exits 0 with the pinned bytes."""
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"cli-{self.name}-{os.getpid()}.json"
        try:
            code = self.v.cli.main(["report", self.name, "--out", str(out)])
            data = out.read_bytes() if out.exists() else b""
        finally:
            out.unlink(missing_ok=True)
        ok = code == 0 and sha256(data) == self.pins["json"]
        return ok, f"vtc report {self.name} --out FILE: exit {code}, " \
                   f"json sha256 {sha256(data)}"

    def digest(self) -> tuple[bool, str | None]:
        return True, None


class CalculusWorkload:
    """One op: one seeded query, checked against its identity."""

    pass_size = CALCULUS_PASS

    def __init__(self, v: Vtc, pins: dict, seed: int, falsify: bool):
        import calculus
        self.calc = calculus.Calculus(v)
        self.queries = calculus.make_queries(seed, CALCULUS_PASS)
        self.pinned = pins["calculus"].get(str(seed))
        self.falsify = falsify
        self.texts: list[str] = []

    def op(self, i: int) -> bool:
        # A falsified run breaks the identity of every fourth query.
        falsify = self.falsify and i % 4 == 3
        ok, text = self.calc.run(self.queries[i % len(self.queries)], falsify)
        if len(self.texts) < self.pass_size:
            self.texts.append(text)
        return ok

    def digest(self) -> tuple[bool, str | None]:
        """The first pass's printed results, and whether they match the
        pinned digest of this seed (if it has one)."""
        got = sha256("".join(t + "\n" for t in self.texts).encode())
        return self.pinned in (None, got), got


def timed_op(work, i: int) -> tuple[float, float, bool, str | None]:
    """Run operation ``i``: its start and end, whether it failed, and the
    error it raised, if any.  A raising operation is a failed one."""
    t0 = time.perf_counter()
    try:
        ok, error = work.op(i), None
    except Exception as exc:
        ok, error = False, f"op {i}: {type(exc).__name__}: {exc}"
    return t0, time.perf_counter(), not ok, error


def timed_loop(work, ops: int | None = None, seconds: float = 0.0,
               on_round=None):
    """Run ops back to back: ``ops`` of them, or whole passes until
    ``seconds`` have passed (at least one).  Returns durations, failure
    flags and the first error."""
    times: list[float] = []
    fails: list[bool] = []
    error = None
    start = time.perf_counter()
    i = 0
    while True:
        if ops is not None:
            if i >= ops:
                break
        elif i % work.pass_size == 0 and i and \
                time.perf_counter() - start >= seconds:
            break
        t0, t1, failed, err = timed_op(work, i)
        times.append(t1 - t0)
        fails.append(failed)
        error = error or err
        i += 1
        if on_round is not None and i % work.pass_size == 0:
            on_round()
    return times, fails, error


def reference_burst() -> float:
    """Seconds for one run of a fixed pure-Python loop of exact arithmetic
    and dict updates, the kind of work vtc does.

    The loop does not touch vtc, so its time tells how fast the machine
    was at that moment, whatever the code under test.
    """
    t0 = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 3000):
        total += Fraction(i % 7, i % 5 + 1)
        seen[i % 101] = total
    return time.perf_counter() - t0


def timed_pass(work):
    """One pass, sampled by reference bursts that a timer runs every
    SAMPLE_EVERY_S seconds.

    Returns each operation's time less the bursts that ran inside it, the
    median burst time around each operation (the bursts that started
    within SAMPLE_EVERY_S of it, or else the nearest one), failure flags
    and the first error.
    """
    bursts: list[tuple[float, float]] = []

    def sample(signum, frame):
        t0 = time.perf_counter()
        bursts.append((t0, reference_burst()))

    spans, fails, error = [], [], None
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        for i in range(work.pass_size):
            t0, t1, failed, err = timed_op(work, i)
            spans.append((t0, t1))
            fails.append(failed)
            error = error or err
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    bursts.append((time.perf_counter(), reference_burst()))
    times, refs = [], []
    for t0, t1 in spans:
        times.append(t1 - t0 - sum(d for s, d in bursts if t0 <= s <= t1))
        near = [d for s, d in bursts
                if t0 - SAMPLE_EVERY_S <= s <= t1 + SAMPLE_EVERY_S]
        refs.append(statistics.median(near) if near else min(
            bursts, key=lambda b: abs(b[0] - t1))[1])
    return times, refs, fails, error


def per_layer(names, setup_round, rounds, overhead: float) -> dict:
    """Per-layer metrics: counts from the first round, times as medians
    over rounds; stage and emit times are inclusive, others self times."""
    first = rounds[0]

    def med(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for name in names:
        if name == "trace.overhead_ratio":
            value = overhead
        elif name == "parser.parse_model.self_s":
            # Models are parsed in set-up, which is traced as its own round.
            value = setup_round.self_s.get("parser.parse_model", 0.0)
        elif name.startswith("report.") and name.endswith("_s"):
            span = name[:-2]
            value = med([r.incl_s.get(span, 0.0) for r in rounds])
        elif name.endswith(".self_s"):
            span = name[:-len(".self_s")]
            value = med([r.self_s.get(span, 0.0) for r in rounds])
        elif name.endswith(".calls"):
            value = first.calls.get(name[:-len(".calls")], 0)
        else:
            value = first.counters.get(name, 0)
        out[name] = value
    return out


def traced(work, tracer, setup_round, seconds: float, workload: str,
           seed: int) -> tuple[dict, list[float], list[bool], str | None]:
    """Passes under the tracer for ``seconds``, one round each, then the
    same operations untraced.  Returns the per-layer record, the untraced
    op times, all failure flags and the first error."""
    rounds = []

    def on_round():
        rounds.append(tracer.end_round())
        tracer.begin_round()

    tracer.install()
    tracer.begin_round(record=True)
    traced_times, fails, error = timed_loop(work, seconds=seconds,
                                            on_round=on_round)
    tracer.end_round()
    tracer.uninstall()
    times, fails2, error2 = timed_loop(work, ops=len(traced_times))
    overhead = statistics.median(traced_times) / statistics.median(times)
    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    record = {
        "per_layer": per_layer(names, setup_round, rounds, overhead),
        "traced_ops": len(traced_times),
        "rounds": len(rounds),
        "missing_spans": tracer.missing,
        "spans": tracer.write_spans(spans_path),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return record, times, fails + fails2, error or error2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="length of the traced loop (--trace 1 only)")
    ap.add_argument("--cli-check", action="store_true",
                    help="after the pass, run the untimed CLI check")
    ap.add_argument("--fault", choices=("none", "digest", "identity"),
                    default="none")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))

    pins = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
    if args.fault == "digest":
        for entry in pins["report"].values():
            entry["json"] = entry["text"] = sha256(b"wrong")
        pins["calculus"] = {k: sha256(b"wrong") for k in pins["calculus"]}

    tracer = None
    v = Vtc()
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.begin_round()
    if args.workload == "calculus":
        work = CalculusWorkload(v, pins, args.seed,
                                falsify=args.fault == "identity")
    else:
        work = ReportWorkload(v, args.workload.split("-", 1)[1], pins)
    setup_round = None
    if tracer is not None:
        setup_round = tracer.end_round()
        tracer.uninstall()
    print("READY", flush=True)
    setup_reference = [reference_burst() for _ in range(SETUP_BURSTS)]

    detail: dict = {}
    if tracer is None:
        times, refs, fails, error = timed_pass(work)
        detail.update(op_reference_s=refs, setup_reference_s=setup_reference)
    else:
        record, times, fails, error = traced(
            work, tracer, setup_round, args.seconds / 2, args.workload,
            args.seed)
        detail.update(record)

    digest_ok, digest = work.digest()
    if not digest_ok:
        # The pass's printed bytes differ from the pinned ones: every op of
        # the first pass counts as failed.
        for k in range(min(work.pass_size, len(fails))):
            fails[k] = True
    notes = []
    attempted, failed = len(fails), sum(fails)
    if args.cli_check:
        check_ok, note = work.untimed_check()
        attempted += 1
        failed += not check_ok
        notes.append(note)

    detail.update({
        "attempted": attempted,
        "failed": failed,
        "error": error,
        "notes": notes,
        "digest": digest,
        "op_times_s": times,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("PYTHON", "OMP_", "OPENBLAS_", "MKL_",
                                 "VTC_"))},
    })
    print("RESULT " + json.dumps(detail), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
