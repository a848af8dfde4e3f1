#!/usr/bin/env python3
"""stablecomp benchmark: one closed-loop workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ``stablecomp`` from ``src/``.
A single client issues the workload's fixed op list (built from ``--seed``)
one op after another, as passes, for about ``--seconds`` (at least two
passes, so every op repeats and its output is compared byte for byte).  An
op may run more than once in a pass, so that cheap ops get as many timed
runs as the median needs.

``--trace 0`` prints the end-to-end metrics: set-up time is the median of
three fresh interpreters (this one and two more), everything else is
measured in this process after its own set-up.  Op times are given at a
fixed host speed (see ``slowdown``); the raw times are printed and stored
beside them.
``--trace 1`` prints the per-layer metrics: each op runs untraced and then
traced at one worker (the difference is the tracing overhead); where
workers apply, a pass at the default worker count must give the same output
bytes; then come the direct-call probes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
per-op times and provenance included, goes to ``bench/results/``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()   # set-up time counts from here

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import OP_LAYER, Recorder, span_metrics

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("mc_verify", "pd_scan", "oracle_2d", "exact_export")
SETUP_REPEATS = 3
MIN_PASSES = 2
SUBPROCESS_TIMEOUT_S = 150
WORKER_ENV = "STABLECOMP_WORKERS"


# The shared host's cores change speed by up to 1.6x in spells of a few
# seconds, and every op slows with them.  Four fixed kernels, timed next to
# each op, track that speed: numpy arithmetic, a fresh 32 MiB allocation, an
# FFT and interpreted Python, the four kinds of work the ops do.  They change
# speed by different amounts in one spell, so their mean slowdown is used.
# Op times are divided by it, so they read as seconds at nominal speed.
_KERNELS = []


def _kernels() -> list:
    """(kernel, nominal seconds): each kernel's median on the 2-core Xeon
    guest the benchmark was tuned on."""
    if not _KERNELS:
        import numpy as np
        a, b = np.linspace(0.0, 50.0, 400), np.linspace(0.0, 3.0, 1500)
        c = np.random.default_rng(0).standard_normal((512, 512))
        _KERNELS.extend([
            (lambda: float(np.cos(np.outer(a, b)).sum()), 0.0127),
            (lambda: float(np.ones(4_200_000).sum()), 0.0093),
            (lambda: np.fft.fft2(c), 0.0094),
            (lambda: sum(i * i for i in range(100_000)), 0.0096),
        ])
    return _KERNELS


def slowdown() -> float:
    """Mean over the kernels of measured over nominal time: 1 at nominal
    host speed, above 1 when the host is slower."""
    ratios = []
    for kernel, nominal in _kernels():
        t0 = time.perf_counter()
        kernel()
        ratios.append((time.perf_counter() - t0) / nominal)
    return statistics.fmean(ratios)


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    os.environ.pop(WORKER_ENV, None)
    import stablecomp
    if Path(stablecomp.__file__).resolve().parent != (src / "stablecomp").resolve():
        fail(f"imported stablecomp from {stablecomp.__file__}, not from {src}")
    return stablecomp


@dataclass
class OpRun:
    label: str
    seconds: float
    rc: object
    problems: list = field(default_factory=list)
    rel_tols: list = field(default_factory=list)
    slowdown: float = 1.0   # host slowdown around the op, where measured

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.slowdown


def run_op(op, ledger: dict, recorder=None) -> OpRun:
    """Run one op; check its outputs on its first run, and on every later
    run require the same output bytes."""
    out, err = io.StringIO(), io.StringIO()
    span = recorder.begin(f"{OP_LAYER}.op", OP_LAYER) if recorder else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = op.run()
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - t0
        if span is not None:
            recorder.end(span)
    run = OpRun(op.label, seconds, rc)
    if rc != 0:
        run.problems.append(f"exit code {rc}: {err.getvalue().strip()[-600:]}")
        return run
    sig = hashlib.sha256(op.signature(out.getvalue())).hexdigest()
    if op.label in ledger:
        if ledger[op.label]["sig"] != sig:
            run.problems.append("output differs from the op's first run")
        run.rel_tols = ledger[op.label]["rel_tols"]
        return run
    if op.check is not None:
        try:
            problems, run.rel_tols = op.check(op, out.getvalue())
            run.problems += problems
        except Exception:
            run.problems.append("output check raised: " + traceback.format_exc(limit=3))
    ledger[op.label] = {"sig": sig, "rel_tols": run.rel_tols}
    return run


def pass_order(ops) -> list:
    """Each op ``op.repeat`` times, interleaved: op1, op2, ..., op1, ..."""
    return [op for r in range(max(op.repeat for op in ops)) for op in ops if op.repeat > r]


def run_pass(ops, ledger: dict, recorder=None, calibrate=False) -> list:
    """Run ops in order; with ``calibrate``, each run's slowdown is the mean
    of the host slowdowns measured just before and just after it."""
    runs = []
    before = slowdown() if calibrate else None
    for op in ops:
        if recorder is not None:
            recorder.op = op.label
        run = run_op(op, ledger, recorder)
        if calibrate:
            after = slowdown()
            run.slowdown, before = (before + after) / 2, after
        runs.append(run)
    return runs


def work_dir(tag: str) -> Path:
    path = BENCH / ".work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stablecomp").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy
    import scipy
    from stablecomp.sampling import default_workers
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {"commit": commit, "src_sha256": src_digest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "workers": default_workers(),
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": platform.machine()}


def failures(runs) -> list:
    return [{"op": r.label, "rc": r.rc, "problems": r.problems} for r in runs if r.problems]


def setup(args, work: Path):
    """Import stablecomp, build the workload's inputs, run its warm-up ops."""
    load_package()
    from workloads import BY_NAME
    wl = BY_NAME[args.workload](args.seed, work)
    run_pass(wl.warmups, {})
    return wl


def setup_in_fresh_process(args) -> float:
    """Set-up time of a fresh interpreter, as that interpreter measures it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=SUBPROCESS_TIMEOUT_S)
    if res.returncode != 0:
        print(res.stderr, file=sys.stderr)
        fail(f"set-up process exited with {res.returncode}")
    return float(res.stdout.split()[-1])


def end_to_end(args, work: Path) -> tuple:
    wl = setup(args, work)
    setups = [time.perf_counter() - STARTED]
    setups += [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
    ledger, passes = {}, []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(pass_order(wl.ops), ledger, calibrate=True))
        last = time.perf_counter() - t0
        # stop at the pass count that ends nearest to --seconds
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + last / 2 > args.seconds:
            break
    runs = [r for p in passes for r in p]
    failed = sum(1 for r in runs if r.problems)
    rels = [v for op in wl.ops if op.anchor and op.label in ledger
            for v in ledger[op.label]["rel_tols"]]

    def per_op(attr):
        return {op.label: [getattr(r, attr) for r in runs if r.label == op.label]
                for op in wl.ops}

    def op_medians(attr):
        # per-op medians over all runs, so one disturbed op run moves it little
        return [statistics.median(v) for v in per_op(attr).values()]

    metrics = {
        "wall_s": sum(op_medians("ref_seconds")),
        "op_s_p50": statistics.median(op_medians("ref_seconds")),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - failed / len(runs),
        "rel_tol_p50": statistics.median(rels) if rels else float("nan"),
        "wall_s_raw": sum(op_medians("seconds")),
        "op_s_p50_raw": statistics.median(op_medians("seconds")),
        "host_slowdown_p50": statistics.median(r.slowdown for r in runs),
    }
    detail = {
        "ops": len(wl.ops), "op_runs_per_pass": len(passes[0]), "passes": len(passes),
        "op_runs": len(runs),
        "fail_ratio": failed / len(runs), "setup_runs_s": setups,
        "pass_wall_s": [sum(r.seconds for r in p) for p in passes],
        "op_seconds": per_op("seconds"), "op_slowdowns": per_op("slowdown"),
        "op_rel_tol_p50": {k: statistics.median(v["rel_tols"]) for k, v in ledger.items()
                           if v["rel_tols"]},
        "stratum_mismatches": {op.label: op.info["stratum_mismatch"] for op in wl.ops
                               if "stratum_mismatch" in op.info},
        "failures": failures(runs),
    }
    return metrics, len(runs), failed, detail


def traced(args, work: Path) -> tuple:
    wl = setup(args, work)
    import probes
    import stablecomp

    # Each op runs untraced, then traced, both at one worker, so the pair
    # sees the same machine speed and the difference is the tracing cost.
    ledger, plain, traced_runs = {}, [], []
    recorder = Recorder()
    os.environ[WORKER_ENV] = "1"
    try:
        for op in wl.ops:
            plain.append(run_op(op, ledger))
            recorder.op = op.label
            recorder.install(stablecomp)
            try:
                traced_runs.append(run_op(op, ledger, recorder))
            finally:
                recorder.uninstall()
    finally:
        os.environ.pop(WORKER_ENV, None)
    runs = plain + traced_runs
    if wl.uses_workers:
        runs += run_pass(wl.ops, ledger)   # default workers: outputs must match
    failed = sum(1 for r in runs if r.problems)
    metrics = probes.run_all(work)

    untraced_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced_runs)
    metrics.update(span_metrics(recorder.spans))
    metrics.update({"trace.untraced_wall_s": untraced_s, "trace.traced_wall_s": traced_s,
                    "trace.overhead_s": traced_s - untraced_s,
                    "trace.overhead_ratio": traced_s / untraced_s,
                    "trace.spans": len(recorder.spans)})
    detail = {"failures": failures(runs),
              "op_seconds_untraced_1w": {r.label: r.seconds for r in plain},
              "op_seconds_traced_1w": {r.label: r.seconds for r in traced_runs}}
    return metrics, len(runs), failed, detail


def run_all_workloads(args) -> int:
    """Each workload in its own process; their outputs in sequence."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, timeout=SUBPROCESS_TIMEOUT_S + 180)
        worst = max(worst, res.returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "stablecomp" / "__init__.py").is_file():
        fail(f"no src/stablecomp under {ROOT}; run from the repository root")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json under {ROOT}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all_workloads(args)
    work = work_dir(args.workload)
    if args.setup_only:
        try:
            setup(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(time.perf_counter() - STARTED)
        return 0
    try:
        measure = traced if args.trace else end_to_end
        measured, attempted, failed, detail = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if measured.get(m["name"]) is None]
    if missing:
        fail(f"BENCHMARK.json lists metrics this run did not measure: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    prov = provenance(args)
    print(f"{args.workload}: {why}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for key, val in metrics.items():
        print(f"{args.workload} {key} = {val['value']:.6g} {val['unit']}")
    for key, val in measured.items():
        if key not in metrics:
            print(f"{args.workload} {key} = {val}")
    print(f"{args.workload} ops attempted = {attempted}, failed = {failed}")
    for item in detail["failures"]:
        print(f"FAILED {item['op']}: {item['problems']}")

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = {"provenance": prov, "why": why, "metrics": metrics, "measured": measured,
              "attempted": attempted, "failed": failed, "detail": detail}
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
