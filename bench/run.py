"""hmrkit benchmark: checked job workloads, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload flow --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload

One client runs jobs in a closed loop from this process: the next job
starts when the previous one has been checked.  ``flow``, ``chain`` and
``census`` call hmrkit in this process; ``cli`` starts one fresh
``python -m hmrkit.cli`` process per request.  The run measures whole
rounds (see ``workloads.py``) and starts a new round only while it is
expected to end within ``--seconds``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one or
two rounds untraced and the same rounds under the tracing shim
(``tracing.py``), and prints the per-layer metrics and the tracing
overhead.  Every job's report is checked by an independent oracle
(``oracles.py``); failures are matched against the known-failure ledger
(``ledger.py``).  Job times of the in-process workloads are wall times
scaled to a reference machine speed (see ``REFERENCE_PROBE_S``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (jobs that failed in a way the ledger does not
explain) and ``metrics``.  The line before it, ``RECORD {...}``, holds the
full record: machine, inputs hash, wall times, sample counts, tail
percentile, ledger counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import ledger
import oracles
import workloads
from tracing import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: seed that no tuning of the benchmark or of a change may look at; a
#: claimed gain must also hold on it
HELD_OUT_SEED = 20261017

#: Duration of one speed probe on the machine this benchmark was tuned
#: on (2 vCPUs of an Intel Xeon VM), in its usual state.  That host changes
#: speed by up to 1.5x over seconds to minutes: a fixed pure-Python loop,
#: alone on the machine, takes from 0.35 to 0.59 s.  So the job times of
#: ``flow``, ``chain`` and ``census`` are wall times scaled to the
#: reference speed, wall x REFERENCE_PROBE_S / (mean of the probes just
#: before and after the job); their wall times are in the RECORD line.
#: Both probes take about REFERENCE_PROBE_S there.
#: ``cli`` requests and ``setup_s`` are child processes and stay wall times.
REFERENCE_PROBE_S = 0.0024
PROBE_SHARE = 0.05
PROBE_MAX_REPEATS = 10
_PROBE_VECTOR = np.arange(16.0)
_PROBE_MATRIX = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.0, 0.2, 0.1],
                          [0.1, 0.2, -0.5, 0.3], [0.0, 0.1, 0.3, -1.5]])
_PROBE_START = np.full(4, 0.5)

#: fresh interpreters timed for setup_s (after one untimed warm-up)
SETUP_REPEATS = 5

#: rounds run by ``--trace 1`` (untraced once, then traced); two for the
#: workloads whose rounds alternate between two shapes
TRACE_ROUNDS = {"flow": 1, "chain": 2, "census": 1, "cli": 2}

END_TO_END = {
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> (unit, which direction is better)
PER_LAYER = {
    "f2lin.f2_matmul.calls": ("count", "lower"),
    "f2lin.f2_matmul.ms": ("ms", "lower"),
    "f2lin.f2_matmul.dim_max": ("count", "lower"),
    "f2lin.f2_reduce.calls": ("count", "lower"),
    "f2lin.f2_reduce.ms": ("ms", "lower"),
    "f2lin.snf.calls": ("count", "lower"),
    "f2lin.snf.distinct_ratio": ("ratio", "higher"),
    "f2lin.snf.ms": ("ms", "lower"),
    "f2lin.int_matmul.calls": ("count", "lower"),
    "f2lin.int_matmul.ms": ("ms", "lower"),
    "f2lin.int_det.ms": ("ms", "lower"),
    "complexes.assemble.ms": ("ms", "lower"),
    "complexes.homology.ms": ("ms", "lower"),
    "complexes.les_maps.ms": ("ms", "lower"),
    "complexes.verify_les_exact.ms": ("ms", "lower"),
    "complexes.verify_d_squared.ms": ("ms", "lower"),
    "complexes.self_ms": ("ms", "lower"),
    "complexes.cycle_matrix.calls": ("count", "lower"),
    "complexes.cycle_matrix.distinct_ratio": ("ratio", "higher"),
    "complexes.gens": ("count", "lower"),
    "morse_blowup.integrate.ms": ("ms", "lower"),
    "morse_blowup.integrate.steps": ("count", "lower"),
    "morse_blowup.us_per_step": ("us", "lower"),
    "morse_blowup.model_init.ms": ("ms", "lower"),
    "morse_blowup.closed_form.ms": ("ms", "lower"),
    "morse_blowup.build_model.ms": ("ms", "lower"),
    "real_spinc.census.ms": ("ms", "lower"),
    "real_spinc.classes.ms": ("ms", "lower"),
    "real_spinc.verify.ms": ("ms", "lower"),
    "real_spinc.branched_cover.ms": ("ms", "lower"),
    "real_spinc.self_ms": ("ms", "lower"),
    "cw_fixtures.build.ms": ("ms", "lower"),
    "cw_fixtures.cells": ("count", "lower"),
    "seifert_hmr.divisor_count.ms": ("ms", "lower"),
    "seifert_hmr.divisor_count.points": ("count", "lower"),
    "seifert_hmr.brieskorn_hmr.ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.import_numpy_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "cli.timeouts": ("count", "lower"),
    "cli.tracebacks": ("count", "lower"),
    "cli.coded_errors": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# machine record and input hash
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor() or "unknown"
    match = re.search(r"^model name\s*:\s*(.+)$", text, re.MULTILINE)
    return match.group(1).strip() if match else "unknown"


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _tree_sha256(base: Path) -> str:
    """Hash of the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted(base.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(base)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def machine_record(workload: str) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "src_sha256": _tree_sha256(SRC / "hmrkit"),
        "deadline_s": workloads.DEADLINE_S[workload],
    }


def inputs_sha256(rounds) -> str:
    h = hashlib.sha256()
    for specs in rounds:
        h.update(json.dumps(specs, sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


def _on_alarm(signum, frame):
    raise workloads.JobDeadline()


def run_job(spec: dict, deadline: float, in_process: bool):
    """Run and check one job; returns a record of how it ended."""
    started = time.perf_counter()
    if spec["kind"] == "cli" and not in_process:
        result = workloads.run_cli_request(spec, str(ROOT), deadline)
        reason = oracles.check_cli(spec, result)
    else:
        result = {"timeout": False}
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            if spec["kind"] == "cli":
                result = workloads.run_cli_in_process(spec)
                reason = oracles.check_cli(spec, result)
            else:
                report = workloads.IN_PROCESS[spec["kind"]](spec)
                reason = oracles.check_job(spec, report)
        except workloads.JobDeadline:
            result, reason = {"timeout": True}, "missed the deadline"
        except Exception as exc:  # a crash is a failed job, not a crash here
            result = {"timeout": False, "exception": type(exc).__name__}
            reason = f"uncaught {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - started
    record = {"spec": spec, "seconds": seconds, "ok": reason is None,
              "reason": reason, "result": result}
    if reason is not None:
        record["signature"] = oracles.failure_signature(result, reason)
    return record


def _probe_python() -> float:
    started = time.perf_counter()
    total = 0
    for k in range(40000):
        total += k
    for _ in range(100):
        _PROBE_VECTOR @ _PROBE_VECTOR
    return time.perf_counter() - started


def _probe_numpy() -> float:
    """Small-vector steps, the shape of the flow integrator's inner loop."""
    started = time.perf_counter()
    p = _PROBE_START
    for _ in range(210):
        lp = _PROBE_MATRIX @ p
        p = p + 1e-3 * (float(p @ lp) * p - lp)
        p = p / np.linalg.norm(p)
    return time.perf_counter() - started


#: ``flow`` spends its time in small numpy calls, whose speed swings more
#: than plain bytecode's (its wall times moved 1.6x as much as the Python
#: probe's), so it is scaled by a probe of the same shape
_PROBES = {"flow": _probe_numpy}


def speed_probe(workload: str, after_seconds: float = 0.0) -> float:
    """Mean time of the workload's probe, a fixed piece of work.

    The probe is repeated for about 5% of ``after_seconds`` (the job just
    timed), from 1 to 10 times, so that long jobs get a steadier reading.
    Probes run no hmrkit code: a change to hmrkit moves scaled times
    exactly as it moves wall times.
    """
    probe = _PROBES.get(workload, _probe_python)
    repeats = round(PROBE_SHARE * after_seconds / REFERENCE_PROBE_S)
    repeats = min(PROBE_MAX_REPEATS, max(1, repeats))
    return statistics.fmean(probe() for _ in range(repeats))


def run_jobs(workload: str, specs, in_process: bool, tracer=None):
    """Run specs back to back; each record also gets ``scaled_seconds``.

    With ``in_process`` every job, ``cli`` requests included, runs in this
    process, and a speed probe between consecutive jobs (outside their
    timing) scales them.  Otherwise ``cli`` requests run in processes of
    their own and keep their wall times: start-up and deadline waits do
    not follow the probe, and scaling them widened the run-to-run spread.
    """
    deadline = workloads.DEADLINE_S[workload]
    records = []
    before = speed_probe(workload) if in_process else None
    for i, spec in enumerate(specs):
        if tracer is not None:
            tracer.job = i
        record = run_job(spec, deadline, in_process)
        record["scaled_seconds"] = record["seconds"]
        if in_process:
            after = speed_probe(workload, record["seconds"])
            record["scaled_seconds"] *= \
                2 * REFERENCE_PROBE_S / (before + after)
            before = after
        records.append(record)
    return records


def run_rounds(workload: str, seed: int, seconds: float):
    """Whole rounds until the next one is not expected to fit."""
    records, rounds, busy = [], [], 0.0
    while True:
        specs = workloads.make_round(workload, seed, len(rounds))
        rounds.append(specs)
        done = run_jobs(workload, specs, in_process=workload != "cli")
        records += done
        last = sum(r["seconds"] for r in done)
        busy += last
        if busy + last > seconds:
            return records, rounds


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall seconds of fresh interpreters that import hmrkit.cli.

    Output is captured so that the wait ends on the pipes' end of file; a
    bare ``wait`` with a timeout polls in steps of up to 50 ms.
    """
    def once():
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hmrkit.cli"],
                       env=_child_env(), cwd=ROOT, capture_output=True,
                       check=True, timeout=120)
        return time.perf_counter() - started

    once()  # writes the bytecode caches
    return [once() for _ in range(repeats)]


def measure_import_ms(repeats: int = 3) -> tuple[float, float]:
    """Median cumulative import time of hmrkit.cli and of numpy, in ms."""
    cli_us, numpy_us = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hmrkit.cli"],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=120)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not parts[1].isdigit():
                continue
            if parts[2] == "hmrkit.cli":
                cli_us.append(int(parts[1]))
            elif parts[2] == "numpy":
                numpy_us.append(int(parts[1]))
    return (statistics.median(cli_us) / 1e3,
            statistics.median(numpy_us) / 1e3 if numpy_us else 0.0)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(workload: str, records) -> dict:
    """Metrics from scaled job times; the wall-time versions go alongside."""
    checked = [r for r in records if r["ok"]]
    failures = [(r["spec"], r["signature"]) for r in records if not r["ok"]]
    explained = ledger.explain(workload, failures)
    p = workloads.TAIL_PERCENTILE[workload]
    out = {
        "attempted": len(records),
        "checked": len(checked),
        "failed": len(failures),
        "fail_ratio": len(failures) / len(records),
        "unexplained": explained["unexplained"],
        "ledger": explained["entries"],
        "tail_percentile": p,
    }
    for prefix, key in (("", "scaled_seconds"), ("wall_", "seconds")):
        times = [r[key] * 1e3 for r in checked]
        busy = sum(r[key] for r in records)
        tail = percentile(times, p) if times else float("nan")
        out[prefix + "job_p50_ms"] = statistics.median(times) \
            if times else float("nan")
        out[prefix + "job_tail_ms"] = tail
        out[prefix + "jobs_per_s"] = len(times) / busy
        out[prefix + "busy_s"] = busy
    out["tail_beyond"] = sum(1 for r in checked
                             if r["scaled_seconds"] * 1e3 > out["job_tail_ms"])
    return out


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload: str, seed: int, seconds: float):
    setup = measure_setup()
    records, rounds = run_rounds(workload, seed, seconds)
    s = summarize(workload, records)
    s["setup_s"] = statistics.median(setup)
    s["setup_samples"] = len(setup)
    s["peak_rss_mb"] = peak_rss_mb(workload)
    s["rounds"] = len(rounds)
    s["inputs_sha256"] = inputs_sha256(rounds)
    metrics = {name: s[name] for name in END_TO_END}
    return s, metrics


def traced(workload: str, seed: int):
    rounds = [workloads.make_round(workload, seed, r)
              for r in range(TRACE_ROUNDS[workload])]
    specs = [spec for specs in rounds for spec in specs]
    base = summarize(workload, run_jobs(workload, specs, in_process=True))
    with Tracer() as tracer:
        records = run_jobs(workload, specs, True, tracer)
    s = summarize(workload, records)
    metrics = layer_metrics(tracer.spans)
    metrics["cli.import_ms"], metrics["cli.import_numpy_ms"] = \
        measure_import_ms()
    cli_results = [r["result"] for r in records if r["spec"]["kind"] == "cli"]
    metrics["cli.report_bytes"] = sum(len(r.get("stdout", "").encode())
                                      for r in cli_results)
    metrics["cli.timeouts"] = sum(1 for r in cli_results if r["timeout"])
    metrics["cli.tracebacks"] = sum(
        1 for r in cli_results
        if "Traceback (most recent call last)" in r.get("stderr", ""))
    metrics["cli.coded_errors"] = sum(
        1 for r in cli_results if '"error"' in r.get("stdout", "")
        and r.get("exit") in (1, 2))
    metrics["trace.overhead_ratio"] = (
        base["jobs_per_s"] / s["jobs_per_s"] if s["jobs_per_s"] else 0.0)
    metrics["trace.spans"] = len(tracer.spans)
    s["untraced_jobs_per_s"] = base["jobs_per_s"]
    s["rounds"] = len(rounds)
    s["inputs_sha256"] = inputs_sha256(rounds)
    return s, {name: metrics[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _print_end_to_end(workload: str, s: dict):
    n = s["checked"]
    rows = [
        ("job_p50_ms", "ms", f"n={n} checked jobs"),
        ("job_tail_ms", "ms",
         f"p{s['tail_percentile']} of n={n}, {s['tail_beyond']} beyond"),
        ("jobs_per_s", "1/s", f"n={n} checked in {s['wall_busy_s']:.2f} s"),
    ]
    print(f"  {'metric':<13} {'reported':>12} {'wall':>12} unit")
    for name, unit, note in rows:
        print(f"  {name:<13} {s[name]:>12.4f} {s['wall_' + name]:>12.4f} "
              f"{unit:<5}  {note}")
    print(f"  {'setup_s':<13} {s['setup_s']:>12.4f} {s['setup_s']:>12.4f} "
          f"s      median of n={s['setup_samples']} fresh interpreters")
    print(f"  {'fail_ratio':<13} {s['fail_ratio']:>12.4f} {'':>12} ratio  "
          f"{s['failed']} of {s['attempted']} attempted")
    print(f"  {'peak_rss_mb':<13} {s['peak_rss_mb']:>12.1f} {'':>12} MB     "
          + ("largest child" if workload == "cli" else "this process"))


def _print_ledger(s: dict):
    for entry, count in s["ledger"].items():
        print(f"  known failure {entry}: {count}")
    for u in s["unexplained"]:
        print(f"  UNEXPLAINED failure: {u['job']} ({u['signature']})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    sys.path.insert(0, str(SRC))
    import hmrkit.cli  # noqa: F401  (import before timing; checks the path)
    if Path(hmrkit.cli.__file__).resolve().parent != SRC / "hmrkit":
        raise SystemExit(f"hmrkit imported from {hmrkit.cli.__file__}, "
                         f"not from {SRC}")
    print(f"hmrkit benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={int(trace)}")
    if trace:
        s, metrics = traced(workload, seed)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        for name, value in metrics.items():
            print(f"  {name:<40} {value:>14.4f} {units[name]}")
        print(f"  tracing overhead: {s['jobs_per_s']:.4f} checked jobs/s "
              f"traced vs {s['untraced_jobs_per_s']:.4f} untraced "
              f"(n={s['checked']})")
    else:
        s, metrics = end_to_end(workload, seed, seconds)
        units = END_TO_END
        _print_end_to_end(workload, s)
    _print_ledger(s)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "held_out_seed": HELD_OUT_SEED,
              "machine": machine_record(workload),
              **s}
    print("RECORD " + json.dumps(record, sort_keys=True))
    return {
        "correct": not s["unexplained"],
        "attempted": s["attempted"],
        "failed": len(s["unexplained"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool):
    """Each workload in a fresh process of its own, then one summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {workload} exited {proc.returncode}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hmrkit" / "__init__.py").is_file():
        print(f"error: no hmrkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
