"""End-to-end and per-layer benchmark of the guessbound CLI.

Run from the root of a checkout::

    python3 bench/run.py --workload sweep-balanced --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke            # self-test of every workload, tiny sizes
    python3 bench/run.py --make-reference   # regenerate bench/reference.json

A run drives ``guessbound.cli.main(argv)`` in a fresh worker interpreter
(``worker.py``), closed loop with one client and one thread: each report is
written to a file with ``--no-timestamp`` and checked against the committed
reference rows before the next one starts.  The workloads and their seeds
are defined in ``workloads.py``; why each was chosen, and which per-layer
metric should move which end-to-end metric on which workload, is recorded
in ``predictions.json``.

Times are scaled to a reference machine speed.  The worker times a fixed
calibration kernel (``worker.Calibration``) right before every report and
once after the last; each report's wall time is multiplied by
``CALIBRATION_REF_S`` over the mean of the kernel times on either side of
it, so that the shared machine's speed, which drifts by tens of percent
within seconds, cancels out.  The unscaled medians are printed in the detail
line.  Set-up is scaled the same way, by a kernel run in the same fresh
interpreter right after it.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs every report twice, untraced then traced (``tracing.py``),
and prints the per-layer metrics, including the tracing overhead.  Times
there are per-report medians over the traced reports; counts are per-report
means over the first ``trace_prefix`` traced reports, which are the same
reports in every run, so the counts repeat exactly.  The last line of stdout is the JSON result; the line before it
holds machine, provenance and sampling details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
OUT_DIR = ROOT / ".bench_out"

ROW_FIELDS = ("label", "satisfied", "vacuous", "exact", "bound", "bound2", "stderr", "detail")
NUMERIC_FIELDS = frozenset(("exact", "bound", "bound2", "stderr"))
NUMERIC_ATOL = 1e-12
# numbers inside `detail`, such as the sampled lower bound of wide-key pa rows
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
SETUP_RUNS = 9
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
DEADLINE_S = 170.0  # workers still running after this are killed; a run must end in 180 s
# Reference time of the worker's calibration kernel.  Every time is scaled by
# CALIBRATION_REF_S / c, with c the kernel's mean time right before and right
# after the timed work.  The kernel took 0.022-0.046 s, median 0.037 s, on
# the 2-vCPU Intel Xeon VM the benchmark was defined on (Python 3.11,
# numpy 2.4, one BLAS thread), whose speed varied that much within minutes.
CALIBRATION_REF_S = 0.03
# counts that must repeat exactly for a given seed
DETERMINISTIC = (
    "functions.members_enumerated",
    "functions.support_matrix_bytes",
    "quantum.operators_diagonalized",
    "quantum.function_basis_pairs",
    "quantum.states_built",
    "cli.report_bytes",
)
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, worker failure)."""


def _row_record(row: dict) -> list:
    return [row.get(field) for field in ROW_FIELDS]


def _close(got, want) -> bool:
    return abs(got - want) <= NUMERIC_ATOL


def _details_match(got: str | None, want: str | None) -> bool:
    """Equal text, with the numbers in it equal within NUMERIC_ATOL."""
    if got is None or want is None:
        return got == want
    got_numbers, want_numbers = NUMBER.findall(got), NUMBER.findall(want)
    return (
        NUMBER.sub("#", got) == NUMBER.sub("#", want)
        and len(got_numbers) == len(want_numbers)
        and all(_close(float(a), float(b)) for a, b in zip(got_numbers, want_numbers))
    )


def _rows_match(rows: list, expected: list) -> str | None:
    """Why `rows` differ from the reference rows, or None when they match.

    Labels and verdicts must be equal; numeric fields, and the numbers in
    `detail`, may differ by NUMERIC_ATOL.
    """
    if len(rows) != len(expected):
        return f"{len(rows)} rows, reference has {len(expected)}"
    for number, (row, ref) in enumerate(zip(rows, expected)):
        for field, got, want in zip(ROW_FIELDS, _row_record(row), ref):
            if field == "detail":
                same = _details_match(got, want)
            elif field in NUMERIC_FIELDS and got is not None and want is not None:
                same = _close(got, want)
            else:
                same = got == want
            if not same:
                return f"row {number} {field}: {got!r}, reference {want!r}"
    return None


class Worker:
    """One worker interpreter, driven report by report over JSON lines."""

    def __init__(self, spec: dict, deadline: float):
        OUT_DIR.mkdir(exist_ok=True)
        self.out = OUT_DIR / f"report-{os.getpid()}.json"
        spec = dict(spec, root=str(ROOT), out=str(self.out))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            env={**os.environ, **WORKER_ENV},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self._timer.daemon = True
        self._timer.start()

    def messages(self):
        for line in self.proc.stdout:
            yield json.loads(line)

    def read_report(self):
        """The report just written, removed from disk; None if none was written."""
        try:
            with open(self.out) as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        finally:
            self.out.unlink(missing_ok=True)

    def ack(self):
        self.proc.stdin.write("ok\n")
        self.proc.stdin.flush()

    def close(self):
        self.proc.stdin.close()
        code = self.proc.wait()
        self._timer.cancel()
        self.proc.stdout.close()
        self.out.unlink(missing_ok=True)
        if code != 0:
            raise BenchError(f"worker exited with status {code}")


def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


def drive(spec: dict, deadline: float, reference: dict) -> dict:
    """Run a timed worker; check each report and collect its messages."""
    worker = Worker(dict(spec, mode="timed"), deadline)
    result = {"reports": [], "failures": [], "provenance": None, "peak_rss_kib": None}
    try:
        for message in worker.messages():
            if "provenance" in message:
                result["provenance"] = message["provenance"]
                continue
            if message.get("done"):
                result["peak_rss_kib"] = message["peak_rss_kib"]
                after = [r["calibration"] for r in result["reports"][1:]] + [message["calibration"]]
                for report, later in zip(result["reports"], after):
                    # the kernel ran right before this report and right after it
                    report["calibration"] = (report["calibration"] + later) / 2
                continue
            report = worker.read_report()
            key = workloads.reference_key(message["argv"])
            problem = None
            if message["code"] != 0:
                problem = f"exit status {message['code']}"
            elif report is None:
                problem = "no report written"
            elif key not in reference:
                problem = "no reference rows"
            else:
                problem = _rows_match(report["rows"], reference[key])
            message["rows"] = len(report["rows"]) if report else 0
            message["failed"] = problem is not None
            if problem is not None:
                result["failures"].append(f"{key}: {problem}")
            result["reports"].append(message)
            worker.ack()
    finally:
        worker.close()
    if result["peak_rss_kib"] is None:
        raise BenchError("worker stopped before finishing its reports")
    return result


def measure_setup(name: str, deadline: float) -> list[tuple[float, float]]:
    """(wall time, calibration) of fresh interpreters importing guessbound and warming up.

    The wall time runs from starting the interpreter to the worker saying it
    is ready; the calibration kernel runs after that.
    """
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        worker = Worker({"mode": "setup", "workload": name, "seed": 0}, deadline)
        wall = calibration = None
        try:
            for message in worker.messages():
                if message.get("ready"):
                    wall = time.perf_counter() - start
                else:
                    calibration = message["calibration"]
        finally:
            worker.close()
        if wall is None or calibration is None:
            raise BenchError("set-up worker stopped early")
        samples.append((wall, calibration))
    return samples


def tail(times: list[float]) -> tuple[float, float, int]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        raise BenchError(f"{count} reports are too few for a tail percentile")
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count, count


def scaled(seconds: float, calibration: float) -> float:
    """A time scaled to the reference machine speed by its paired calibration."""
    return seconds * CALIBRATION_REF_S / calibration


def end_to_end(result: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    reports = result["reports"]
    times = [scaled(r["seconds"], r["calibration"]) for r in reports]
    busy = sum(times)
    tail_value, percentile, count = tail(times)
    metrics = {
        "setup_s": statistics.median(scaled(wall, c) for wall, c in setup),
        "report_p50_s": statistics.median(times),
        "report_tail_s": tail_value,
        "rows_per_s": sum(r["rows"] for r in reports) / busy,
        "members_per_s": sum(r["members"] for r in reports) / busy,
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        "verified_frac": sum(not r["failed"] for r in reports) / len(reports),
    }
    raw = [r["seconds"] for r in reports]
    detail = {
        "report_tail_s": {"percentile": percentile, "samples": count},
        "unscaled": {
            "setup_s": statistics.median(wall for wall, _ in setup),
            "report_p50_s": statistics.median(raw),
            "report_tail_s": tail(raw)[0],
            "calibration_p50_s": statistics.median(r["calibration"] for r in reports),
        },
    }
    return metrics, detail


def per_layer(result: dict, prefix: int) -> tuple[dict, dict]:
    reports = result["reports"]
    traced = [r for r in reports if r["traced"]]
    untraced = [r for r in reports if not r["traced"]]
    first = traced[:prefix]
    metrics = {}
    for name in traced[0]["layers"]:
        if name.endswith("_s"):
            metrics[name] = statistics.median(
                scaled(r["layers"][name], r["calibration"]) for r in traced
            )
        else:
            metrics[name] = sum(r["layers"][name] for r in first) / len(first)
    calls = sum(r["layers"]["functions.support_matrix_calls"] for r in first)
    distinct = sum(r["layers"]["functions.distinct_families"] for r in first)
    metrics["functions.distinct_family_ratio"] = distinct / calls if calls else 1.0
    metrics["cli.reports_nonzero_exit"] = sum(r["code"] != 0 for r in reports)
    traced_p50 = statistics.median(scaled(r["seconds"], r["calibration"]) for r in traced)
    untraced_p50 = statistics.median(scaled(r["seconds"], r["calibration"]) for r in untraced)
    metrics["trace.traced_report_s"] = traced_p50
    metrics["trace.untraced_report_s"] = untraced_p50
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
    detail = {
        "traced_reports": len(traced),
        "counted_reports": len(first),
        "span_violations": sum(r["violations"] for r in traced),
        "deterministic_counts": {name: metrics[name] for name in DETERMINISTIC},
    }
    return metrics, detail


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; return (result line, detail line) as dicts."""
    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    prefix = workloads.WORKLOADS[name].trace_prefix
    spec = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        # a tail percentile needs TAIL_BEYOND + 1 samples; counts need the prefix
        "min_reports": max(TAIL_BEYOND + 1, prefix),
        "counted_reports": prefix,
    }
    result = drive(spec, deadline, load_reference())
    if trace:
        metrics, detail = per_layer(result, prefix)
        correct = not result["failures"] and detail["span_violations"] == 0
    else:
        metrics, detail = end_to_end(result, measure_setup(name, deadline))
        correct = not result["failures"]
    attempted = len(result["reports"])
    detail.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        failures=result["failures"][:5],
        machine={
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            **result["provenance"],
            "git_commit": _git_commit(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
    )
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": sum(r["failed"] for r in result["reports"]),
        "metrics": metrics,
    }
    return line, detail


def with_units(metrics: dict, declared: list[dict]) -> dict:
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def make_reference() -> None:
    argvs = workloads.reference_argvs()
    worker = Worker({"mode": "list", "argvs": argvs}, time.monotonic() + 3600)
    reference = {}
    try:
        for message in worker.messages():
            report = worker.read_report()
            key = workloads.reference_key(message["argv"])
            if message["code"] != 0 or report is None:
                raise BenchError(f"{key}: exit status {message['code']}")
            reference[key] = [_row_record(row) for row in report["rows"]]
            worker.ack()
    finally:
        worker.close()
    lines = [f"{json.dumps(key)}: {json.dumps(rows)}" for key, rows in reference.items()]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reference)} reference reports to {REFERENCE}")


def _check(condition, what) -> None:
    if not condition:
        raise BenchError(f"self-test failed: {what}")


def smoke_test(benchmark: dict) -> None:
    """Run each workload at its smoke size and check what it prints."""
    with open(BENCH / "predictions.json") as handle:
        predictions = json.load(handle)["predictions"]
    layer_names = {m["name"] for m in benchmark["per_layer"]}
    e2e_names = {m["name"] for m in benchmark["end_to_end"]}
    predicted = set()
    for p in predictions:
        predicted.update(p["layer_metrics"])
        _check(set(p["layer_metrics"]) <= layer_names, f"unknown layer metric in {p}")
        _check(set(p["end_to_end"]) <= e2e_names, f"unknown end-to-end metric in {p}")
        _check(set(p["moves_on"]) | set(p["unchanged_on"]) <= set(workloads.WORKLOADS), p)
    _check(layer_names <= predicted, f"no prediction for {sorted(layer_names - predicted)}")
    for name in workloads.WORKLOADS:
        line, _ = run_workload(name, 1, 0, False, smoke=True)
        _check(line["correct"] and line["failed"] == 0, f"{name}: {line}")
        _check(line["metrics"]["verified_frac"] == 1.0, f"{name}: failed_frac is not 0")
        for m in benchmark["end_to_end"]:
            value = line["metrics"].get(m["name"])
            _check(value is not None and value > 0 and m["unit"], f"{name}: {m['name']} = {value}")
        counts = []
        for seed in (1, 2):
            line, detail = run_workload(name, seed, 0, True, smoke=True)
            _check(line["correct"] and line["failed"] == 0, f"{name} traced: {line}")
            _check(detail["span_violations"] == 0, f"{name}: self time outside its parent span")
            for m in benchmark["per_layer"]:
                value = line["metrics"].get(m["name"])
                _check(value is not None and value >= 0 and m["unit"], f"{name}: {m['name']} = {value}")
            counts.append(detail["deterministic_counts"])
        _check(counts[0] == counts[1], f"{name}: counts differ between runs {counts}")
        print(f"smoke {name}: ok {json.dumps(counts[0])}")
    print("smoke test passed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test every workload")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "guessbound" / "cli.py").is_file():
        print(f"guessbound sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.make_reference:
        make_reference()
        return 0
    if not REFERENCE.is_file():
        print(f"reference rows not found: {REFERENCE}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required")
    try:
        if args.smoke:
            smoke_test(benchmark)
            return 0
        line, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    line["metrics"] = with_units(line["metrics"], declared)
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
