"""Benchmark worker: runs CLI reports in process, one at a time.

Started by ``run.py`` in a fresh interpreter with the checkout's ``src`` on
``sys.path``.  It reads one JSON spec from its first argument and talks to
the orchestrator over stdin/stdout in JSON lines: after each report it sends
the exit code and wall time, then waits for an acknowledgement, so the
orchestrator can check the report file while the worker is idle.  The
CLI's own stdout goes to /dev/null.

Modes (``spec["mode"]``):
  setup   import guessbound, run one warm-up report at the smoke size, say
          so, then time the calibration kernel
  timed   warm up, then run reports until their summed wall time reaches
          ``seconds`` (at least ``min_reports``); with ``trace`` each report
          runs twice, untraced then traced, and the traced copy sends
          per-layer metrics; the first ``counted_reports`` reports use
          workload seed 0
  list    run the given argument lists once each (reference generation)
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import traceback
from time import perf_counter

import workloads


def _import_cli(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import guessbound.cli

    return guessbound.cli


def _provenance():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def members_per_report(cli, argv) -> int:
    """Function-family members one report evaluates, once per instance.

    An instance is one encoding, storage function or distribution that a
    whole family is evaluated against; the counts follow the scenario
    runners in ``guessbound.cli``.
    """
    scenario, c = cli.resolve_config(cli.build_parser().parse_args(argv))
    if scenario == "pa":
        hashes = cli.hash_family(c["family"], c["n"], c["k"])
        return hashes.support_size() * (c["samples"] + 1)
    if scenario == "bound-sweep":
        return cli.predicate_family(c["family"], c["n"]).support_size() * c["samples"]
    if scenario == "compex":
        return math.comb(4, 2) * (16 + c["samples"] + 1)
    if scenario == "classical-lower-bound":
        return sum(2 ** (2**n) * (n - 1) for n in range(2, c["n"] + 1))
    if scenario == "hashing-lemma":
        alphabets = (c["n"],) if c.get("n") else (2, 4, 6, 8, 16)
        return math.comb(4, 2) + c["samples"] * sum(math.comb(a, a // 2) for a in alphabets)
    return 0


class Calibration:
    """A fixed mix of the work the reports do, timed between reports.

    Interpreter loops, small and batched LAPACK calls, a matrix product and
    JSON encoding, none of it from guessbound.  Its time tracks how fast the
    shared machine runs at that moment, so the orchestrator can scale report
    times to a reference machine speed.  It runs right before every timed
    report and once after the last, because the machine's speed changes
    within seconds.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        mats = rng.normal(size=(256, 4, 4)) + 1j * rng.normal(size=(256, 4, 4))
        self._np = np
        self._mats = mats + mats.conj().transpose(0, 2, 1)
        self._batch = np.concatenate([self._mats] * 8)
        self._dense = rng.normal(size=(400, 64))
        self.run()  # the first run pays one-time costs

    def run(self) -> float:
        np = self._np
        start = perf_counter()
        acc = 0
        for i in range(30000):
            acc += (i * 7) % 13
        for matrix in self._mats:
            np.linalg.eigvalsh(matrix)
        np.linalg.eigvalsh(self._batch)
        json.dumps(self._dense.tolist())
        float((self._dense @ self._dense.T).sum())
        return perf_counter() - start


def _run_report(cli, argv, out):
    try:
        code = cli.main([*argv, "--no-timestamp", "--out", out])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing report is a failed operation; keep measuring
        traceback.print_exc()
        code = -1
    return code


def main():
    spec = json.loads(sys.argv[1])
    protocol = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = open(os.devnull, "w")
    cli = _import_cli(spec["root"])
    out = spec["out"]
    name, seed, smoke = spec.get("workload"), spec.get("seed"), spec.get("smoke", False)

    def send(message):
        protocol.write(json.dumps(message) + "\n")

    def wait_ack():
        if sys.stdin.readline().strip() != "ok":
            sys.exit(1)

    if spec["mode"] == "setup":
        _run_report(cli, workloads.report_argv(name, seed, 0, smoke=True), out)
        send({"ready": True})
        send({"calibration": Calibration().run()})
        return
    if spec["mode"] == "list":
        for argv in spec["argvs"]:
            code = _run_report(cli, argv, out)
            send({"argv": argv, "code": code})
            wait_ack()
        return

    send({"provenance": _provenance()})
    _run_report(cli, workloads.report_argv(name, seed, 0, smoke), out)  # warm-up
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
    calibration = Calibration()
    measured = 0.0
    index = 0
    while measured < spec["seconds"] or index < spec["min_reports"]:
        # the counted reports of a traced run are the same whatever the seed,
        # so their counts repeat exactly from run to run
        counted = tracer is not None and index < spec["counted_reports"]
        argv = workloads.report_argv(name, 0 if counted else seed, index, smoke)
        for traced in (False, True) if tracer else (False,):
            calibrated = calibration.run()
            if traced:
                tracer.reset()
                tracer.install()
            start = perf_counter()
            code = _run_report(cli, argv, out)
            elapsed = perf_counter() - start
            message = {"argv": argv, "code": code, "seconds": elapsed, "traced": traced,
                       "members": members_per_report(cli, argv), "calibration": calibrated}
            if traced:
                tracer.uninstall()
                layers, violations = tracer.report_metrics()
                layers["cli.report_bytes"] = os.path.getsize(out) if os.path.exists(out) else 0
                message.update(layers=layers, violations=violations)
            measured += elapsed
            send(message)
            wait_ack()
        index += 1
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    send({"done": True, "peak_rss_kib": peak_rss_kib, "calibration": calibration.run()})


if __name__ == "__main__":
    main()
