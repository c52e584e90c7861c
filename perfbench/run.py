"""Benchmark of setgen's set-generation pipeline, stage by stage.

    python3 perfbench/run.py --workload task2-seqsets --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout.  Each run starts one fresh worker
process (``worker.py``) that imports the library from ``src/``, so nothing
needs installing, and then two set-up-only ones for the median set-up
time.  With ``--trace 0`` the last line of output holds the end-to-end
metrics; with ``--trace 1`` the library's public functions are wrapped and
the last line holds the per-layer metrics.  Full results,
including the environment, output-check details and set quality, go to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("task2-seqsets", "threshold-labels")
DEADLINE_S = 170.0  # a run ends within 180 s
SETUP_REPEATS = 2  # set-up-only processes after the workload process; setup_s is the median


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread per process: see "BLAS threads" in README.md.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


class Worker:
    """The worker process, whose marker lines are timestamped on arrival.

    A reader thread timestamps each line as it arrives, so the main thread
    can wait for the next line with a timeout and kill a worker that hangs.
    """

    def __init__(self, args, deadline: float, setup_only: bool = False):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
        self.deadline = deadline
        self.marks: dict[str, float] = {}
        self.last = ""
        self._lines: queue.Queue = queue.Queue()
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=child_env(), cwd=ROOT)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put((time.perf_counter(), line.rstrip("\n")))
        self._lines.put(None)

    def finish(self) -> int:
        """Read output to the end, timestamp markers, reap the process.

        Raises TimeoutError, after killing the process, past the deadline.
        """
        try:
            while True:
                try:
                    item = self._lines.get(timeout=max(0.0, self.deadline - time.perf_counter()))
                except queue.Empty:
                    raise TimeoutError("run exceeded its deadline") from None
                if item is None:
                    break
                arrived, line = item
                if line == "SETUP_DONE":
                    self.marks[line] = arrived - self.t0
                elif line:
                    self.last = line
            return self.proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._reader.join()
            self.proc.stdout.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "setgen" / "__init__.py").is_file():
        print(f"error: no setgen sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S

    try:
        worker = Worker(args, deadline)
        code = worker.finish()
        if code != 0 or "SETUP_DONE" not in worker.marks:
            print(f"error: workload process exited with {code}", file=sys.stderr)
            return 1
        # More set-ups, a run's length after the first, so that the median
        # does not rest on one moment of a machine whose speed drifts.
        setups = [worker.marks["SETUP_DONE"]]
        for _ in range(0 if args.trace else SETUP_REPEATS):
            again = Worker(args, deadline, setup_only=True)
            if again.finish() != 0 or "SETUP_DONE" not in again.marks:
                print("error: set-up-only process failed", file=sys.stderr)
                return 1
            setups.append(again.marks["SETUP_DONE"])
    except TimeoutError as exc:
        print(f"error: {exc} ({DEADLINE_S:.0f} s)", file=sys.stderr)
        return 1
    doc = json.loads(worker.last)
    doc["setup_samples_s"] = setups
    setup_s = statistics.median(setups)

    # One pass of the pipeline: set-up, then each repeated stage (train,
    # calibrate, a decode round, scoring) at its median over the run.
    stages = {name: statistics.median(v) for name, v in doc["stages_s"].items()}
    total_s = setup_s + sum(stages[name] for name in ("train", "calibrate", "decode", "score"))
    if args.trace:
        values = dict(doc["layers"], **{"trace.total_s": total_s})
    else:
        values = {
            "setup_s": setup_s,
            "train_s": stages["train"],
            "calibrate_s": stages["calibrate"],
            "decode_samples_per_s": doc["decode"]["samples_per_s"],
            "decode_sample_ms_p50": doc["decode"]["ms_p50"],
            "decode_sample_ms_p95": doc["decode"]["ms_p95"],
            "total_s": total_s,
            "peak_rss_mb": doc["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    verdict = doc["checks"]
    correct = not verdict["problems"] and verdict["checked"] > 0
    doc["metrics"] = metrics

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")

    for problem in verdict["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {verdict['checked']} decodes checked, {verdict['unchecked']} unchecked "
          f"(near a cut or dropped branches); quality: {json.dumps(doc['quality'])}")
    print(f"env: {json.dumps(doc['env'])}; details in {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
