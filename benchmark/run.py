"""arithdyn benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; arithdyn is imported from its `src/`.
With --trace 0 the run times whole rounds of the workload's ops for at least
S CPU seconds and reports the end-to-end metrics; with --trace 1 it runs a
fixed number of rounds under span tracing, so counts repeat exactly for a
seed, writes the spans to .bench_out/ and reports the per-layer metrics.
Either way each round's outputs are checked, off the clock, against
benchmark/reference.py, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Times are CPU seconds of the process doing the work, rescaled to a fixed
reference speed: the speed of this kind of shared machine swings by a
factor of two within minutes, and a fixed calibration loop run between
steps follows the swings (README, "Metrics").
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP threads at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import json
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 5

# CPU seconds the calibration loop takes at the reference speed, a fixed
# constant; between the steps of the runs behind the README's figures the
# loop took about 0.029 s.
CAL_REFERENCE_S = 0.032
_CAL_ITERATIONS = 200_000
_CAL_MATRICES = None


def calibration_seconds() -> float:
    """CPU time of a fixed mix of interpreted and LAPACK work."""
    global _CAL_MATRICES
    import numpy as np

    if _CAL_MATRICES is None:
        _CAL_MATRICES = np.random.default_rng(0).standard_normal((300, 4, 4))
    t0 = time.process_time()
    acc = 0
    for i in range(_CAL_ITERATIONS):
        acc += i * i % 7
    for _ in range(5):
        np.linalg.eigvals(_CAL_MATRICES)
    return time.process_time() - t0


class StepClock:
    """CPU time of the timed steps, and the same rescaled to the reference
    speed by the calibration runs just before and just after each step."""

    def __init__(self):
        self.cpu = 0.0
        self.scaled = 0.0
        self._cal = calibration_seconds()
        self._t0 = time.process_time()

    def step(self) -> None:
        """End the running step, calibrate off the clock, start the next."""
        t = time.process_time() - self._t0
        cal = calibration_seconds()
        self.cpu += t
        self.scaled += t * CAL_REFERENCE_S / (0.5 * (self._cal + cal))
        self._cal = cal
        self.resume()

    def resume(self) -> None:
        self._t0 = time.process_time()


def load_arithdyn():
    """Import arithdyn from the checkout's src/, never from elsewhere."""
    pkg = SRC / "arithdyn"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run from the root of an arithdyn checkout")
    sys.path.insert(0, str(SRC))
    import arithdyn

    if Path(arithdyn.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported arithdyn from {arithdyn.__file__}, not from {pkg}")
    return arithdyn


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class ReferenceProcess:
    """refworker.py in a child process; calling it runs fn(*args) there.
    Leaving the `with` block ends the child and waits for it."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "refworker.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )

    def __call__(self, fn, *args):
        pickle.dump((fn, args), self._proc.stdin)
        self._proc.stdin.flush()
        status, value = pickle.load(self._proc.stdout)
        if status != "ok":
            raise RuntimeError(f"reference check {fn.__name__} raised:\n{value}")
        return value

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self._proc.stdin.close()
        except BrokenPipeError:  # the worker died; it is reaped below
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def setup_seconds(workload: str) -> float:
    """Median CPU time, at the reference speed, of a fresh interpreter that
    imports arithdyn and finishes the workload's warm-up op."""
    times = []
    cal = calibration_seconds()
    for _ in range(SETUP_PROBES):
        t0 = _children_cpu()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        t = _children_cpu() - t0
        cal_after = calibration_seconds()
        times.append(t * CAL_REFERENCE_S / (0.5 * (cal + cal_after)))
        cal = cal_after
    return statistics.median(times)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    ad = load_arithdyn()
    make, warmup = WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(args.workload)

    # The reference checks run in their own process; its memory is not ours.
    with ReferenceProcess() as reference:
        wl = make(ad, args.seed, reference)
        warmup(ad)
        if args.trace:
            import tracing

            tracer = tracing.Tracer(tracing.OBSERVERS)
            tracing.install(tracer)

        attempted = failed = rounds = 0
        errors = []
        wall0 = time.perf_counter()
        clock = StepClock()
        while True:
            a, f, outputs = wl.run_round(rounds, clock.step)
            clock.step()
            errors += wl.check_round(rounds, outputs)
            attempted, failed, rounds = attempted + a, failed + f, rounds + 1
            if (rounds >= wl.trace_rounds) if args.trace else (clock.cpu >= args.seconds):
                break
            clock.resume()
        wall = time.perf_counter() - wall0
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    for line in getattr(wl, "unexpected", lambda: [])():
        print(f"note: {line}", file=sys.stderr)

    if args.trace:
        metrics = tracing.layer_metrics(tracer)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {
            "ops_per_s": {"value": attempted / clock.scaled, "unit": "ops/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {rounds} rounds, "
        f"{attempted} ops ({failed} failed) in {clock.cpu:.2f} CPU s, {clock.scaled:.2f} s at reference "
        f"speed, {wall:.2f} s wall with checks and calibration",
        file=sys.stderr,
    )
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
