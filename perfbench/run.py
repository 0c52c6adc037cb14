"""Benchmark of the oubv package: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of
one pass; passes start until their wall times add up to ``--seconds``),
``setup_s`` (median over SETUP_PROBES fresh processes of the time from
process start until ``oubv``, numpy and scipy are imported and the
workload's inputs are built) and ``peak_rss_mb`` (this process's peak
resident memory).

Both times are given at a reference host speed.  On a shared machine the
speed of one core drifts by a quarter or more over minutes, with CPU time
equal to wall time, so raw wall times of runs made minutes apart differ by
more than the regressions the benchmark must catch.  Every timed step (a
set-up probe or a pass) is therefore bracketed by measurements of a fixed
host kernel (``hostkernel.py``, in a helper process) that no change to
``oubv`` touches, and its wall time is scaled by REFERENCE_KERNEL_S over
the median of the host kernel's times just before and after it.  The
raw figures are on standard error, and ``--trace 1`` reports the raw pass
time and the kernel time as per-layer metrics.

``--trace 1`` runs one untraced pass, then one pass with every public
function of the traced layers wrapped in a span, writes the spans as JSONL
under ``perfbench/out/`` and reports the per-layer metrics, with the
tracing overhead as traced minus untraced pass time.

See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
# A scaled time is the time a step would take on a core that runs the host
# kernel (hostkernel.py) in REFERENCE_KERNEL_S, a round figure near the
# kernel's median time on the machine described in README.md.
REFERENCE_KERNEL_S = 0.1
# After each step the kernel is measured for this share of the step's time.
KERNEL_SHARE = 0.1

# One worker thread for the Monte Carlo chunks and for BLAS: results do not
# depend on the worker count, and one thread keeps a shared machine's
# figures steady.  Set before numpy is imported.
PINNED_ENV = {"OUBV_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _import_package():
    """Import numpy, scipy and oubv from this checkout; return seconds."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import oubv
    import oubv.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    origin = Path(oubv.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: imported oubv from {origin}, not from {SRC}")
    return elapsed


def _probe_setup(workload: str, seed: int) -> float:
    """Spawn a fresh process; time from spawn until it reports ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--probe-setup"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe exited {code} with {line!r}")
    return elapsed


class HostKernel:
    """A ``hostkernel.py`` process that times the host kernel on request."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostkernel.py")], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: host kernel exited {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _result(correct, attempted, failed, metrics):
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "oubv" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {workloads.NAMES}", file=sys.stderr)
        return 2

    import_s = _import_package()
    work = workloads.build(args.workload, args.seed)
    if args.probe_setup:
        print("ready", flush=True)
        return 0

    import oubv.cli
    references_s = time.perf_counter()
    workloads.references(work)
    references_s = time.perf_counter() - references_s

    def timed_pass():
        t0 = time.perf_counter()
        out = workloads.run_pass(work, oubv.cli.main)
        wall = time.perf_counter() - t0
        return wall, workloads.check(work, out)

    verdicts, walls = [], []
    if args.trace:
        import spans
        from oubv import analytic, cli, harness, simulate, specfun
        wall_plain, verdict = timed_pass()
        verdicts.append(verdict)
        tracer = spans.Tracer()
        tracer.install((specfun, analytic, simulate, harness, cli))
        try:
            wall_traced, verdict = timed_pass()
        finally:
            tracer.uninstall()
        verdicts.append(verdict)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        with HostKernel() as kernel:
            kernel_s = kernel.measure()
        metrics = spans.layer_metrics(tracer.summary(), import_s,
                                      wall_traced - wall_plain, wall_plain,
                                      kernel_s)
        walls = [wall_plain, wall_traced]
        print(f"spans written to {trace_path}", file=sys.stderr)
    else:
        with HostKernel() as kernel:
            kernels = [kernel.measure()]
            before = kernels[:]

            def at_reference_speed(raw: float) -> float:
                """Scale a step's wall time by the kernel times beside it.

                After a step the kernel is measured for KERNEL_SHARE of the
                step's time, at least once, so that a long step is matched
                by a long sample of the host's speed; the host's speed for
                the step is the median of the measurements before and
                after it.
                """
                nonlocal before
                after, t0 = [], time.perf_counter()
                while not after or time.perf_counter() - t0 < KERNEL_SHARE * raw:
                    after.append(kernel.measure())
                kernels.extend(after)
                speed = statistics.median(before + after)
                before = after
                return raw * REFERENCE_KERNEL_S / speed

            # Set-up probes go one before each pass, the rest after the
            # last, so they sample the machine's load over the whole run.
            setups, raw_walls = [], []
            while sum(raw_walls) < args.seconds:
                if len(setups) < SETUP_PROBES:
                    setups.append(at_reference_speed(
                        _probe_setup(args.workload, args.seed)))
                wall, verdict = timed_pass()
                raw_walls.append(wall)
                walls.append(at_reference_speed(wall))
                verdicts.append(verdict)
            while len(setups) < SETUP_PROBES:
                setups.append(at_reference_speed(
                    _probe_setup(args.workload, args.seed)))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak, "MiB")}
        print(f"raw pass wall times {[round(w, 3) for w in raw_walls]} s, "
              f"host kernel median {statistics.median(kernels):.4f} s",
              file=sys.stderr)

    problems = [p for v in verdicts for p in v.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for f in sorted({f for v in verdicts for f in v.failures})[:20]:
        print(f"operation failed: {f}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(walls)} passes "
          f"{[round(w, 3) for w in walls]} s, references {references_s:.2f} s",
          file=sys.stderr)
    result = _result(not problems, sum(v.attempted for v in verdicts),
                     sum(v.failed for v in verdicts), metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
