"""Benchmark of the ``vomps`` command-line workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is ``src/vomps`` of the checkout that holds this
file; it is pure Python, so there is nothing to build.  Set-up runs in fresh
interpreters, so its time includes importing the CLI.  The workload's CLI
commands then run in this process through ``vomps.cli.main``, in passes,
until ``--seconds`` have elapsed (at least one pass).  Every pass checks
exit codes, the keys of each ``summary.json`` and the physics against the
workload's oracle (Onsager, exact diagonalization, the Schmidt baseline).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.  Its
times ``wall_s`` and ``setup_s`` are medians on the drift-corrected clock
of ``clock.py``; the plain wall times are printed next to them as
``raw_wall_s`` and ``raw_setup_s``.  ``--trace 1`` runs one untraced pass
and then traced passes, reports the per-layer metrics named there, and
fails the run when two traced passes disagree on any hardware-independent
count.  Every metric measured, the environment and (traced) the spans go
to ``.bench_out/<workload>-seed<N>-trace<T>[-spans].json``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys

BLAS_THREADS = "1"
# vomps.cli maps UMPS_THREADS onto these variables itself, but only after
# the package __init__ has imported numpy, too late for the BLAS pools; so
# they are set here, before anything imports numpy.
os.environ["UMPS_THREADS"] = BLAS_THREADS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUPS = 3            # set-ups per untraced run; setup_s is their median
TRACED_PASSES = 2     # their hardware-independent counts must agree
SETUP_TIMEOUT_S = 150

sys.path.insert(0, HERE)

from clock import DriftClock  # noqa: E402
from spans import Tracer, is_count, unit_of  # noqa: E402
from workloads import WORKLOADS, read_summaries  # noqa: E402

OPS = "truncation.vomps_truncate"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", metavar="DIR",
                   help="internal: write one instance's inputs and exit")
    return p.parse_args(argv)


def environment(args):
    import numpy
    import scipy

    def blas_version(mod):
        config = getattr(mod.__config__, "CONFIG", {})
        return config.get("Build Dependencies", {}).get("blas", {}).get(
            "version")

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas_version(numpy),
            "openblas_scipy": blas_version(scipy)}


def instance_dirs(work, k):
    return os.path.join(work, f"in{k}"), os.path.join(work, f"out{k}")


def timed_setup(workload, seed, inputs):
    """Set up one instance in a fresh interpreter.  Returns its normalized
    and its plain wall seconds, and an error message or None."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           workload.name, "--seed", str(seed), "--setup-into", inputs]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        seconds = time.perf_counter() - start
        return seconds, seconds, "set-up timed out"
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        return seconds, seconds, (f"set-up exited {proc.returncode}: "
                                  f"{proc.stderr[-2000:]}")
    # the child's clock covers all but interpreter start and the numpy
    # import; its measured speed rescales the whole set-up
    child = json.loads(proc.stdout)
    net = seconds - child["blocks_s"]
    return net * child["speed"], net, None


def setup_child(workload, seed, inputs):
    clock = DriftClock()
    with clock:
        import vomps.cli  # noqa: F401  (the import is part of set-up time)

        os.makedirs(inputs, exist_ok=True)
        if workload.setup is not None:
            with contextlib.redirect_stdout(sys.stderr):
                workload.setup(seed, inputs)
    print(json.dumps({"blocks_s": sum(clock.blocks), "speed": clock.speed}))
    return 0


def set_up(workload, seed, work, run, count):
    """Run `count` set-ups, cycling through the instances.  Returns their
    ``[normalized, plain]`` seconds; failures go to `run`."""
    times = []
    for j in range(count):
        k = j % workload.instances
        *seconds, error = timed_setup(workload,
                                      workload.instances * seed + k,
                                      instance_dirs(work, k)[0])
        times.append(seconds)
        if error:
            run.failures.append(error)
    return times


def run_pass(cli, workload, seed, work, clock):
    """Run every command of every instance once, timed by `clock`.
    Returns ``[(command, exit code or traceback)]``."""
    commands = []
    for k in range(workload.instances):
        inputs, out = instance_dirs(work, k)
        shutil.rmtree(out, ignore_errors=True)
        commands += workload.commands(workload.instances * seed + k,
                                      inputs, out)
    results = []
    with clock, contextlib.redirect_stdout(sys.stderr):
        for cmd in commands:
            try:
                code = cli.main(cmd.argv)
            except Exception:
                code = traceback.format_exc()
            results.append((cmd, code))
    return results


def check_pass(workload, results):
    """Correctness of one pass: ``(accuracy metrics, failure messages,
    number of failed commands)``."""
    failures = []
    failed_commands = 0
    for cmd, code in results:
        if code != 0:
            failed_commands += 1
            failures.append(f"{cmd.label}: "
                            + (f"exit code {code}" if isinstance(code, int)
                               else f"raised\n{code}"))
    summaries, bad = read_summaries([cmd for cmd, _ in results])
    failures += bad
    accuracy = {}
    if summaries:
        accuracy, bad = workload.accuracy(summaries)
        failures += bad
    return accuracy, failures, failed_commands


class Run:
    """Operation and correctness accounting across the passes of a run.

    An operation is one ``vomps_truncate`` call; it fails when it raises,
    does not converge or flags orthogonal states.  A command that raises
    or exits non-zero counts as one more failed operation.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.accuracy = {}

    def record(self, tracer, results):
        accuracy, failures, failed_commands = check_pass(self.workload,
                                                         results)
        counts = tracer.counts
        self.attempted += counts[f"{OPS}.calls"] + failed_commands
        self.failed += (counts[f"{OPS}.raised"] + counts[f"{OPS}.failed"]
                        + failed_commands)
        self.failures += failures
        self.accuracy = accuracy


def measure(args, workload, work, run):
    """Untraced passes for ``--seconds``: the end-to-end metrics."""
    setups = set_up(workload, args.seed, work, run,
                    max(SETUPS, workload.instances))
    import vomps.cli as cli

    clocks = []
    start = time.perf_counter()
    while not clocks or time.perf_counter() - start < args.seconds:
        clocks.append(DriftClock())
        with Tracer(select={OPS}) as ops:
            results = run_pass(cli, workload, args.seed, work, clocks[-1])
        run.record(ops, results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(c.normalized_s for c in clocks), "s"),
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "raw_wall_s": (statistics.median(c.net_s for c in clocks), "s"),
        "raw_setup_s": (statistics.median(s[1] for s in setups), "s")}
    return metrics, {"pass_wall_s": [c.net_s for c in clocks],
                     "pass_speed": [c.speed for c in clocks],
                     "setup_s": setups}


def measure_traced(args, workload, work, run):
    """One untraced pass, then traced passes: the per-layer metrics."""
    if workload.setup is not None:
        set_up(workload, args.seed, work, run, workload.instances)
    import vomps.cli as cli

    untraced = DriftClock(sample=False)
    with Tracer(select={OPS}) as ops:
        results = run_pass(cli, workload, args.seed, work, untraced)
    run.record(ops, results)
    passes, walls = [], []
    for _ in range(TRACED_PASSES):
        clock = DriftClock(sample=False)
        with Tracer() as tracer:
            results = run_pass(cli, workload, args.seed, work, clock)
        run.record(tracer, results)
        passes.append(tracer.metrics())
        walls.append(clock.net_s)
    first = passes[0]
    for other in passes[1:]:
        differ = sorted(k for k in first
                        if is_count(k) and first[k] != other.get(k))
        if differ:
            run.failures.append(
                "counts differ between traced passes of one seed: "
                + ", ".join(f"{k} {first[k]} vs {other.get(k)}"
                            for k in differ))
    first["trace.overhead_s"] = statistics.median(walls) - untraced.net_s
    metrics = {k: (v if is_count(k)
                   else statistics.median(p.get(k, v) for p in passes),
                   unit_of(k))
               for k, v in first.items()}
    return metrics, {"untraced_wall_s": untraced.net_s,
                     "traced_wall_s": walls,
                     "spans": tracer.span_records()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vomps", "cli.py")):
        print(f"error: no vomps sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    if args.setup_into:
        return setup_child(workload, args.seed, args.setup_into)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    named = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment(args)
    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    run = Run(workload)
    try:
        if args.trace:
            metrics, detail = measure_traced(args, workload, work, run)
        else:
            metrics, detail = measure(args, workload, work, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value!r} {unit}")
    for name, value in sorted(run.accuracy.items()):
        print(f"  {name} = {value!r} 1")
    print(f"  ops = {run.attempted} count")
    print(f"  ops_failed = {run.failed} count")
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    stem = os.path.join(
        OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    spans = detail.pop("spans", None)
    if spans is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": spans}, fh)
    wrong = [m["name"] for m in named
             if metrics.get(m["name"], (0, None))[1] != m["unit"]]
    if wrong:
        print(f"error: metrics not measured in the named unit: {wrong}",
              file=sys.stderr)
        return 3
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                      "unit": m["unit"]} for m in named}}
    with open(stem + ".json", "w") as fh:
        json.dump({"result": result, "environment": env,
                   "why": workload.why, "all_metrics": metrics,
                   "accuracy": run.accuracy, "failures": run.failures,
                   **detail}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
