"""Benchmark of the pgroupcert certifier.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the library is imported from
./src, never from an installed copy.  It sets the workload up, repeats the
workload's fixed batch of operations for about S seconds, checks every
result, prints each metric by name with its unit together with the
correctness gate, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
spends half its time untraced and half with every library layer wrapped in
spans, and reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median with the run's own
MIN_PASSES = 2  # every input is produced at least twice, so digests can be compared

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("produce_s", "s"),
    ("verify_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def prepare_environment() -> None:
    """Import the library from ./src only, with numpy's thread pools pinned to the usable CPUs."""
    if not os.path.isfile(os.path.join(SRC, "pgroupcert", "__init__.py")):
        sys.exit(f"perfbench: no library source at {os.path.join('src', 'pgroupcert')}; run from a checkout root")
    threads = str(len(os.sched_getaffinity(0)))
    for name in THREAD_VARIABLES:
        os.environ[name] = threads
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)


def timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - start
    library = sys.modules.get("pgroupcert")
    if library is None or not os.path.abspath(library.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: pgroupcert was not imported from ./src")
    return seconds


def probe_setups(args: argparse.Namespace, workdir: str) -> list[float]:
    """Set the workload up again in fresh processes; each prints its own set-up seconds."""
    from workloads import run_child

    out = os.path.join(workdir, "probe.txt")
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        code, _rss = run_child(argv, out, timeout=120)
        with open(out, encoding="utf-8") as handle:
            lines = handle.read().split()
        if code != 0 or not lines:
            sys.exit(f"perfbench: set-up probe failed with status {code}")
        times.append(float(lines[-1]))
    return times


def run_passes(workload, ledger, passes: int) -> list[float]:
    """Run ``passes`` passes of the workload's batch; returns their wall times."""
    walls: list[float] = []
    for _ in range(passes):
        ledger.passes.append([])
        began = time.perf_counter()
        workload.run_pass(ledger)
        walls.append(time.perf_counter() - began)
    ledger.walls.extend(walls)
    return walls


def provenance(args: argparse.Namespace) -> dict:
    def git(*command: str) -> str | None:
        try:
            done = subprocess.run(["git", *command], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # A checkout without its own .git is not a repository, whatever encloses it.
    commit = git("rev-parse", "HEAD") if os.path.exists(os.path.join(ROOT, ".git")) else None
    status = git("status", "--porcelain") if commit else None
    source = hashlib.sha256()
    package = os.path.join(SRC, "pgroupcert")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    numpy = sys.modules.get("numpy")
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": args.seed,
        "workloads": [args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    prepare_environment()

    import gate
    import layers
    import spans
    from workloads import WORKLOADS

    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_main = timed_setup(workload)
        if args.probe_setup:
            print(repr(setup_main))
            return 0
        ledger = gate.Ledger()
        # A fixed number of passes, so every run does the same work and pools
        # the same number of latencies, however fast the host runs.
        passes = max(MIN_PASSES, int(args.seconds / workload.pass_seconds))
        if args.trace:
            untraced = run_passes(workload, ledger, passes // 2)
            tracer = ledger.tracer = spans.Tracer()
            if workload.in_process:
                layers.install(tracer)
            else:
                workload.traced = True
            traced = run_passes(workload, ledger, passes - passes // 2)
            tracer.uninstall()
            overhead = statistics.median(traced) / statistics.median(untraced)
            import_s = getattr(workload, "import_s", [])
            metrics = layers.per_layer_metrics(tracer, len(traced), import_s, overhead)
            units = dict(layers.PER_LAYER)
            tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
        else:
            run_passes(workload, ledger, passes)
            metrics, (percentile, samples) = ledger.end_to_end()
            metrics["setup_s"] = statistics.median([setup_main, *probe_setups(args, workdir)])
            if workload.in_process:
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            else:
                peak_kib = workload.peak_rss_kib
            metrics["peak_rss_mb"] = peak_kib / 1024
            units = dict(END_TO_END)
            metrics = {name: metrics[name] for name, _unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = ledger.attempted
    failed = len(ledger.failures)
    g = ledger.gate
    walls = " ".join(f"{w:.3f}" for w in ledger.walls)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} pass walls (s): {walls}")
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{percentile:.1f} of {samples} operations)"
        print(f"  {name:46s} {value:.6g} {units[name]}{note}")
    print(f"  {'failed_ratio':46s} {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    print(
        "gate: verdicts {}/{} as expected; negative controls {}/{} rejected; "
        "documents with a JSON float {} of {}; repeated digests {}/{} identical".format(
            g["verdicts_ok"], g["verdicts"], g["controls_ok"], g["controls"],
            g["float_documents"], g["documents"],
            g["digest_repeats"] - g["digest_mismatches"], g["digest_repeats"],
        )
    )
    for failure in ledger.failures[:20]:
        print(f"FAILED {failure}")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    result = {
        "correct": failed == 0 and g["digest_repeats"] > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
