#!/usr/bin/env python3
"""riterp benchmark entry point.

    python3 benchmarks/run.py --workload scan-exact --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one process each

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from site-packages. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people and carry the environment stamp. Scratch
inputs live under ``.bench_work/`` in the checkout and are removed at
exit; the full result (and, traced, the spans) stays there as JSON.
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

#: criterion 7's budget is single-threaded: cap numpy's BLAS/OpenMP pools
#: before numpy is first imported
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
os.environ.update(THREAD_CAPS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("scan-exact", "scan-quant", "sweep-synth")


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a
    git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(src: Path) -> str:
    """sha256 over the package sources, naming the code under test where
    there is no git commit."""
    digest = hashlib.sha256()
    for path in sorted((src / "riterp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
        "git_commit": git_commit(ROOT),
        "src_sha256": src_digest(SRC),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="recompute reference_seed0.json from the current sources and exit")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to it."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "riterp" / "__init__.py").is_file():
        print(f"error: no riterp sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all" and not args.record_reference:
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import harness  # imports numpy, scipy and riterp

    import_s = time.perf_counter() - START
    import riterp
    if Path(riterp.__file__).resolve().parent != (SRC / "riterp").resolve():
        print(f"error: riterp imported from {riterp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_work"
    work = scratch / f"tmp-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.record_reference:
            ref = harness.record_reference(harness.DEFAULT_SEED, work)
            harness.REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            print(f"wrote {harness.REFERENCE_FILE}")
            return 0
        workload = harness.WORKLOADS[args.workload]
        reference = harness.load_reference(workload, args.seed)
        spans = None
        if args.trace:
            result, spans = harness.run_traced(workload, args.seed, args.seconds, work, reference)
        else:
            result = harness.run_timed(workload, args.seed, args.seconds, work, import_s, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stamp = env_stamp()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": stamp, **result.summary(), "details": result.details}
    (scratch / f"result-{tag}.json").write_text(json.dumps(full, indent=1) + "\n")
    if spans is not None:
        with open(scratch / f"spans-{tag}.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    print(f"riterp benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(stamp))
    for name, (value, unit) in result.metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:34s} {shown} {unit}")
    d = result.details
    if not args.trace:
        print(f"  scan_ms_tail is p{d['scan_ms_tail_percentile']:g} of "
              f"{d['scan_ms_samples']} samples; setup_s is the median of {len(d['setup_s_all'])}")
    print(f"  {'error_rate':34s} {d['error_rate']:14.6g} ({result.failed}/{result.attempted} cells failed)")
    for problem in d["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
