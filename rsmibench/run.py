"""RSMI benchmark: query and update workloads, end to end and per layer.

Run from the repository root:

    python3 rsmibench/run.py --workload query --seed 1 --seconds 10 --trace 0
    python3 rsmibench/run.py --smoke        # every workload at test scale

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Lines before it list every metric by name and unit, and each latency's
sample count and tail. See rsmibench/README.md for the workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path.cwd() / "src"
WORK = Path.cwd() / ".bench_build" / "rsmibench"
WORKLOADS = ("query", "update")


def pin_environment() -> None:
    """One BLAS thread (trained weights, hence block accesses, repeat only
    at a fixed thread count), the program from this checkout's ``src``
    for the driver and Spark's Python workers, temp files in WORK."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload (or --workload) at test scale, 1 s each")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not (SRC / "repro" / "core" / "rsmi.py").is_file():
        print(f"rsmibench: no program source at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    pin_environment()
    import workload

    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
        ok = True
        for w in [args.workload] if args.workload else WORKLOADS:
            out = workload.run_workload(w, args, workload.SMOKE)
            print(json.dumps(out))
            ok &= out["correct"]
        return 0 if ok else 1
    out = workload.run_workload(args.workload, args, workload.FULL)
    sys.stdout.flush()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
