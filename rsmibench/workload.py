"""The two workloads, their set-up and checks, and the end-to-end report.

Imported by run.py after it has pinned the environment (one BLAS thread,
the program from this checkout's ``src``), so numpy is imported here.
"""
from __future__ import annotations

import copy
import gc
import os
import shlex
import statistics
import subprocess
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

WORK = Path.cwd() / ".bench_build" / "rsmibench"
SPARK_SLOTS = 4
# One Spark build's wall time swings by about a fifth between runs on a
# shared 4-vCPU machine; build_s is the median (here: mean) of this many
# builds. More would not fit the run-time budget of a comparison.
SPARK_BUILDS = 2


@dataclass(frozen=True)
class Scale:
    n: int
    B: int
    N: int
    epochs_leaf: int
    epochs_inner: int
    point_pool: int
    window_pool: int
    knn_pool: int
    move_pool: int


# Paper parameters (B = 100, N = 10,000, epochs 500/150) at n = 20,000;
# the smoke scale is the unit tests' (n = 3,000, B = 20, N = 500).
FULL = Scale(20_000, 100, 10_000, 500, 150, 2_000, 1_000, 500, 20)
SMOKE = Scale(3_000, 20, 500, 120, 80, 300, 200, 100, 10)


def rsmi_params(scale: Scale):
    from repro.core.rsmi import RSMIParams

    return RSMIParams(
        B=scale.B,
        N=scale.N,
        curve="hilbert",
        epochs_leaf=scale.epochs_leaf,
        epochs_inner=scale.epochs_inner,
        lr=0.05,
        seed=0,
        max_depth=12,
        gamma=100,
    )


# -- Spark ---------------------------------------------------------------------

def start_spark():
    slots = min(SPARK_SLOTS, os.cpu_count() or 1)
    tmp = os.environ["TMPDIR"]
    # -XX:-UsePerfData: the JVM would otherwise write to /tmp/hsperfdata_*.
    java_opts = shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{slots}] --driver-memory 2g "
        f"--driver-java-options {java_opts} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={shlex.quote(tmp)} "
        f"--conf spark.sql.warehouse.dir={shlex.quote(str(WORK / 'warehouse'))} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("rsmibench")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait until the JVM (and with it the Python
    workers it started) has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)
    SparkContext._gateway = None
    SparkContext._jvm = None


# -- building --------------------------------------------------------------------

def build_rsmi(ids, xy, params, runner, tracer, name: str):
    from repro.core.rsmi import RSMI
    from tracing import op_span

    if tracer is not None:
        runner = tracer.wrap_runner(runner)
    with op_span(tracer, name):
        t0 = time.perf_counter()
        index = RSMI(params).build(ids, xy, runner=runner)
        return index, time.perf_counter() - t0


def build_baselines(ids, xy, B: int) -> dict:
    from repro.baselines.grid_file import GridFile
    from repro.baselines.kdb_tree import KDBTree
    from repro.baselines.rtree import HRRTree

    return {c.name: c(cap=B).build(ids, xy) for c in (HRRTree, KDBTree, GridFile)}


def structure(rsmi) -> dict:
    """Shape and error bounds of a freshly built RSMI."""
    leaves, empty, stack = [], 0, [rsmi.root]
    while stack:
        node = stack.pop()
        if hasattr(node, "children"):
            empty += node.C - len(node.children)
            stack.extend(node.children.values())
        else:
            leaves.append(node)
    pts = sum(lf.n_points for lf in leaves) or 1
    return {
        "leaves": len(leaves),
        "empty_groups": empty,
        "err_l_max": max(lf.err_l for lf in leaves),
        "err_a_max": max(lf.err_a for lf in leaves),
        "err_range_mean": sum(
            min(lf.nblk, lf.err_l + lf.err_a + 1) * lf.n_points for lf in leaves
        )
        / pts,
    }


def layout(rsmi):
    """Block layout: ids, coordinates and points per primary block."""
    ids, xs, ys = rsmi.bf.all_points()
    return ids, xs, ys, [b.count for b in rsmi.bf.blocks]


def check_stored_once_and_found(rec, rsmi, ids, xy) -> None:
    live = np.sort(rsmi.bf.all_points()[0])
    if not np.array_equal(live, np.sort(ids)):
        rec.error("RSMI: stored ids differ from the input ids")
    lost = [int(i) for i, (x, y) in zip(ids, xy.tolist()) if rsmi.point_query(x, y) != i]
    if lost:
        rec.error(f"RSMI: {len(lost)} input points not found, e.g. id {lost[0]}")


# -- workloads ---------------------------------------------------------------------

def settle() -> None:
    """Collect set-up garbage and freeze what survives, so the cyclic
    collector's passes during timing do not scale with set-up objects."""
    gc.collect()
    gc.freeze()


def recorder_for(recs: list, tracer, r: int):
    """A traced run alternates traced rounds (``recs[0]``) with untraced
    ones (``recs[1]``), which measure the tracer's overhead."""
    if tracer is not None:
        tracer.on = r % len(recs) == 0
    return recs[r % len(recs)]


def read_rounds(recs, tracer, idx, writer, qs, coords, moves, seconds: float):
    """Untimed warm-up and access pass, then whole rounds for ``seconds``;
    returns the timed seconds and the access pass's recorder.

    The warm-up moves every point of the move pool once: a re-insert
    lands in the block the model predicts, so the first move of a point
    may add an overflow block and later moves do not, and the timed
    rounds see the same layout however many of them run."""
    from ops import Recorder, access_pass, read_round

    if tracer is not None:
        tracer.on = False
    warm, probe = Recorder(), Recorder()
    for pid in moves:
        x, y = coords[pid].tolist()
        if writer.delete(x, y) != pid:
            warm.error(f"RSMI.delete: lost id {pid} in warm-up")
        writer.insert(int(pid), x, y)
    read_round(warm, 0, idx, writer, qs, coords, moves)
    access_pass(probe, idx["RSMI"], qs, coords)
    recs[0].errors += warm.errors + probe.errors
    settle()
    t0 = time.perf_counter()
    r = 0
    while r < len(recs) or time.perf_counter() - t0 < seconds:
        read_round(recorder_for(recs, tracer, r), r, idx, writer, qs, coords, moves)
        r += 1
    return time.perf_counter() - t0, probe


def run_query(args, scale: Scale, tracer, recs: list) -> dict:
    """Build RSMI with the Spark runner in a warmed session, SPARK_BUILDS
    times (timed), stop Spark, run the read mix on the last index, then
    check every Spark build against a serial build."""
    import inputs
    from repro.core.rsmi import serial_runner
    from repro.core.rsmi_spark import spark_runner
    from tracing import install, op_span

    info: dict = {}
    t0 = time.perf_counter()
    spark = None
    if tracer is not None:
        # Spark ships the task functions to its workers by reference;
        # traced stand-ins would not resolve there, so the driver's layer
        # functions stay untraced until Spark has stopped.
        tracer.unpatch()
    try:
        with op_span(tracer, "setup.spark_session"):
            t = time.perf_counter()
            spark = start_spark()
            info["spark_session_s"] = time.perf_counter() - t
        with op_span(tracer, "setup.spark_warmup"):
            t = time.perf_counter()
            # Two small two-level builds start the Python workers and
            # compile the job's code paths; training length is moot.
            wxy = inputs.skewed(2_000, np.random.default_rng(0))
            warm = replace(rsmi_params(SMOKE), epochs_leaf=10, epochs_inner=10)
            for _ in range(2):
                build_rsmi(np.arange(2_000), wxy, warm, spark_runner(spark), None, "warmup")
            info["spark_warmup_s"] = time.perf_counter() - t
        with op_span(tracer, "setup.inputs"):
            xy = inputs.data_points(scale.n)
            ids = np.arange(scale.n, dtype=np.int64)
            rng = np.random.default_rng(args.seed)
            qs = inputs.query_set(ids, xy, rng, scale.point_pool, scale.window_pool, scale.knn_pool)
            moves = rng.choice(scale.n, scale.move_pool, replace=False)
        with op_span(tracer, "setup.baselines"):
            idx = build_baselines(ids, xy, scale.B)
        info["setup_s"] = time.perf_counter() - t0
        params = rsmi_params(scale)
        spark_built, seconds = [], []
        for _ in range(SPARK_BUILDS):
            rsmi, dt = build_rsmi(ids, xy, params, spark_runner(spark), tracer, "build.spark")
            spark_built.append(layout(rsmi))
            seconds.append(dt)
        info["build_s"] = statistics.median(seconds)
    finally:
        # No JVM or Spark worker runs while queries are timed.
        if spark is not None:
            stop_spark(spark)
        if tracer is not None:
            install(tracer)
    rec = recs[0]
    # The serial build for the layout check runs before the reads, which
    # so start well after the Spark JVM and its workers have exited.
    ref, _ = build_rsmi(ids, xy, params, serial_runner, tracer, "build.serial")
    serial_layout = layout(ref)
    for built in spark_built:
        if not all(np.array_equal(a, b) for a, b in zip(built, serial_layout)):
            rec.error("query: Spark and serial builds have different block layouts")
    del ref, spark_built

    info["structure"] = structure(rsmi)
    rec.bytes_per_point = rsmi.size_bytes() / rsmi.n_points
    writer = copy.deepcopy(rsmi)
    idx = {"RSMI": rsmi, **idx}
    info["timed_s"], info["counted"] = read_rounds(
        recs, tracer, idx, writer, qs, xy, moves, args.seconds
    )
    rec.overflow_blocks = writer.bf.n_overflow
    if tracer is not None:
        tracer.on = False
    check_stored_once_and_found(rec, rsmi, ids, xy)
    check_stored_once_and_found(rec, writer, ids, xy)
    return info


def run_update(args, scale: Scale, tracer, recs: list) -> dict:
    """Insert 50% new points (5% past the build bbox) into a copy of the
    built index, look each up, query the grown set, delete them all."""
    import inputs
    from ops import UPDATE_KNNS, UPDATE_WINDOWS, update_round
    from repro.core.rsmi import serial_runner
    from tracing import op_span

    info: dict = {}
    t0 = time.perf_counter()
    with op_span(tracer, "setup.inputs"):
        xy = inputs.data_points(scale.n)
        ids = np.arange(scale.n, dtype=np.int64)
        m = scale.n // 2
        coords = np.concatenate([xy, inputs.insert_points(m)])
        ins_ids = np.arange(scale.n, scale.n + m, dtype=np.int64)
    rsmi, info["build_s"] = build_rsmi(
        ids, xy, rsmi_params(scale), serial_runner, tracer, "build.serial"
    )
    info["structure"] = structure(rsmi)
    with op_span(tracer, "setup.baselines"):
        baselines = build_baselines(ids, xy, scale.B)
        for b in baselines.values():
            for pid, (x, y) in zip(ins_ids, coords[ins_ids].tolist()):
                b.insert(int(pid), x, y)
    with op_span(tracer, "setup.inputs"):
        rng = np.random.default_rng(args.seed)
        all_ids = np.arange(len(coords), dtype=np.int64)
        outside = (coords[:, 0] > xy[:, 0].max()) | (coords[:, 1] > xy[:, 1].max())
        qs = inputs.query_set(all_ids, coords, rng, 0, UPDATE_WINDOWS, UPDATE_KNNS, outside)
        order = rng.permutation(m)
    info["setup_s"] = time.perf_counter() - t0

    settle()
    t0 = time.perf_counter()
    r = 0
    while r < len(recs) or time.perf_counter() - t0 < args.seconds:
        rec = recorder_for(recs, tracer, r)
        grown, failed_deletes = update_round(rec, r, rsmi, baselines, ins_ids, order, qs, coords)
        r += 1
    rec = recs[0]
    info["timed_s"] = time.perf_counter() - t0
    info["counted"] = recs[0]  # every round runs whole pools
    if tracer is not None:
        tracer.on = False
    live = np.sort(grown.bf.all_points()[0])
    if not np.array_equal(live, np.sort(np.concatenate([ids, failed_deletes]))):
        rec.error("update: live set is not the original points plus failed deletes")
    return info


# -- reporting ---------------------------------------------------------------------

def tail(ns: list) -> tuple[float, float]:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = (50.0, statistics.median(ns))
    srt = sorted(ns)
    for p in (90.0, 99.0, 99.9):
        if len(ns) * (1 - p / 100) >= 10:
            best = (p, srt[min(len(srt) - 1, int(len(srt) * p / 100))])
    return best


def end_to_end(rec, info) -> dict:
    def us(key):
        return statistics.median(rec.lat_ns[key]) / 1e3

    counted = info["counted"]

    def acc(key):
        return statistics.fmean(counted.accesses[key])

    return {
        "setup_s": (info["setup_s"], "s"),
        "build_s": (info["build_s"], "s"),
        "index_bytes_per_point": (rec.bytes_per_point, "bytes"),
        "point_us": (us("RSMI.point"), "us"),
        "window_us": (us("RSMI.window"), "us"),
        "knn_us": (us("RSMI.knn"), "us"),
        "exact_window_us": (us("RSMIa.window"), "us"),
        "exact_knn_us": (us("RSMIa.knn"), "us"),
        "baseline_query_s": (statistics.median(rec.round_baseline_ns) / 1e9, "s"),
        "insert_us": (us("RSMI.insert"), "us"),
        "delete_us": (us("RSMI.delete"), "us"),
        "point_accesses": (acc("RSMI.point"), "blocks/op"),
        "window_accesses": (acc("RSMI.window"), "blocks/op"),
        "knn_accesses": (acc("RSMI.knn"), "blocks/op"),
        "window_recall": (counted.hits["RSMI.window"] / counted.truth["RSMI.window"], "ratio"),
    }


def print_report(title: str, rec, metrics: dict) -> None:
    print(f"== {title}: attempted {rec.attempted}, failed {rec.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    print("  latency per operation: samples, median us, tail")
    for key in sorted(k for k, ns in rec.lat_ns.items() if ns):
        ns = rec.lat_ns[key]
        p, v = tail(ns)
        print(f"    {key:<14} n={len(ns):<7} median={statistics.median(ns) / 1e3:<10.2f}"
              f" p{p:g}={v / 1e3:.2f}")
    for msg in rec.errors:
        print(f"  CHECK FAILED: {msg}")


def run_workload(workload: str, args, scale: Scale) -> dict:
    from ops import Recorder
    from tracing import Tracer, install

    tracer = Tracer() if args.trace else None
    recs = [Recorder(tracer)]
    if tracer is not None:
        recs.append(Recorder())
        install(tracer)
    try:
        run = run_update if workload == "update" else run_query
        info = run(args, scale, tracer, recs)
    finally:
        if tracer is not None:
            tracer.unpatch()
    rec = recs[0]
    metrics = end_to_end(rec, info)
    if tracer is not None:
        import layers

        print_report(f"{workload}, traced rounds", rec, metrics)
        print_report(f"{workload}, untraced rounds", recs[1], {})
        layers.print_self_times(tracer)
        metrics = layers.per_layer(tracer, rec, recs[1], info, SPARK_SLOTS)
        tracer.write(WORK / f"spans-{workload}-{args.seed}.tsv")
    print_report(workload, rec, metrics)
    errors = [msg for r in recs for msg in r.errors]
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in recs),
        "failed": sum(r.failed for r in recs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
