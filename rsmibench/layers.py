"""Per-layer metrics of a traced run, from its spans and counts.

Build-layer figures come from the serial build (``build.serial``): the
set-up build of ``update``, the reference build of ``query``. Spark
figures come from the median-time one of ``query``'s timed Spark builds
and read 0 on ``update``. Query-layer figures are per operation of the
named type.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from ops import BASELINES

SERIAL, SPARK = "build.serial", "build.spark"


def per_layer(tracer, rec, plain, info, slots: int) -> dict:
    """``rec`` holds the traced rounds, ``plain`` the untraced ones."""
    tot = tracer.totals()

    def incl(root, name):
        return tot[(root, name)][1] if (root, name) in tot else 0.0

    def calls(root, name):
        return tot[(root, name)][0] if (root, name) in tot else 0

    def ops(key):
        return calls("op." + key, "op." + key)

    def per_op(key, name):
        return incl("op." + key, name) / max(1, ops(key))

    def calls_per_op(key, name):
        return calls("op." + key, name) / max(1, ops(key))

    def levels(root):
        """Per level of the median-time build under ``root``: runner wall
        seconds and its task spans' seconds; and the build's time outside
        the runner."""
        tops = tracer.find(root, root)
        if not tops:
            return [], 0.0
        top = sorted(tops, key=lambda i: tracer.spans[i][2] - tracer.spans[i][1])[len(tops) // 2]
        runners = [i for i in range(top, len(tracer.spans))
                   if tracer.spans[i][3] == top and tracer.spans[i][0] == "core.runner"]
        walls = [(tracer.spans[i][2] - tracer.spans[i][1]) / 1e9 for i in runners]
        tasks = [tracer.children(i, "core.inner_task") + tracer.children(i, "core.leaf_task")
                 for i in runners]
        build = (tracer.spans[top][2] - tracer.spans[top][1]) / 1e9
        return list(zip(walls, tasks)), build - sum(walls)

    serial, driver_s = levels(SERIAL)
    spark, _ = levels(SPARK)
    # Spark overhead per level: wall time minus the ideal time of the same
    # tasks (timed in the serial build) on the available slots.
    overhead = sum(
        wall - max(max(tasks, default=0.0), sum(tasks) / slots)
        for (wall, _), (_, tasks) in zip(spark, serial)
    )

    def lvl(lv, i):
        return lv[i][0] if i < len(lv) else 0.0

    rsmi_roots = [r for r, n in tot if n == r and r.startswith("op.RSMI.")]
    p1 = sum(incl(r, "ml.predict_one") for r in rsmi_roots)
    n1 = sum(calls(r, "ml.predict_one") for r in rsmi_roots)
    root_span = tracer.find(SERIAL, SERIAL)
    route_s = sum(tracer.children(root_span[0], "ml.predict")) if root_span else 0.0
    exact = ("RSMIa.window", "RSMIa.knn")
    mbr_calls = sum(
        calls("op." + k, n) for k in exact for n in ("geo.v_intersects", "geo.v_mindist")
    )
    st = info["structure"]

    def recall(key):
        return rec.hits[key] / rec.truth[key] if rec.truth[key] else 0.0

    m = {
        "ml.fit_s": (incl(SERIAL, "ml.fit"), "s"),
        "ml.fit_calls": (calls(SERIAL, "ml.fit"), "count"),
        "ml.fit_row_epochs": (tracer.counts[(SERIAL, "fit.row_epochs")], "count"),
        "ml.predict_s": (route_s, "s"),
        "ml.pmf_s": (incl(SERIAL, "ml.pmf"), "s"),
        "ml.predict_one_s": (p1 / max(1, n1), "s/call"),
        "ml.predict_one_per_point": (calls_per_op("RSMI.point", "ml.predict_one"), "calls/op"),
        "ml.predict_one_per_window": (calls_per_op("RSMI.window", "ml.predict_one"), "calls/op"),
        "ml.predict_one_per_knn": (calls_per_op("RSMI.knn", "ml.predict_one"), "calls/op"),
        "ml.predict_one_per_insert": (calls_per_op("RSMI.insert", "ml.predict_one"), "calls/op"),
        "core.level0_s": (lvl(serial, 0), "s"),
        "core.level1_s": (lvl(serial, 1), "s"),
        "core.inner_task_s": (incl(SERIAL, "core.inner_task"), "s"),
        "core.leaf_task_s": (incl(SERIAL, "core.leaf_task"), "s"),
        "core.grid_cells_s": (incl(SERIAL, "core.grid_cells"), "s"),
        "core.driver_s": (driver_s, "s"),
        "core.leaves": (st["leaves"], "count"),
        "core.empty_groups": (st["empty_groups"], "count"),
        "core.err_l_max": (st["err_l_max"], "blocks"),
        "core.err_a_max": (st["err_a_max"], "blocks"),
        "core.err_range_mean": (st["err_range_mean"], "blocks"),
        "core.window_candidates_per_result": (
            tracer.counts[("op.RSMI.window", "candidates")]
            / max(1, rec.results["RSMI.window"]),
            "ratio",
        ),
        "core.exact_window_accesses": (statistics.fmean(rec.accesses["RSMIa.window"]), "blocks/op"),
        "core.exact_knn_accesses": (statistics.fmean(rec.accesses["RSMIa.knn"]), "blocks/op"),
        "spark.level0_s": (lvl(spark, 0), "s"),
        "spark.level1_s": (lvl(spark, 1), "s"),
        "spark.level1_tasks": (len(serial[1][1]) if spark and len(serial) > 1 else 0, "count"),
        "spark.overhead_s": (overhead, "s"),
        "spark.session_s": (info.get("spark_session_s", 0.0), "s"),
        "spark.warmup_s": (info.get("spark_warmup_s", 0.0), "s"),
        "geo.rank_order_s": (incl(SERIAL, "geo.rank_order"), "s"),
        "geo.mbr_calls": (mbr_calls / max(1, sum(ops(k) for k in exact)), "calls/op"),
        "storage.pack_s": (incl(SERIAL, "storage.pack"), "s"),
        "storage.find_s": (per_op("RSMI.point", "storage.find"), "s/op"),
        "storage.insert_into_s": (per_op("RSMI.insert", "storage.insert_into"), "s/op"),
        "storage.delete_from_s": (per_op("RSMI.delete", "storage.delete_from"), "s/op"),
        "storage.overflow_blocks": (rec.overflow_blocks, "count"),
        "storage.overflow_reads_per_point": (
            tracer.counts[("op.RSMI.point", "overflow_reads")] / max(1, ops("RSMI.point")),
            "blocks/op",
        ),
        "baselines.knn_rounds": (
            calls("op.RSMI.knn", "core.window_query_blocks")
            / max(1, calls("op.RSMI.knn", "baselines.expansion_knn")),
            "windows/op",
        ),
        "baselines.knn_candidates_per_result": (
            tracer.counts[("op.RSMI.knn", "candidates")] / max(1, rec.results["RSMI.knn"]),
            "ratio",
        ),
        "baselines.knn_recall": (recall("RSMI.knn"), "ratio"),
    }
    for b in BASELINES:
        for q in ("point", "window", "knn"):
            key = f"{b}.{q}"
            lat, acc = rec.lat_ns.get(key), rec.accesses.get(key)  # no Grid kNN on update
            m[f"baselines.{key}_us"] = (statistics.median(lat) / 1e3 if lat else 0.0, "us")
            m[f"baselines.{key}_accesses"] = (statistics.fmean(acc) if acc else 0.0, "blocks/op")
    # Tracer overhead: typical (median) latency summed over the operation
    # types, traced rounds against the untraced rounds of the same run.
    keys = [k for k in rec.lat_ns if rec.lat_ns[k] and plain.lat_ns.get(k)]
    traced = sum(statistics.median(rec.lat_ns[k]) for k in keys)
    untraced = sum(statistics.median(plain.lat_ns[k]) for k in keys)
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.overhead_pct"] = (100 * (traced / untraced - 1) if untraced else 0.0, "%")
    return m


def print_self_times(tracer, top: int = 20) -> None:
    """The spans with the most self time, summed over the whole run."""
    by_name: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for (_, name), (calls, _, self_s) in tracer.totals().items():
        by_name[name][0] += calls
        by_name[name][1] += self_s
    print(f"  self time by span name, top {top}: calls, seconds")
    for name, (calls, self_s) in sorted(by_name.items(), key=lambda kv: -kv[1][1])[:top]:
        print(f"    {name:<28} {calls:>9} {self_s:>10.3f}")
