"""Timed operations, their checks, and the rounds each workload repeats.

One caller runs a closed loop: each operation starts when the previous
one has returned. Only the call itself is timed; its answer is then
checked against ground truth computed without any index. Every round
attempts the same operations, so a run's failed share does not depend on
how many rounds fit in ``--seconds``.
"""
from __future__ import annotations

import copy
import time
from collections import defaultdict

import numpy as np

from inputs import K, QuerySet
from tracing import op_span

BASELINES = ("HRR", "KDB", "Grid")

# Operations per round of the read mix (``query``): each
# query runs on RSMI, on its exact variant RSMIa where one exists, and on
# every baseline; MOVES points are deleted and re-inserted.
POINTS, WINDOWS, KNNS, MOVES = 20, 10, 5, 5
# Per round of ``update`` besides the inserts and their lookups/deletes;
# every round runs its whole window and kNN pools, so the mean accesses of
# a run do not depend on how many rounds fit in it.
UPDATE_WINDOWS, UPDATE_KNNS, UPDATE_BASELINE_POINTS = 200, 100, 200


class Recorder:
    """Latency, block accesses and answer checks per operation type."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.lat_ns = defaultdict(list)
        self.accesses = defaultdict(list)
        self.results = defaultdict(int)
        self.hits = defaultdict(int)  # true results returned (recall)
        self.truth = defaultdict(int)
        self.round_baseline_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.bytes_per_point = None  # set where a round measures it
        self.overflow_blocks = None

    def call(self, key: str, index, fn, *args):
        """Time one operation; returns its answer, latency and accesses."""
        bf = index.bf
        with op_span(self.tracer, "op." + key):
            a0 = bf.accesses
            t0 = time.perf_counter_ns()
            out = fn(*args)
            t1 = time.perf_counter_ns()
            a1 = bf.accesses
        self.attempted += 1
        return out, t1 - t0, a1 - a0

    def ok(self, key: str, ns: int, acc: int, n_results: int = 0) -> None:
        self.lat_ns[key].append(ns)
        self.accesses[key].append(acc)
        self.results[key] += n_results

    def error(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)
        else:
            self.errors[-1] = f"... and more ({msg})"


def strict_route_misses(rsmi, x: float, y: float) -> bool:
    """True when the strict root-to-leaf descent for (x, y) predicts an
    inner group that has no child: the routing fault the README names."""
    node = rsmi.root
    while hasattr(node, "children"):
        node = node.children.get(node.route(x, y))
        if node is None:
            return True
    return False


# -- per-query checks ------------------------------------------------------

def check_point(rec: Recorder, key: str, got, want: int) -> bool:
    if got != want:
        rec.error(f"{key}: returned {got}, expected id {want}")
        return False
    return True


def check_window(rec, key, got: np.ndarray, truth: np.ndarray, exact: bool) -> None:
    got_s = np.unique(got)
    if len(got_s) != len(got):
        rec.error(f"{key}: duplicate ids in a window answer")
    extra = np.setdiff1d(got_s, truth, assume_unique=True)
    if extra.size:
        rec.error(f"{key}: {extra.size} false positives, e.g. id {extra[0]}")
    hit = np.intersect1d(got_s, truth, assume_unique=True).size
    if exact and hit != truth.size:
        rec.error(f"{key}: missed {truth.size - hit} of {truth.size} results")
    rec.hits[key] += hit
    rec.truth[key] += truth.size


def check_knn(rec, key, got: np.ndarray, truth_d: np.ndarray, q, coords, exact: bool) -> None:
    """Compared by distance, so that ties pass; ``coords`` maps id -> xy."""
    if len(got) != K or len(np.unique(got)) != K:
        rec.error(f"{key}: {len(got)} answers ({len(np.unique(got))} distinct), expected {K}")
        return
    if got.min() < 0 or got.max() >= len(coords):
        rec.error(f"{key}: unknown id in answer")
        return
    d = np.sort(np.hypot(coords[got, 0] - q[0], coords[got, 1] - q[1]))
    if exact and not np.array_equal(d, truth_d):
        rec.error(f"{key}: distances differ from brute force")
    rec.hits[key] += int(np.count_nonzero(d <= truth_d[-1]))
    rec.truth[key] += K


# -- the read mix (``query``) --------------------------------------------------

def _slice(pool, r: int, size: int):
    """The r-th run of ``size`` items of a pool, wrapping around."""
    return pool[(r * size + np.arange(size)) % len(pool)]


def window_knn(
    rec: Recorder, r: int, idx: dict, qs: QuerySet, coords, n_win: int, n_knn: int,
    knn_baselines=BASELINES,
) -> int:
    """The r-th slice of the window and kNN pools on RSMI, RSMIa and the
    baselines; returns the baselines' nanoseconds."""
    rsmi = idx["RSMI"]
    base_ns = 0
    for w in _slice(np.arange(len(qs.windows)), r, n_win):
        rect = tuple(map(float, qs.windows[w]))
        runs = [("RSMI.window", rsmi, rsmi.window_query, False),
                ("RSMIa.window", rsmi, rsmi.window_query_exact, True)]
        runs += [(f"{b}.window", idx[b], idx[b].window_query, True) for b in BASELINES]
        for key, index, fn, exact in runs:
            got, ns, acc = rec.call(key, index, fn, *rect)
            check_window(rec, key, got, qs.window_truth[w], exact)
            rec.ok(key, ns, acc, len(got))
            if index is not rsmi:
                base_ns += ns
    for q in _slice(np.arange(len(qs.knn_pts)), r, n_knn):
        x, y = map(float, qs.knn_pts[q])
        runs = [("RSMI.knn", rsmi, rsmi.knn_query, False),
                ("RSMIa.knn", rsmi, rsmi.knn_query_exact, True)]
        runs += [(f"{b}.knn", idx[b], idx[b].knn_query, True) for b in knn_baselines]
        for key, index, fn, exact in runs:
            got, ns, acc = rec.call(key, index, fn, x, y, K)
            check_knn(rec, key, got, qs.knn_truth[q], (x, y), coords, exact)
            rec.ok(key, ns, acc, len(got))
            if index is not rsmi:
                base_ns += ns
    return base_ns


def access_pass(rec: Recorder, rsmi, qs: QuerySet, coords) -> None:
    """Every pool query once on RSMI, checked. ``query`` takes its mean
    block accesses and recall from this pass, so they repeat exactly for
    a seed however many timed rounds a run fits."""
    for pid in qs.point_ids:
        x, y = coords[pid].tolist()
        got, ns, acc = rec.call("RSMI.point", rsmi, rsmi.point_query, x, y)
        if check_point(rec, "RSMI.point", got, int(pid)):
            rec.ok("RSMI.point", ns, acc, 1)
    for rect, truth in zip(qs.windows.tolist(), qs.window_truth):
        got, ns, acc = rec.call("RSMI.window", rsmi, rsmi.window_query, *rect)
        check_window(rec, "RSMI.window", got, truth, False)
        rec.ok("RSMI.window", ns, acc, len(got))
    for q, truth_d in zip(qs.knn_pts.tolist(), qs.knn_truth):
        got, ns, acc = rec.call("RSMI.knn", rsmi, rsmi.knn_query, *q, K)
        check_knn(rec, "RSMI.knn", got, truth_d, q, coords, False)
        rec.ok("RSMI.knn", ns, acc, len(got))


def read_round(rec: Recorder, r: int, idx: dict, writer, qs: QuerySet, coords, moves) -> None:
    """Round ``r`` of the read mix: the r-th slice of every query pool on
    every index, then MOVES delete + re-insert pairs on ``writer``, a copy
    of RSMI, so that reads always see the built layout."""
    rsmi = idx["RSMI"]
    base_ns = 0
    for pid in _slice(qs.point_ids, r, POINTS):
        x, y = coords[pid].tolist()
        for name, index in idx.items():
            got, ns, acc = rec.call(f"{name}.point", index, index.point_query, x, y)
            if check_point(rec, f"{name}.point", got, int(pid)):
                rec.ok(f"{name}.point", ns, acc, 1)
            if index is not rsmi:
                base_ns += ns
    base_ns += window_knn(rec, r, idx, qs, coords, WINDOWS, KNNS)
    for pid in _slice(moves, r, MOVES):
        x, y = coords[pid].tolist()
        got, ns, acc = rec.call("RSMI.delete", writer, writer.delete, x, y)
        if check_point(rec, "RSMI.delete", got, int(pid)):
            rec.ok("RSMI.delete", ns, acc)
        _, ns, acc = rec.call("RSMI.insert", writer, writer.insert, int(pid), x, y)
        rec.ok("RSMI.insert", ns, acc)
    rec.round_baseline_ns.append(base_ns)


# -- the write mix (``update``) ----------------------------------------------

def update_round(
    rec: Recorder, r: int, built, baselines: dict, ins_ids, order, qs: QuerySet, coords
):
    """One round of ``update`` on a fresh copy of the built RSMI: insert
    every new point (in ``order``), look each one up, query the grown
    set, then delete every inserted point. Returns the copy and the ids
    whose delete failed."""
    rsmi = copy.deepcopy(built)
    for i in order:
        x, y = coords[ins_ids[i]].tolist()
        _, ns, acc = rec.call("RSMI.insert", rsmi, rsmi.insert, int(ins_ids[i]), x, y)
        rec.ok("RSMI.insert", ns, acc)
    rec.bytes_per_point = rsmi.size_bytes() / rsmi.n_points
    rec.overflow_blocks = rsmi.bf.n_overflow

    def fault(key, pid, got, x, y) -> bool:
        """A failed lookup or delete counts as failed when it is the
        routing fault; any other wrong answer is a check failure."""
        if got is None and strict_route_misses(rsmi, x, y):
            rec.failed += 1
            return True
        check_point(rec, key, got, pid)
        return False

    for i in order:
        pid = int(ins_ids[i])
        x, y = coords[pid].tolist()
        got, ns, acc = rec.call("RSMI.point", rsmi, rsmi.point_query, x, y)
        if got == pid:
            rec.ok("RSMI.point", ns, acc, 1)
        else:
            fault("RSMI.point", pid, got, x, y)

    idx = {"RSMI": rsmi, **baselines}
    base_ns = 0
    for pid in ins_ids[order[:UPDATE_BASELINE_POINTS]]:
        x, y = coords[pid].tolist()
        for b in BASELINES:
            got, ns, acc = rec.call(f"{b}.point", idx[b], idx[b].point_query, x, y)
            if check_point(rec, f"{b}.point", got, int(pid)):
                rec.ok(f"{b}.point", ns, acc, 1)
            base_ns += ns
    # Grid's kNN is left out here: its cells cover the build bbox only, so
    # its MINDIST pruning is wrong for queries among points inserted past
    # that bbox, and it returns wrong neighbours on some seeds only.
    base_ns += window_knn(
        rec, r, idx, qs, coords, UPDATE_WINDOWS, UPDATE_KNNS, ("HRR", "KDB")
    )
    rec.round_baseline_ns.append(base_ns)

    failed_deletes = []
    for i in order:
        pid = int(ins_ids[i])
        x, y = coords[pid].tolist()
        got, ns, acc = rec.call("RSMI.delete", rsmi, rsmi.delete, x, y)
        if got == pid:
            rec.ok("RSMI.delete", ns, acc)
        elif fault("RSMI.delete", pid, got, x, y):
            failed_deletes.append(pid)
    return rsmi, failed_deletes
