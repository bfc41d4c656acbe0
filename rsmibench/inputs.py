"""Benchmark inputs and their ground truth, computed without any index.

The indexed data set and the points the ``update`` workload inserts are
drawn from fixed data seeds, so every run builds the same index and the
insert-routing fault (see README) fails on the same inserts whatever
``--seed`` is. ``--seed`` draws the query pools and the insert order.

Ground truth never touches an index under test: windows come from one
DuckDB range join over the raw points, kNN from numpy brute force, and a
point lookup's answer is the queried point's own id.
"""
from __future__ import annotations

from dataclasses import dataclass

import duckdb
import numpy as np
import pandas as pd

DATA_SEED = 20_200_811  # the indexed points
INSERT_SEED = 20_200_812  # the points ``update`` inserts
OUTSIDE_SHARE = 0.05  # share of inserts that land outside the build bbox
WINDOW_AREA = 1e-4  # 0.01% of the unit square, the paper's default
K = 25  # the paper's default k


def skewed(n: int, rng: np.random.Generator) -> np.ndarray:
    """The paper's Skewed set: uniform x, uniform y raised to the 4th."""
    return np.stack([rng.random(n), rng.random(n) ** 4], axis=1)


def data_points(n: int) -> np.ndarray:
    return skewed(n, np.random.default_rng(DATA_SEED))


def insert_points(m: int) -> np.ndarray:
    """``m`` new Skewed points; the last ``OUTSIDE_SHARE`` of them lie up
    to 10% past the unit square's right or top edge (data growing past
    its first extent)."""
    rng = np.random.default_rng(INSERT_SEED)
    xy = skewed(m, rng)
    n_out = int(round(m * OUTSIDE_SHARE))
    out = xy[m - n_out :]
    east = np.arange(n_out) % 2 == 0
    out[east, 0] = 1.0 + 0.1 * rng.random(east.sum())
    out[~east, 1] = 1.0 + 0.1 * rng.random((~east).sum())
    return xy


@dataclass
class QuerySet:
    """Query pools with their expected answers.

    ``point_ids`` index rows of the point table; ``windows`` are
    ``(xlo, ylo, xhi, yhi)``; ``window_truth[i]`` is the sorted id array
    of window ``i``; ``knn_truth[i]`` holds the ``K`` smallest distances
    from ``knn_pts[i]``."""

    point_ids: np.ndarray
    windows: np.ndarray
    window_truth: list
    knn_pts: np.ndarray
    knn_truth: np.ndarray


def stratified(xy: np.ndarray, count: int, rng: np.random.Generator, outside=None) -> np.ndarray:
    """``count`` distinct rows in random order, one drawn from each of
    ``count`` equal strata: the points (those flagged ``outside`` the
    build bbox last) are cut into about sqrt(count) equal columns by x
    and ordered by y within a column, so each stratum is a compact region
    holding 1/count of the points. Every pool then follows the data
    distribution closely, sparse regions included, and runs with other
    seeds see pools of the same make-up."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    n = len(xy)
    col = np.empty(n, dtype=np.int64)
    col[np.argsort(xy[:, 0], kind="stable")] = np.arange(n) * max(1, int(np.sqrt(count))) // n
    flag = np.zeros(n, dtype=bool) if outside is None else outside
    order = np.lexsort((xy[:, 1], col, flag))
    edges = np.arange(count + 1) * n // count
    pick = edges[:-1] + (rng.random(count) * np.diff(edges)).astype(np.int64)
    return rng.permutation(order[pick])


def window_pool(xy: np.ndarray, count: int, rng: np.random.Generator, outside=None) -> np.ndarray:
    """Square windows of ``WINDOW_AREA`` centred on sampled points."""
    c = xy[stratified(xy, count, rng, outside)]
    h = np.sqrt(WINDOW_AREA) / 2
    return np.stack([c[:, 0] - h, c[:, 1] - h, c[:, 0] + h, c[:, 1] + h], axis=1)


def duckdb_window_truth(ids: np.ndarray, xy: np.ndarray, windows: np.ndarray) -> list:
    """Ids inside each closed window, from one DuckDB range join."""
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 1")
        con.register("p", pd.DataFrame({"id": ids, "x": xy[:, 0], "y": xy[:, 1]}))
        con.register(
            "w",
            pd.DataFrame(
                {
                    "qid": np.arange(len(windows)),
                    "xlo": windows[:, 0],
                    "ylo": windows[:, 1],
                    "xhi": windows[:, 2],
                    "yhi": windows[:, 3],
                }
            ),
        )
        got = con.execute(
            "SELECT w.qid, p.id FROM w JOIN p"
            " ON p.x BETWEEN w.xlo AND w.xhi AND p.y BETWEEN w.ylo AND w.yhi"
            " ORDER BY w.qid, p.id"
        ).fetchnumpy()
    finally:
        con.close()
    qid = np.asarray(got["qid"], dtype=np.int64)
    pid = np.asarray(got["id"], dtype=np.int64)
    cuts = np.searchsorted(qid, np.arange(len(windows) + 1))
    return [pid[cuts[i] : cuts[i + 1]] for i in range(len(windows))]


def brute_knn_dists(xy: np.ndarray, pts: np.ndarray, k: int) -> np.ndarray:
    """``(len(pts), k)`` sorted distances to the k nearest points."""
    out = np.empty((len(pts), k))
    for i, (x, y) in enumerate(pts):
        d = np.hypot(xy[:, 0] - x, xy[:, 1] - y)
        out[i] = np.sort(np.partition(d, k - 1)[:k])
    return out


def query_set(
    ids: np.ndarray,
    xy: np.ndarray,
    rng: np.random.Generator,
    n_points: int,
    n_windows: int,
    n_knn: int,
    outside=None,
) -> QuerySet:
    """Pools drawn from the data distribution (centres are data points),
    with ground truth over ``(ids, xy)``; ``outside`` flags the points
    past the build bbox, which get their share of every pool."""
    windows = window_pool(xy, n_windows, rng, outside)
    knn_pts = xy[stratified(xy, n_knn, rng, outside)]
    return QuerySet(
        point_ids=ids[stratified(xy, n_points, rng, outside)],
        windows=windows,
        window_truth=duckdb_window_truth(ids, xy, windows),
        knn_pts=knn_pts,
        knn_truth=brute_knn_dists(xy, knn_pts, K),
    )
