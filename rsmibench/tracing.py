"""Outside-in tracing for the ``--trace 1`` run.

The tracer wraps public functions of each layer from here, without
editing the program: it swaps module and class attributes for wrappers
that record a span (name, start, end, parent) and, for some calls, a
count taken from the result. Spans stay in memory and are written out
when the run ends. Every span also carries the name of its top-level
span (an operation such as ``op.rsmi.point`` or a phase such as
``build.serial``), so per-layer figures can be taken per operation type.

Spark tasks run in worker processes, which import the program afresh
and so cannot see the wrappers; the wrappers are also taken off while
Spark runs, because the workers import the task functions by name. Of a
Spark build only the runner call per level is traced; per-task times of
a Spark level are not seen.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, root]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.on = True

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else name
        self.spans.append([name, time.perf_counter_ns(), 0, parent, root])
        i = len(self.spans) - 1
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def count(self, i: int, key: str, value: float) -> None:
        self.counts[(self.spans[i][4], key)] += value

    # -- patching ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.
        ``counter(args, kwargs, result)`` returns ``{key: value}`` to add."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if counter is not None:
                for key, v in counter(args, kwargs, out).items():
                    tracer.count(i, key, v)
            return out

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def wrap_runner(self, runner):
        """The build runner, one span per level."""

        def traced(tasks, params):
            with self.span("core.runner"):
                return runner(tasks, params)

        return traced

    # -- aggregation -------------------------------------------------------
    def durations(self):
        """Per span: inclusive and self seconds (self = inclusive minus
        the time its child spans cover)."""
        incl = [(s[2] - s[1]) / 1e9 for s in self.spans]
        self_t = list(incl)
        for s, d in zip(self.spans, incl):
            if s[3] >= 0:
                self_t[s[3]] -= d
        return incl, self_t

    def totals(self):
        """``(root, name) -> [calls, inclusive s, self s]``."""
        incl, self_t = self.durations()
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        for s, a, b in zip(self.spans, incl, self_t):
            row = out[(s[4], s[0])]
            row[0] += 1
            row[1] += a
            row[2] += b
        return out

    def children(self, parent: int, name: str) -> list[float]:
        return [
            (s[2] - s[1]) / 1e9
            for s in self.spans
            if s[3] == parent and s[0] == name
        ]

    def find(self, name: str, root: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name and s[4] == root]

    def write(self, path: Path) -> None:
        """Spans as tab-separated rows: name, start_ns, end_ns, parent
        row (-1 for a top-level span), top-level span name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\troot\n")
            for s in self.spans:
                f.write("\t".join(map(str, s)) + "\n")


def op_span(tracer: Tracer | None, name: str):
    """Top-level span for one timed operation, or nothing when untraced."""
    return tracer.span(name) if tracer is not None and tracer.on else _NULL


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    # rsmi_spark binds the task functions by name when first imported; it
    # must bind the untraced ones, which are what its workers can import.
    from repro.core import rsmi, rsmi_spark  # noqa: F401
    from repro.geo import mbr
    from repro.ml import mlp
    from repro.storage import blocks

    tracer.wrap(rsmi, "run_inner_task", "core.inner_task")
    tracer.wrap(rsmi, "run_leaf_task", "core.leaf_task")
    tracer.wrap(rsmi, "grid_cell_values", "core.grid_cells")
    tracer.wrap(rsmi, "rank_space_order_np", "geo.rank_order")
    tracer.wrap(rsmi, "PiecewiseCDF", "ml.pmf")
    tracer.wrap(rsmi, "expansion_knn", "baselines.expansion_knn")
    tracer.wrap(
        rsmi.RSMI,
        "window_query_blocks",
        "core.window_query_blocks",
        lambda a, kw, out: {"candidates": len(out[0])},
    )
    tracer.wrap(
        mlp.MLP,
        "fit",
        "ml.fit",
        lambda a, kw, out: {"fit.row_epochs": len(a[1]) * kw["epochs"]},
    )
    tracer.wrap(mlp.MLP, "predict", "ml.predict")
    tracer.wrap(mlp.MLP, "predict_one", "ml.predict_one")
    tracer.wrap(blocks.BlockFile, "pack", "storage.pack")
    tracer.wrap(
        blocks.BlockFile,
        "chain",
        "storage.chain",
        lambda a, kw, out: {"overflow_reads": len(out) - 1},
    )
    tracer.wrap(blocks.BlockFile, "insert_into", "storage.insert_into")
    tracer.wrap(blocks.BlockFile, "delete_from", "storage.delete_from")
    tracer.wrap(blocks.Block, "find", "storage.find")
    tracer.wrap(mbr, "v_intersects", "geo.v_intersects")
    tracer.wrap(mbr, "v_mindist", "geo.v_mindist")
