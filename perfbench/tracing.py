"""Span tracing around the calls into each graphoid module, from outside it.

``Tracer.install`` replaces selected public functions (and three hot
methods) with wrappers that time every call.  Each call is a span with a
name, a start, an end and the span that caused it; a span's self time is its
duration minus the time its child spans cover.  Self times, call counts and
a few work counters are summed per phase; every span except the per-value
leaves (see ``LEAVES``), up to ``MAX_KEPT``, is also kept in memory and
written out at the end.
Nothing under ``src/`` is changed: the wrappers are swapped into the module
namespaces, so calls between graphoid modules are traced too.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# module -> the functions wrapped in it; a dotted name is a method of a class.
TRACED = {
    "dims": ("DimensionCatalog.roll", "DimensionSchema.reachable_from", "validate_instance"),
    "hypergraph": ("build_graphoid", "Graphoid.derive"),
    "olap": (
        "climb", "minimize", "group", "aggr", "roll_up", "drill_down",
        "dice", "s_dice", "slice_out", "n_delete", "edge_satisfies",
    ),
    "metrics": ("adjacency_projection", "shortest_paths", "group_average"),
    "store": (
        "generate", "graphoid_to_json", "save_json", "load_json",
        "graphoid_from_json", "load_dimension", "instance_to_json",
    ),
    "gql": ("parse", "check", "eval_program"),
    "cli": ("main", "cmd_query"),
    "cubes": (
        "build_cube", "star", "unstar", "cube_roll_up", "cube_slice", "cube_dice",
        "check_equivalence", "random_catalog", "random_cube", "random_op",
    ),
}

# The trace file holds at most this many spans; later ones are only summed.
MAX_KEPT = 100_000

# Called once per label value: counted and timed, but not kept as single spans.
LEAVES = frozenset(
    {"dims.roll", "dims.reachable_from", "hypergraph.derive", "olap.edge_satisfies"}
)


class Tracer:
    """Collects spans from the wrapped functions; one per process."""

    def __init__(self) -> None:
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._layer_depth: Counter = Counter()
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()

    def reset(self) -> None:
        """Start a new phase: forget the sums, keep the spans."""
        self.calls = Counter()
        self.self_ns = Counter()
        self.counters = Counter()

    def snapshot(self) -> dict[str, Counter]:
        return {"calls": self.calls, "self_ns": self.self_ns, "counters": self.counters}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Swap the wrappers in wherever a graphoid module holds the originals."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "graphoid"]
        for short, attributes in TRACED.items():
            module = sys.modules[f"graphoid.{short}"]
            for attribute in attributes:
                name = f"{short}.{attribute.split('.')[-1]}"
                if "." in attribute:
                    cls_name, method = attribute.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    self._swap(owner, method, self.wrap(name, original))
                    continue
                original = getattr(module, attribute)
                wrapped = self.wrap(name, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._swap(holder, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _swap(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn):
        layer = name.split(".")[0]
        keep = name not in LEAVES
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            outermost = self._layer_depth[layer] == 0
            frame = [span_id, 0]
            stack.append(frame)
            self._layer_depth[layer] += 1
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                self._layer_depth[layer] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if keep and len(self.spans) < MAX_KEPT:
                    self.spans.append((span_id, parent, name, start, end))
                if hook is not None:
                    hook(self.counters, args, result, outermost)

        return traced

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                    "spans": self.spans,
                    "leaves_not_kept": sorted(LEAVES),
                    "spans_not_kept": self._next_id - 1 - len(self.spans),
                },
                fh,
            )
            fh.write("\n")


# -- work counters recorded at the same boundaries -----------------------------

def _count_olap_edges(counters: Counter, args, result, outermost: bool) -> None:
    """Edges into and out of each outermost olap operation."""
    if not outermost or result is None:
        return
    counters["olap.edges_in"] += len(args[0].edges)
    counters["olap.edges_out"] += len(result.edges)


def _count_paths(counters: Counter, args, result, outermost: bool) -> None:
    if result is None:
        return
    counters["metrics.path_rows"] += len(result)
    counters["metrics.path_hops"] += sum(r.hops for r in result if r.hops > 0)


def _count_json_bytes(counters: Counter, args, result, outermost: bool) -> None:
    target = args[1] if len(args) > 1 else None
    if isinstance(target, str) and os.path.exists(target):
        counters["store.json_bytes"] += os.path.getsize(target)


HOOKS = {
    **{
        f"olap.{op}": _count_olap_edges
        for op in ("climb", "minimize", "group", "aggr", "roll_up", "drill_down", "dice", "s_dice", "slice_out", "n_delete")
    },
    "metrics.shortest_paths": _count_paths,
    "store.save_json": _count_json_bytes,
}
