"""Flat oracles: expected results computed from the generator's raw data.

Every expectation here is derived from ``CallRecord``/``PhoneInfo`` values (or
raw cube cells) with plain Python, never from engine output, and this module
imports neither ``graphoid.olap`` nor ``graphoid.metrics``.  Aggregates follow
the distributive/algebraic split of Gray et al., *Data Cube* (1997): SUM, MIN,
MAX and COUNT fold raw values once, AVG is SUM over COUNT of the raw values.

Each ``check_*`` function returns a list of problems; an empty list means the
engine output agrees with the oracle.
"""
from __future__ import annotations

import datetime
import math
from collections import Counter, deque
from itertools import combinations

MAX_REPORTED = 5

PHONE_ATTRIBUTES = {
    "Number": "number",
    "Customer": "customer",
    "City": "city",
    "Country": "country",
    "Operator": "operator",
}

TIME_BUCKETS = {
    "Day": lambda day: day,
    "Month": lambda day: f"{day.year:04d}-{day.month:02d}",
    "Year": lambda day: day.year,
    "All": lambda day: "all",
}


def phone_labels(phones: dict, level: str) -> dict:
    """Phone id -> its member at a level of the Phone dimension."""
    if level == "PhoneId":
        return {pid: pid for pid in phones}
    attribute = PHONE_ATTRIBUTES[level]
    return {pid: getattr(info, attribute) for pid, info in phones.items()}


def fold(fn: str, values: list):
    if fn == "SUM":
        return sum(values)
    if fn == "MIN":
        return min(values)
    if fn == "MAX":
        return max(values)
    if fn == "COUNT":
        return len(values)
    if fn == "AVG":
        return sum(values) / len(values)
    raise ValueError(f"unknown aggregate {fn!r}")


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and math.isclose(
            a, b, rel_tol=1e-12, abs_tol=1e-12
        )
    return a == b


def compare_maps(expected: dict, got: dict, what: str) -> list[str]:
    """Key-by-key comparison; floats agree to 12 significant digits."""
    problems = []
    for key in expected.keys() | got.keys():
        if key not in got:
            problems.append(f"{what}: missing {key!r}")
        elif key not in expected:
            problems.append(f"{what}: unexpected {key!r} = {got[key]!r}")
        elif not _same(expected[key], got[key]):
            problems.append(f"{what}: {key!r} expected {expected[key]!r}, got {got[key]!r}")
        if len(problems) >= MAX_REPORTED:
            break
    return problems


# ---------------------------------------------------------------------------
# roll-up, slice, group and drill-down totals

def rollup_totals(calls, phones: dict, phone_level: str, time_level: str, fn: str = "SUM") -> dict:
    """(caller members, participant members, time bucket) -> aggregate of durations."""
    label = phone_labels(phones, phone_level)
    bucket = TIME_BUCKETS[time_level]
    groups: dict[tuple, list] = {}
    for call in calls:
        key = (
            frozenset({label[call.caller]}),
            frozenset(label[p] for p in call.participants),
            bucket(call.start.date()),
        )
        groups.setdefault(key, []).append(call.duration)
    return {key: fold(fn, values) for key, values in groups.items()}


def graph_totals(g) -> tuple[dict, list[str]]:
    """An aggregated call graph as {(source members, target members, time): measure}.

    A node's member is its label slot 1.  Two edges with one key mean the
    classes were not merged, which is reported as a problem.
    """
    member = {ident: node.label[1] for ident, node in g.nodes.items()}
    totals: dict[tuple, object] = {}
    problems = []
    for e in g.edges:
        key = (
            frozenset(member[i] for i in e.source),
            frozenset(member[i] for i in e.target),
            e.label[0],
        )
        if key in totals:
            problems.append(f"edge class {key!r} appears twice")
        totals[key] = e.label[1]
    return totals, problems[:MAX_REPORTED]


def check_totals(g, expected: dict, what: str) -> list[str]:
    got, problems = graph_totals(g)
    return problems or compare_maps(expected, got, what)


def json_totals(doc: dict) -> tuple[dict, list[str]]:
    """The same key as ``graph_totals``, read from a graph's JSON document."""
    member = {row[1]: row[2] for row in doc["nodes"]}
    totals: dict[tuple, object] = {}
    problems = []
    for _etype, source, target, time_value, measure in doc["edges"]:
        key = (
            frozenset(member[i] for i in source),
            frozenset(member[i] for i in target),
            time_value,
        )
        if key in totals:
            problems.append(f"edge class {key!r} appears twice")
        totals[key] = measure
    return totals, problems[:MAX_REPORTED]


def check_json_totals(doc: dict, expected: dict, what: str) -> list[str]:
    got, problems = json_totals(doc)
    return problems or compare_maps(expected, got, what)


# ---------------------------------------------------------------------------
# edge bags: dice, strong dice, save and load

def call_key(call) -> tuple:
    return (frozenset({call.caller}), frozenset(call.participants), call.start.date(), call.duration)


def call_bag(calls) -> Counter:
    return Counter(call_key(c) for c in calls)


def graph_bag(g) -> Counter:
    return Counter((e.source, e.target) + tuple(e.label) for e in g.edges)


def json_bag(doc: dict) -> Counter:
    """A saved call graph's edges; days travel as ISO strings."""
    return Counter(
        (frozenset(source), frozenset(target), datetime.date.fromisoformat(day), duration)
        for _etype, source, target, day, duration in doc["edges"]
    )


def check_bag(got: Counter, expected: Counter, what: str) -> list[str]:
    if got == expected:
        return []
    missing = expected - got
    extra = got - expected
    return [
        f"{what}: {sum(missing.values())} edges missing, {sum(extra.values())} unexpected"
        f" (e.g. {next(iter(missing or extra))!r})"
    ]


def satisfies(call, phones: dict, on_call=None, on_phone=None) -> bool:
    """The dice rule for one atom: not false on the edge and on every adjacent node.

    ``on_call``/``on_phone`` are None where the atom has no slot on that side,
    which makes it "not false" there.
    """
    if on_call is not None and not on_call(call):
        return False
    if on_phone is not None:
        return all(on_phone(phones[p]) for p in (call.caller, *call.participants))
    return True


def dice_survivors(calls, phones: dict, on_call=None, on_phone=None) -> list:
    return [c for c in calls if satisfies(c, phones, on_call, on_phone)]


def s_dice_survivors(calls, phones: dict, on_call=None, on_phone=None) -> list:
    """Dice survivors minus those sharing an adjacency set with a removed call."""
    removed = {
        frozenset(c.group) for c in calls if not satisfies(c, phones, on_call, on_phone)
    }
    return [
        c
        for c in calls
        if satisfies(c, phones, on_call, on_phone) and frozenset(c.group) not in removed
    ]


# ---------------------------------------------------------------------------
# shortest paths and group averages

def phone_adjacency(calls, phones: dict) -> dict[int, set[int]]:
    """Two phones are adjacent when some call has both among its parties."""
    adj: dict[int, set[int]] = {pid: set() for pid in phones}
    for call in calls:
        for u, v in combinations(call.group, 2):
            adj[u].add(v)
            adj[v].add(u)
    return adj


def bfs(adj: dict[int, set[int]], root: int) -> dict[int, int]:
    dist = {root: 0}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def matching_phones(phones: dict, level: str | None = None, value=None) -> list[int]:
    """Sorted phone ids, optionally those whose member at ``level`` is ``value``."""
    if level is None:
        return sorted(phones)
    label = phone_labels(phones, level)
    return sorted(pid for pid in phones if label[pid] == value)


def distances(adj: dict[int, set[int]]) -> dict[int, dict[int, int]]:
    """Hop counts from every phone, by breadth-first search."""
    return {root: bfs(adj, root) for root in adj}


def check_paths(results, adj: dict[int, set[int]], dist: dict[int, dict[int, int]],
                sources: list[int], targets: list[int]) -> list[str]:
    """Pairs in (source, target) order, hop counts from an independent BFS
    (``dist``, from ``distances``), and every witness a real path of ``hops``
    steps between the pair."""
    expected_pairs = [(s, t) for s in sources for t in targets if s != t]
    got_pairs = [(r.source, r.target) for r in results]
    if got_pairs != expected_pairs:
        return [f"paths: {len(got_pairs)} pairs, expected {len(expected_pairs)} in (source, target) order"]
    problems = []
    for r in results:
        hops = dist[r.target].get(r.source, -1)
        if r.hops != hops:
            problems.append(f"paths {r.source}->{r.target}: {r.hops} hops, expected {hops}")
        elif hops < 0:
            if r.path:
                problems.append(f"paths {r.source}->{r.target}: unreachable pair has a path")
        elif (
            len(r.path) != hops + 1
            or r.path[0] != r.source
            or r.path[-1] != r.target
            or any(b not in adj[a] for a, b in zip(r.path, r.path[1:]))
        ):
            problems.append(f"paths {r.source}->{r.target}: {r.path} is not a {hops}-hop path")
        if len(problems) >= MAX_REPORTED:
            break
    return problems


def group_averages(calls, phones: dict, level: str, size: int) -> dict[frozenset, float]:
    """Average duration over every ``size``-subset of the distinct members a call touches."""
    label = phone_labels(phones, level)
    sums: dict[frozenset, int] = {}
    counts: dict[frozenset, int] = {}
    for call in calls:
        members = {label[p] for p in call.group}
        for combo in combinations(sorted(members, key=repr), size):
            key = frozenset(combo)
            sums[key] = sums.get(key, 0) + call.duration
            counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def check_group_averages(result: dict, g, expected: dict, what: str) -> list[str]:
    member = {ident: node.label[1] for ident, node in g.nodes.items()}
    got = {frozenset(member[i] for i in combo): avg for combo, avg in result.items()}
    if len(got) != len(result):
        return [f"{what}: two node groups share members"]
    return compare_maps(expected, got, what)


# ---------------------------------------------------------------------------
# cube trials

def cube_sum_totals(cube) -> dict[str, object]:
    """Total of each SUM measure over a cube's cells."""
    return {
        m.name: sum(values[j] for values in cube.cells.values())
        for j, m in enumerate(cube.measures)
        if m.agg == "SUM"
    }


def check_trial(cube, mismatches, result_cube) -> list[str]:
    """A trial must report no mismatches; a coarsened cube must keep the SUM totals.

    ``result_cube`` is the classical result of a roll-up, drill-down or
    slice, or None for a dice, which may drop cells.
    """
    if mismatches:
        return [f"trial: {m}" for m in list(mismatches)[:MAX_REPORTED]]
    if result_cube is None:
        return []
    return compare_maps(cube_sum_totals(cube), cube_sum_totals(result_cube), "SUM totals")
