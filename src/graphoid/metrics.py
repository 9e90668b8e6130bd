"""Graph-metric aggregation: co-occurrence projection and shortest paths.

The projection treats two nodes as adjacent when some hyperedge of the
selected types touches both, ignoring direction and multiplicity.  Shortest
paths are unweighted hop counts over that projection.  The witness reported
per endpoint pair is the lexicographically smallest shortest path; an
unreachable pair gets hops -1 and an empty path.

The projection and the group averages read the value's edge table
(``hypergraph.EdgeTable``), not its edge objects, and node filters and the
index read its node table, not its ``Node`` objects.  A node filter reads
its type's label columns: each clause is the conjunction of its atoms'
column tests (``olap.atom_test``, ``olap.all_of``), one pass per atom over
the type's nodes, and a node passes when some clause holds on it.  One
index of the graph value serves path queries, built on the first query
that needs it, once per set of edge types, and kept with that value
(``Graphoid.indexed``): each node's neighbours as one Python int, bit
``i`` standing for the ``i``-th node id in sorted order, the node table's
per-type id columns merged.  ``*``, an omitted type list and the full
list of declared types select the same set and share one entry.  A value derived from this one (by a dice, a roll-up, a node
deletion, ...) starts with no index and builds its own.  Distances and
paths are computed on every call.

Each target gets one top-down BFS, which grows each distance layer as a
bitset: the OR of the frontier's neighbour bits minus the nodes already
seen.  Every target's layers are computed first; rows are then emitted in
one pass, sources outer and targets inner.  A node's next hop is the lowest
set bit of its neighbour bitset AND the layer below: bit order is sorted id
order, so that is its smallest neighbour one hop closer, and a witness path
is the chain of next hops from its source down to the target.  The rows the
case-study graphs hold are written directly: a source in the target's first
layer gets ``(source, target)``, one in its second layer gets ``(source,
middle, target)`` with ``middle`` the lowest set bit of the two nodes'
common neighbours, which is the walk's one next hop.  Only rows three or
more hops apart walk the layers, and an unreachable pair gets hops -1 and
``()``.  Each row is a ``PathResult``, a named tuple that refuses
assignment, written inline by ``tuple.__new__`` from its four fields: one C
call per row and no Python frame.
"""
from __future__ import annotations

import csv
import io
import itertools
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Iterator, NamedTuple

from .dims import DimensionCatalog
from .hypergraph import Graphoid, GraphoidError
from .olap import Condition, TargetSet, all_of, atom_test, condition_problems


@dataclass(frozen=True)
class NodeFilter:
    """Selects nodes of one type, optionally narrowed by a condition."""

    ntype: str
    condition: Condition | None = None


class PathResult(NamedTuple):
    """One row of ``shortest_paths``: a tuple of its four fields, so it
    equals and unpacks as ``(source, target, hops, path)``; assigning to
    any attribute raises ``FrozenInstanceError``."""

    source: int
    target: int
    hops: int
    path: tuple[int, ...]

    @property
    def reachable(self) -> bool:
        return self.hops >= 0

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _edge_types(g: Graphoid, via) -> frozenset[str]:
    """The edge types ``via`` selects; unknown names are refused."""
    via = TargetSet.coerce(via)
    if via.is_wildcard:
        return frozenset(g.edge_types)
    for name in via.names:
        g.edge_type(name)
    return frozenset(via.names)


class _Bitsets(NamedTuple):
    order: tuple[int, ...]  # bit position -> node id, in sorted id order
    bit: dict[int, int]  # node id -> its own bit
    near: dict[int, int]  # node id -> the bits of its neighbours, its own bit clear


def _members(order: tuple[int, ...], bits: int) -> Iterator[int]:
    """The ids of the set bits of ``bits``, ascending, read lazily."""
    return (order[i] for i, c in enumerate(bin(bits)[:1:-1]) if c == "1")


def _build_bitsets(g: Graphoid, types: frozenset[str]) -> _Bitsets:
    """Each node's neighbours over the edges of ``types``, from each distinct adjacency set."""
    order = tuple(sorted(itertools.chain.from_iterable(rows.ids for rows in g.node_table.values())))
    bit = {v: 1 << i for i, v in enumerate(order)}
    near = dict.fromkeys(order, 0)
    table = g.edge_table
    sets = table.sets
    pairs = set(itertools.chain.from_iterable(
        zip(rows.sources, rows.targets) for name, rows in table.types.items() if name in types
    ))
    for adjacency in {sets[source] | sets[target] for source, target in pairs}:
        mask = sum(map(bit.__getitem__, adjacency))
        for v in adjacency:
            near[v] |= mask
    return _Bitsets(order, bit, {v: mask & ~bit[v] for v, mask in near.items()})


def _bitsets(g: Graphoid, types: frozenset[str]) -> _Bitsets:
    """The bitset index of ``g`` for the edge types ``types``, built on first use."""
    return g.indexed(("bitsets", types), lambda g: _build_bitsets(g, types))


def adjacency_projection(g: Graphoid, via="*") -> dict[int, tuple[int, ...]]:
    """Undirected simple graph over node ids; isolated nodes map to ().

    Each node's neighbour bitset in the index, decoded to ascending ids."""
    order, _, near = _bitsets(g, _edge_types(g, via))
    return {v: tuple(_members(order, bits)) for v, bits in near.items()}


def filter_problems(catalog: DimensionCatalog, flt: NodeFilter) -> list[str]:
    """Why a node filter is illegal in a catalog: its condition's problems,
    and each atom that names no level (node types hold no measures, so it
    could never match)."""
    if flt.condition is None:
        return []
    return condition_problems(catalog, flt.condition) + [
        f"filter atom {atom.dim} names no level" for atom in flt.condition.atoms() if atom.level is None
    ]


def _matching_nodes(g: Graphoid, flt: NodeFilter) -> list[int]:
    """The ids of the filter's type that satisfy its condition, ascending,
    read from the graph's node table.  Atoms are resolved on that type
    alone; ``atom_test`` refuses one below the stored level."""
    decl = g.node_type(flt.ntype)
    # the table leaves out a type without nodes: its columns are empty
    ids, columns = g.node_table.get(flt.ntype, ((), ((),) * decl.arity))
    if flt.condition is None:
        return list(ids)
    problems = filter_problems(g.catalog, flt)
    if problems:
        raise GraphoidError(problems[0])
    for atom in flt.condition.atoms():
        if decl.slot_of(atom.dim) is None:
            raise GraphoidError(f"filter atom {atom.dim} is absent from node type {flt.ntype}")
    clauses = [[atom_test(a, decl, g.levels, g.catalog) for a in clause] for clause in flt.condition.clauses]
    # an atomless clause holds on every node
    outcomes = [all_of(tests, columns) if tests else itertools.repeat(True) for tests in clauses]
    return list(itertools.compress(ids, map(any, zip(*outcomes))))


def shortest_paths(
    g: Graphoid,
    source_filter: NodeFilter,
    target_filter: NodeFilter,
    via="*",
) -> tuple[PathResult, ...]:
    """Hop counts and witness paths for every (source, target) pair, source != target.

    Unreachable pairs get hops -1 and an empty path.  Results are ordered by
    (source, target).  The witness is the lexicographically smallest shortest
    path: from ``v`` the next hop is ``v``'s smallest neighbour one layer
    closer, the lowest set bit of ``v``'s neighbour bitset AND that layer's
    bitset, and each pair's path is that chain walked down to the target.
    Distances come from a top-down bitset BFS per target on every call; it
    stops once every node is seen or a layer adds none.  Every target's
    layers are kept, then rows are built in one pass, sources outer and
    targets inner, so the layers of all targets are alive until the call
    returns.  One- and two-hop rows are written without a walk: the path is
    ``(source, target)``, or ``(source, middle, target)`` with ``middle``
    the lowest set bit of the source's neighbours AND the target's (its
    first layer).  Rows three or more hops apart walk the layers.  The
    neighbour bitsets come from ``g``'s index, built by the first call.
    """
    order, bit, near = _bitsets(g, _edge_types(g, via))
    everyone = (1 << len(order)) - 1
    sources = _matching_nodes(g, source_filter)
    searches: list[tuple[int, int, int, int, list[int]]] = []
    for target in _matching_nodes(g, target_filter):
        layers = [bit[target], near[target]]
        seen = layers[0] | layers[1]
        frontier = _members(order, layers[1])
        while seen != everyone:
            reach = 0
            for v in frontier:
                reach |= near[v]
            layer = reach & ~seen
            if not layer:
                break
            layers.append(layer)
            seen |= layer
            frontier = _members(order, layer)  # read only if this layer is expanded
        searches.append((target, layers[1], layers[2] if len(layers) > 2 else 0, seen, layers))
    rows: list[PathResult] = []
    append = rows.append
    new = tuple.__new__
    for source in sources:
        own = bit[source]
        mine = near[source]
        for target, one, two, seen, layers in searches:
            if own & one:
                append(new(PathResult, (source, target, 1, (source, target))))
                continue
            if own & two:
                step = mine & one
                append(new(PathResult, (source, target, 2, (source, order[(step & -step).bit_length() - 1], target))))
                continue
            if source == target:
                continue
            if not own & seen:
                append(new(PathResult, (source, target, -1, ())))
                continue
            hops = 3
            while not own & layers[hops]:
                hops += 1
            path = [source]
            cur = source
            for below in range(hops - 1, 0, -1):  # layer 0 holds only the target
                step = near[cur] & layers[below]
                cur = order[(step & -step).bit_length() - 1]
                path.append(cur)
            path.append(target)
            append(new(PathResult, (source, target, hops, tuple(path))))
    return tuple(rows)


def path_results_to_csv(results: Iterable[PathResult]) -> str:
    """CSV rows source,target,hops,path with the path joined by '/'."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["source", "target", "hops", "path"])
    for source, target, hops, path in results:
        writer.writerow([source, target, hops, "/".join(map(str, path))])
    return out.getvalue()


def path_results_to_rows(results: Iterable[PathResult]) -> list[dict]:
    return [
        {"source": source, "target": target, "hops": hops, "path": list(path)}
        for source, target, hops, path in results
    ]


def group_average(
    g: Graphoid,
    via,
    size: int,
    measure: str,
) -> dict[tuple[int, ...], float]:
    """Average of an edge measure over every ``size``-subset of co-participants.

    Every selected edge contributes its measure value to each subset of that
    many distinct adjacent nodes; groups are keyed by sorted node ids.  A
    measure rolled up above its bottom level is refused, and so is one that
    holds folded aggregates (a ``roll_up`` or ``slice_out`` with any
    aggregate), since an average of sums, counts or averages is not the
    average of the raw values.
    """
    if size < 1:
        raise GraphoidError("group size must be at least 1")
    types = _edge_types(g, via)
    table = g.edge_table
    measured = []  # each selected type's ends and measure values, in edge order
    for etype, (sources, targets, columns, _) in table.types.items():
        if etype not in types:
            continue
        slot = g.edge_types[etype].measure_slot_of(measure)
        if slot is None:
            raise GraphoidError(f"edge type {etype} has no measure {measure}")
        level = g.levels[(etype, slot)]
        if level != g.catalog.schema(measure).bottom:
            raise GraphoidError(
                f"measure {measure} of {etype} sits at level {level}; "
                "a group average needs its bottom-level values"
            )
        fold = g.folds.get((etype, slot))
        if fold is not None:
            raise GraphoidError(
                f"measure {measure} of {etype} holds {fold} aggregates; "
                "a group average needs the raw values"
            )
        measured.append(zip(sources, targets, columns[slot]))

    sets = table.sets
    sums: dict[tuple[int, ...], float] = {}
    counts: dict[tuple[int, ...], int] = {}
    for source, target, value in itertools.chain.from_iterable(measured):
        for combo in itertools.combinations(sorted(sets[source] | sets[target]), size):
            sums[combo] = sums.get(combo, 0) + value
            counts[combo] = counts.get(combo, 0) + 1
    return {combo: sums[combo] / counts[combo] for combo in sorted(sums)}
