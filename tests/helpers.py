"""Random value generators and independent oracles shared across the tests.

Everything is driven by an explicit random.Random so each test controls its
seed; nothing here touches module-level RNG state.
"""
from __future__ import annotations

import datetime
import itertools
import random

from graphoid.cubes import CubeMeasure, build_cube, random_catalog
from graphoid.dims import DimensionCatalog, DimensionInstance, DimensionSchema, Level
from graphoid.gql import (
    AggrOp,
    Atom,
    BoolAnd,
    BoolAtom,
    BoolNot,
    BoolOr,
    ClimbOp,
    Condition,
    DiceOp,
    DrilldownOp,
    EdgifyOp,
    GroupOp,
    Load,
    MinimizeOp,
    NdeleteOp,
    NodeFilter,
    Program,
    Ref,
    RollupOp,
    SdiceOp,
    ShortestPathsOp,
    SliceOp,
    Statement,
    TargetSet,
)
from graphoid.dims import RollupStep
from graphoid.hypergraph import EdgeTypeDecl, Graphoid, NodeTypeDecl, build_graphoid

AGG_CHOICES = ("SUM", "MIN", "MAX", "COUNT")


# ---------------------------------------------------------------------------
# random dimensions / graphoids

def random_schema(rng: random.Random, name: str = "Dim") -> DimensionSchema:
    """A linear or diamond-shaped hierarchy with typed levels."""
    if rng.random() < 0.3:
        # diamond: Bottom -> {Left, Right} -> Top -> All
        levels = (Level(f"{name}Bot"), Level(f"{name}Left"), Level(f"{name}Right"),
                  Level(f"{name}Top"), Level("All", ordered=False))
        edges = ((f"{name}Bot", f"{name}Left"), (f"{name}Bot", f"{name}Right"),
                 (f"{name}Left", f"{name}Top"), (f"{name}Right", f"{name}Top"),
                 (f"{name}Top", "All"))
        return DimensionSchema(name, levels, edges)
    depth = rng.randint(1, 3)
    names = [f"{name}L{k}" for k in range(depth)]
    levels = tuple(Level(n) for n in names) + (Level("All", ordered=False),)
    chain = names + ["All"]
    return DimensionSchema(name, levels, tuple(zip(chain, chain[1:])))


def random_instance(rng: random.Random, schema: DimensionSchema) -> DimensionInstance:
    """Members named after their level, each wired to one random parent.

    Diamond schemas are populated soundly: both paths to the top agree by
    construction because the top parent is chosen first per bottom member.
    """
    ordering = _level_order(schema)
    members: dict[str, set] = {}
    for level in ordering:
        if level == "All":
            continue
        members[level] = {f"{level}_m{i}" for i in range(rng.randint(1, 4))}
    parents: list[tuple] = []
    if set(ordering) == {f"{schema.name}Bot", f"{schema.name}Left",
                         f"{schema.name}Right", f"{schema.name}Top", "All"}:
        bot, left, right, top = (f"{schema.name}Bot", f"{schema.name}Left",
                                 f"{schema.name}Right", f"{schema.name}Top")
        left_top = {m: rng.choice(sorted(members[top])) for m in sorted(members[left])}
        right_top = {m: rng.choice(sorted(members[top])) for m in sorted(members[right])}
        feasible = sorted(set(left_top.values()) & set(right_top.values()))
        if not feasible:
            t0 = sorted(members[top])[0]
            left_top[sorted(members[left])[0]] = t0
            right_top[sorted(members[right])[0]] = t0
            feasible = [t0]
        for m in sorted(members[bot]):
            goal = rng.choice(feasible)
            lefts = [l for l in sorted(members[left]) if left_top[l] == goal]
            rights = [r for r in sorted(members[right]) if right_top[r] == goal]
            parents.append((m, bot, rng.choice(lefts), left))
            parents.append((m, bot, rng.choice(rights), right))
        parents += [(m, left, p, top) for m, p in left_top.items()]
        parents += [(m, right, p, top) for m, p in right_top.items()]
    else:
        chain = [l for l in ordering if l != "All"]
        for lower, upper in zip(chain, chain[1:]):
            uppers = sorted(members[upper])
            for m in sorted(members[lower]):
                parents.append((m, lower, rng.choice(uppers), upper))
    return DimensionInstance.build(schema, members, parents)


def _level_order(schema: DimensionSchema) -> list[str]:
    order = [schema.bottom]
    seen = {schema.bottom}
    frontier = [schema.bottom]
    while frontier:
        level = frontier.pop(0)
        for parent in sorted(schema.parents_of(level)):
            if parent not in seen:
                seen.add(parent)
                order.append(parent)
                frontier.append(parent)
    return order


def random_graphoid_input(
    rng: random.Random,
    catalog: DimensionCatalog | None = None,
    *,
    max_edge_types: int = 2,
    max_endpoints: int = 3,
):
    """Raw build input (catalog, decls, node rows, edge rows) for a small graphoid:
    1..``max_edge_types`` edge types, each edge touching 1..``max_endpoints`` nodes."""
    catalog = catalog or random_catalog(rng)
    hier = [n for n in catalog.names if n not in ("Id", "M1", "M2")]
    node_types = []
    for i in range(rng.randint(1, 2)):
        take = rng.sample(hier, k=rng.randint(0, min(2, len(hier))))
        node_types.append(NodeTypeDecl(f"#N{i}", ("Id", *take)))
    edge_types = []
    for j in range(rng.randint(1, max_edge_types)):
        take = rng.sample(hier, k=rng.randint(0, min(1, len(hier))))
        measure_dims = ["M1"] + (["M2"] if rng.random() < 0.4 else [])
        dims = tuple(take) + tuple(measure_dims)
        measures = tuple((dims.index(m), rng.choice(AGG_CHOICES)) for m in measure_dims)
        edge_types.append(EdgeTypeDecl(f"#E{j}", dims, measures=measures))

    def bottom_member(dim: str):
        inst = catalog.instance(dim)
        return rng.choice(sorted(inst.domain(inst.schema.bottom)))

    nodes = []
    ident = 1
    for decl in node_types:
        for _ in range(rng.randint(1, 5)):
            label = [ident] + [bottom_member(d) for d in decl.dims[1:]]
            nodes.append((decl.name, *label))
            ident += 1
    ids = [row[1] for row in nodes]
    edges = []
    for decl in edge_types:
        for _ in range(rng.randint(0, 6)):
            adj = rng.sample(ids, k=min(len(ids), rng.randint(1, max_endpoints)))
            cut = rng.randint(0, len(adj))
            source, target = adj[:cut], adj[cut:]
            label = []
            for d in decl.dims:
                if d in ("M1", "M2"):
                    label.append(rng.randint(0, 50))
                else:
                    label.append(bottom_member(d))
            edges.append((decl.name, source, target, *label))
    if rng.random() < 0.3 and edges:
        edges.append(edges[-1])  # a genuine duplicate, bag semantics
    return catalog, node_types, edge_types, nodes, edges


def random_graphoid(rng: random.Random, catalog: DimensionCatalog | None = None, **shape) -> Graphoid:
    catalog, ntypes, etypes, nodes, edges = random_graphoid_input(rng, catalog, **shape)
    return build_graphoid(catalog, ntypes, etypes, nodes, edges)


def ends_are_shared(g: Graphoid) -> bool:
    """Every distinct endpoint set of ``g`` is one frozenset object."""
    ends = [ids for e in g.edges for ids in (e.source, e.target)]
    return len({id(ids) for ids in ends}) == len(set(ends))


def shuffled_build(rng: random.Random, catalog, ntypes, etypes, nodes, edges) -> Graphoid:
    """Rebuild the same graphoid from permuted input rows."""
    nodes = list(nodes)
    edges = list(edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return build_graphoid(catalog, ntypes, etypes, nodes, edges)


def climbable_step(rng: random.Random, g: Graphoid) -> RollupStep | None:
    """A valid climb step for some slot of g, or None if nothing is climbable."""
    options = []
    for (tname, slot), level in g.levels.items():
        decl = g.type_decl(tname)
        dim = decl.dims[slot]
        if dim == "Id":
            continue
        schema = g.catalog.schema(dim)
        if schema.level(level).open:
            continue
        above = [l for l in schema.reachable_from(level) if l != level]
        if above:
            options.append(RollupStep(dim, level, rng.choice(sorted(above))))
    if not options:
        return None
    return rng.choice(options)


def random_graph_condition(rng: random.Random, g: Graphoid) -> Condition:
    """A random DNF condition over the hierarchy levels and the M1 measure of ``g``'s catalog."""
    dims = [n for n in g.catalog.names if n not in ("Id", "M1", "M2")]
    clauses = []
    for _ in range(rng.randint(1, 3)):
        atoms = []
        for _ in range(rng.randint(1, 3)):
            if not dims or rng.random() < 0.3:
                atoms.append(Atom("M1", None, rng.choice("<>="), rng.randint(0, 100), rng.random() < 0.3))
                continue
            inst = g.catalog.instance(rng.choice(dims))
            level = rng.choice([lv.name for lv in inst.schema.levels if lv.name != "All"])
            value = rng.choice(sorted(inst.domain(level)))
            atoms.append(Atom(inst.name, level, rng.choice("<>="), value, rng.random() < 0.3))
        clauses.append(tuple(atoms))
    return Condition(tuple(clauses))


def random_cube_values(rng: random.Random):
    """(catalog, cube) pair for persistence round trips."""
    from graphoid.cubes import random_cube

    catalog = random_catalog(rng)
    return catalog, random_cube(rng, catalog)


# ---------------------------------------------------------------------------
# independent shortest-path oracle

def floyd_warshall(nodes: list[int], pairs: set[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """All-pairs hop counts by exhaustive relaxation; -1 when unreachable."""
    inf = float("inf")
    dist = {(u, v): (0 if u == v else inf) for u in nodes for v in nodes}
    for u, v in pairs:
        dist[(u, v)] = 1
        dist[(v, u)] = 1
    for k in nodes:
        for i in nodes:
            ik = dist[(i, k)]
            if ik is inf:
                continue
            for j in nodes:
                alt = ik + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return {
        (u, v): (-1 if dist[(u, v)] is inf else int(dist[(u, v)]))
        for u in nodes
        for v in nodes
    }


def cooccurrence_pairs(adjacencies) -> set[tuple[int, int]]:
    pairs: set[tuple[int, int]] = set()
    for adj in adjacencies:
        for u, v in itertools.combinations(sorted(adj), 2):
            pairs.add((u, v))
    return pairs


def smallest_shortest_paths(nodes: list[int], pairs: set[tuple[int, int]]) -> dict:
    """(source, target) -> (hops, smallest path) over every shortest path, enumerated."""
    dist = floyd_warshall(nodes, pairs)
    near: dict[int, set[int]] = {u: set() for u in nodes}
    for u, v in pairs:
        near[u].add(v)
        near[v].add(u)

    def every_shortest(path: tuple[int, ...], target: int):
        last = path[-1]
        if last == target:
            yield path
            return
        for nxt in near[last]:
            if dist[(nxt, target)] == dist[(last, target)] - 1:
                yield from every_shortest(path + (nxt,), target)

    return {
        (s, t): (dist[(s, t)], min(every_shortest((s,), t)) if dist[(s, t)] > 0 else ())
        for s in nodes
        for t in nodes
        if s != t
    }


# ---------------------------------------------------------------------------
# random query programs (parse/print round trips need no catalog)

_DIM_POOL = ("Phone", "Time", "Duration", "Geo", "Product")
_LEVEL_POOL = ("Day", "Month", "Year", "Operator", "City", "Item")
_TYPE_POOL = ("#Phone", "#Call", "#User", "#Sales")


def _random_literal(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return f"val{rng.randint(0, 99)}"
    if kind == 1:
        return rng.randint(-50, 500)
    if kind == 2:
        return round(rng.uniform(-5, 5), 2)
    if kind == 3:
        # tiny and huge magnitudes, whose repr() uses exponent form
        return rng.uniform(-10, 10) * 10.0 ** rng.randint(-12, 20)
    return datetime.date(2016, rng.randint(1, 12), rng.randint(1, 28))


def random_atom(rng: random.Random) -> Atom:
    dim = rng.choice(_DIM_POOL)
    level = rng.choice(_LEVEL_POOL) if rng.random() < 0.7 else None
    cmp = rng.choice(("<", "=", ">"))
    return Atom(dim, level, cmp, _random_literal(rng), negated=rng.random() < 0.25)


def random_condition(rng: random.Random) -> Condition:
    clauses = tuple(
        tuple(random_atom(rng) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, 3))
    )
    return Condition(clauses)


def random_bool_tree(rng: random.Random, atoms: list[Atom], depth: int = 0):
    if depth >= 4 or rng.random() < 0.4:
        return BoolAtom(rng.choice(atoms))
    kind = rng.randrange(3)
    if kind == 0:
        return BoolNot(random_bool_tree(rng, atoms, depth + 1))
    left = random_bool_tree(rng, atoms, depth + 1)
    right = random_bool_tree(rng, atoms, depth + 1)
    return BoolAnd((left, right)) if kind == 1 else BoolOr((left, right))


def _random_targets(rng: random.Random) -> TargetSet:
    if rng.random() < 0.4:
        return TargetSet.everything()
    return TargetSet.of(*rng.sample(_TYPE_POOL, k=rng.randint(1, 2)))


def _random_step(rng: random.Random) -> RollupStep:
    frm, to = rng.sample(_LEVEL_POOL, k=2)
    return RollupStep(rng.choice(_DIM_POOL), frm, to)


def _random_measures(rng: random.Random):
    return tuple(
        (rng.choice(("Duration", "Amount", "Cost")), rng.choice(AGG_CHOICES))
        for _ in range(rng.randint(1, 2))
    )


def _random_filter(rng: random.Random) -> NodeFilter:
    cond = random_condition(rng) if rng.random() < 0.5 else None
    return NodeFilter(rng.choice(_TYPE_POOL), cond)


def random_expr(rng: random.Random, defined: list[str], depth: int = 0):
    if depth >= 2 or (defined and rng.random() < 0.5):
        source = Ref(rng.choice(defined)) if defined else Load("data.json")
    else:
        source = random_expr(rng, defined, depth + 1)
    kind = rng.randrange(12)
    if kind == 0:
        return ClimbOp(source, _random_targets(rng), _random_step(rng))
    if kind == 1:
        return MinimizeOp(source)
    if kind == 2:
        return GroupOp(source, rng.choice(_TYPE_POOL), _random_step(rng))
    if kind == 3:
        return AggrOp(source, rng.choice((*_TYPE_POOL, "*")), _random_measures(rng))
    if kind == 4:
        return RollupOp(source, _random_targets(rng), _random_step(rng),
                        rng.choice((*_TYPE_POOL, "*")), _random_measures(rng))
    if kind == 5:
        return DrilldownOp(source, _random_targets(rng), rng.choice(_DIM_POOL),
                           rng.choice(_LEVEL_POOL), rng.choice((*_TYPE_POOL, "*")),
                           _random_measures(rng))
    if kind == 6:
        return SliceOp(source, rng.choice(_DIM_POOL), _random_measures(rng))
    if kind == 7:
        return DiceOp(source, random_condition(rng))
    if kind == 8:
        return SdiceOp(source, random_condition(rng))
    if kind == 9:
        return NdeleteOp(source, rng.choice(_TYPE_POOL))
    if kind == 10:
        return EdgifyOp(source, rng.choice(_TYPE_POOL), rng.choice(_DIM_POOL))
    via = _random_targets(rng)
    return ShortestPathsOp(source, _random_filter(rng), _random_filter(rng), via)


def random_program(rng: random.Random) -> Program:
    statements = [Statement("G0", Load(f"input{rng.randint(0, 9)}.json"))]
    defined = ["G0"]
    for i in range(rng.randint(1, 6)):
        name = f"G{i + 1}"
        statements.append(Statement(name, random_expr(rng, defined)))
        defined.append(name)
    statements.append(Statement(None, Ref(rng.choice(defined))))
    return Program(tuple(statements))
