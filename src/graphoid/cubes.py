"""Classical data cubes and the star bridge onto graph values.

A cube is a coordinate -> measures mapping with one current level per
dimension.  ``star`` embeds it as a graph value (one node per member, one
empty-source hyperedge per cell and measure) and ``unstar`` reads it back.
``check_equivalence`` runs the same operation on both representations and
reports any disagreement; ``run_equivalence_trials`` does that for randomly
drawn cubes and operations.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Sequence

from . import olap
from .dims import (
    ALL_LEVEL,
    DimensionCatalog,
    DimensionInstance,
    DimensionSchema,
    Level,
    RollupStep,
    all_level,
    comparator,
    open_dimension,
    value_test,
)
from .hypergraph import (
    AGGREGATES,
    EdgeTypeDecl,
    Graphoid,
    GraphoidError,
    NodeTypeDecl,
    build_graphoid,
)
from .olap import Atom, Condition

FIRST_STAR_ID = 11


class CubeError(GraphoidError):
    pass


class StarShapeError(CubeError):
    pass


@dataclass(frozen=True)
class CubeMeasure:
    name: str
    agg: str = "SUM"


@dataclass(frozen=True)
class Cube:
    """Cells keyed by one member per dimension at the cube's current levels."""

    catalog: DimensionCatalog = field(repr=False, compare=False)
    dims: tuple[str, ...] = ()
    levels: tuple[str, ...] = ()
    measures: tuple[CubeMeasure, ...] = ()
    cells: dict[tuple, tuple] = field(default_factory=dict)

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def dim_index(self, dim: str) -> int:
        try:
            return self.dims.index(dim)
        except ValueError:
            raise CubeError(f"cube has no dimension {dim!r}") from None

    def measure_index(self, name: str) -> int:
        for j, m in enumerate(self.measures):
            if m.name == name:
                return j
        raise CubeError(f"cube has no measure {name!r}")


def build_cube(
    catalog: DimensionCatalog,
    dims: Sequence[tuple[str, str]],
    measures: Sequence[CubeMeasure | tuple[str, str]],
    cells: dict[tuple, tuple] | Sequence[tuple[tuple, tuple]],
) -> Cube:
    """Validate coordinates and measure rows against the catalog."""
    problems: list[str] = []
    dim_names = tuple(d for d, _ in dims)
    level_names = tuple(lv for _, lv in dims)
    if len(set(dim_names)) != len(dim_names):
        problems.append("cube dimensions must be distinct")
    for dim, level in dims:
        if dim not in catalog:
            problems.append(f"unknown dimension {dim!r}")
            continue
        schema = catalog.schema(dim)
        if not schema.has_level(level):
            problems.append(f"dimension {dim} has no level {level!r}")
        elif schema.level(level).open:
            problems.append(f"dimension {dim}: level {level} is open, cubes need enumerable domains")
    ms = tuple(m if isinstance(m, CubeMeasure) else CubeMeasure(*m) for m in measures)
    if not ms:
        problems.append("at least one measure required")
    if len({m.name for m in ms}) != len(ms):
        problems.append("cube measures must be distinct")
    for m in ms:
        if m.agg not in AGGREGATES:
            problems.append(f"measure {m.name}: unknown aggregate {m.agg!r}")
        if m.name not in catalog:
            problems.append(f"measure {m.name}: no such dimension in the catalog")
    if problems:
        raise CubeError("; ".join(problems))

    member_tests = [catalog.instance(dim).member_test(level) for dim, level in dims]
    is_numeric = value_test("decimal")
    table: dict[tuple, tuple] = {}
    items = cells.items() if isinstance(cells, dict) else cells
    for coord, values in items:
        coord = tuple(coord)
        values = tuple(values)
        if len(coord) != len(dim_names):
            problems.append(f"cell {coord!r}: expected {len(dim_names)} coordinates")
            continue
        if len(values) != len(ms):
            problems.append(f"cell {coord!r}: expected {len(ms)} measure values")
            continue
        for dim, level, is_member, member in zip(dim_names, level_names, member_tests, coord):
            if not is_member(member):
                problems.append(f"cell {coord!r}: {member!r} outside dom({dim}.{level})")
        for m, value in zip(ms, values):
            if not is_numeric(value):
                problems.append(f"cell {coord!r}: measure {m.name} value {value!r} not numeric")
        if coord in table:
            problems.append(f"cell {coord!r}: duplicate coordinate")
        table[coord] = values
    if problems:
        raise CubeError("; ".join(problems))
    return Cube(catalog, dim_names, level_names, ms, table)


# ---------------------------------------------------------------------------
# the bridge

def star(cube: Cube) -> Graphoid:
    """Embed a cube: one node per member per dimension, one edge per cell and measure.

    Node ids run from 11 in dimension order then member order, so the
    embedding is reproducible byte for byte.
    """
    if not cube.dims:
        raise CubeError("cannot embed a cube with no dimensions")
    node_types = [NodeTypeDecl(f"#{dim}", ("Id", dim)) for dim in cube.dims]
    edge_types = [
        EdgeTypeDecl(f"#{m.name}", (m.name,), measures=((0, m.agg),)) for m in cube.measures
    ]
    levels = {(f"#{dim}", 1): level for dim, level in zip(cube.dims, cube.levels)}

    nodes = []
    member_ids: dict[tuple[int, object], int] = {}
    ident = FIRST_STAR_ID
    for di, (dim, level) in enumerate(zip(cube.dims, cube.levels)):
        for member in sorted(cube.catalog.instance(dim).domain(level)):
            nodes.append((f"#{dim}", ident, member))
            member_ids[(di, member)] = ident
            ident += 1

    edges = []
    for coord in sorted(cube.cells):
        targets = frozenset(member_ids[(di, member)] for di, member in enumerate(coord))
        for m, value in zip(cube.measures, cube.cells[coord]):
            edges.append((f"#{m.name}", frozenset(), targets, value))
    return build_graphoid(cube.catalog, node_types, edge_types, nodes, edges, levels)


def unstar(g: Graphoid) -> Cube:
    """Read a star-shaped graph value back into a cube.

    Dimensions are the node types that still have nodes (a sliced-out
    dimension loses all of them); measures are every declared edge type.
    Raises StarShapeError when the value does not look like an embedded cube.
    """
    dim_decls = [decl for decl in g.node_types.values() if decl.name in g.node_table]
    for decl in dim_decls:
        if decl.arity != 2:
            raise StarShapeError(f"malformed star shape: node type {decl.name} is not (Id, dim)")
    dims = tuple(decl.dims[1] for decl in dim_decls)
    levels = tuple(g.levels[(decl.name, 1)] for decl in dim_decls)

    measures = []
    for decl in g.edge_types.values():
        if decl.arity != 1 or len(decl.measures) != 1 or decl.measures[0][0] != 0:
            raise StarShapeError(f"malformed star shape: edge type {decl.name} is not a measure")
        measures.append(CubeMeasure(decl.dims[0], decl.measures[0][1]))
    if not measures:
        raise StarShapeError("malformed star shape: no measure edge types")

    dim_of_node: dict[int, tuple[int, object]] = {}
    for di, decl in enumerate(dim_decls):
        ids, (_, members) = g.node_table[decl.name]
        dim_of_node.update(zip(ids, zip(repeat(di), members)))

    measure_index = {f"#{m.name}": j for j, m in enumerate(measures)}
    cells: dict[tuple, list] = {}
    seen: set[tuple[tuple, int]] = set()
    table = g.edge_table
    sets = table.sets
    # every edge type holds one slot, its measure
    rows = chain.from_iterable(
        zip(repeat(name), sources, targets, values) for name, (sources, targets, (values,), _) in table.types.items()
    )
    for etype, source, target, value in rows:
        if sets[source]:
            raise StarShapeError(f"malformed star shape: edge {etype} has a non-empty source")
        parts: dict[int, object] = {}
        for ident in sets[target]:
            if ident not in dim_of_node:
                raise StarShapeError(f"malformed star shape: edge {etype} targets a stray node")
            di, member = dim_of_node[ident]
            if di in parts:
                raise StarShapeError(f"malformed star shape: edge {etype} hits {dims[di]} twice")
            parts[di] = member
        if len(parts) != len(dims):
            raise StarShapeError(f"malformed star shape: edge {etype} misses a dimension")
        coord = tuple(parts[di] for di in range(len(dims)))
        j = measure_index[etype]
        if (coord, j) in seen:
            raise StarShapeError(f"malformed star shape: duplicate cell {coord!r} for {etype}")
        seen.add((coord, j))
        cells.setdefault(coord, [None] * len(measures))[j] = value
    for coord, values in cells.items():
        if any(v is None for v in values):
            raise StarShapeError(f"malformed star shape: cell {coord!r} misses a measure value")
    return Cube(
        g.catalog,
        dims,
        levels,
        tuple(measures),
        {coord: tuple(values) for coord, values in cells.items()},
    )


# ---------------------------------------------------------------------------
# classical operations

def _agg_functions(cube: Cube, measures: Sequence[tuple[str, str]] | None) -> list[str]:
    if measures is None:
        return [m.agg for m in cube.measures]
    given = dict(measures)
    missing = [m.name for m in cube.measures if m.name not in given]
    extra = [name for name in given if all(m.name != name for m in cube.measures)]
    if missing or extra:
        raise CubeError(
            f"measure list must cover the cube's measures exactly (missing {missing}, extra {extra})"
        )
    problems = olap.measure_problems(measures)
    if problems:
        raise CubeError(problems[0])
    return [given[m.name] for m in cube.measures]


def cube_roll_up(
    cube: Cube, dim: str, to_level: str, measures: Sequence[tuple[str, str]] | None = None
) -> Cube:
    """Coarsen one dimension, re-aggregating every measure."""
    i = cube.dim_index(dim)
    problems = cube.catalog.step_problems(RollupStep(dim, cube.levels[i], to_level))
    if problems:
        raise CubeError(problems[0])
    fns = _agg_functions(cube, measures)
    roll = cube.catalog.roller(dim, cube.levels[i], to_level)
    grouped: dict[tuple, list[tuple]] = {}
    for coord in sorted(cube.cells):
        rolled = list(coord)
        rolled[i] = roll(coord[i])
        grouped.setdefault(tuple(rolled), []).append(cube.cells[coord])
    cells = {
        coord: tuple(
            olap.apply_aggregate(fn, [row[j] for row in rows]) for j, fn in enumerate(fns)
        )
        for coord, rows in grouped.items()
    }
    levels = tuple(to_level if k == i else lv for k, lv in enumerate(cube.levels))
    return Cube(cube.catalog, cube.dims, levels, cube.measures, cells)


def cube_slice(cube: Cube, dim: str, measures: Sequence[tuple[str, str]] | None = None) -> Cube:
    """Roll a dimension up to All and drop it from the coordinates."""
    i = cube.dim_index(dim)
    rolled = cube_roll_up(cube, dim, ALL_LEVEL, measures)
    drop = lambda row: tuple(v for k, v in enumerate(row) if k != i)  # noqa: E731
    return Cube(
        cube.catalog,
        drop(cube.dims),
        drop(rolled.levels),
        cube.measures,
        {drop(coord): values for coord, values in rolled.cells.items()},
    )


def _cell_test(cube: Cube, atom: Atom) -> Callable[[tuple, tuple], bool]:
    """Resolve an atom to a test of one cell's coordinate and measure values."""
    compare = comparator(atom.cmp)
    if atom.level is None:
        j = cube.measure_index(atom.dim)
        read = lambda coord, values: values[j]  # noqa: E731
    else:
        i = cube.dim_index(atom.dim)
        if cube.levels[i] == atom.level:
            read = lambda coord, values: coord[i]  # noqa: E731
        else:
            roll = cube.catalog.roller(atom.dim, cube.levels[i], atom.level)
            read = lambda coord, values: roll(coord[i])  # noqa: E731

    def test(coord: tuple, values: tuple) -> bool:
        result = compare(read(coord, values), atom.value)
        return (not result) if atom.negated else result

    return test


def cube_dice(cube: Cube, cond: Condition) -> Cube:
    """Keep the cells satisfying the condition (plain two-valued reading)."""
    for atom in cond.atoms():
        if atom.level is None:
            cube.measure_index(atom.dim)
        else:
            i = cube.dim_index(atom.dim)
            schema = cube.catalog.schema(atom.dim)
            if not schema.has_level(atom.level):
                raise CubeError(f"dimension {atom.dim} has no level {atom.level!r}")
            if atom.level != cube.levels[i] and atom.level not in schema.reachable_from(cube.levels[i]):
                raise CubeError(f"condition level {atom.dim}.{atom.level} below the cube's level")
    clauses = [[_cell_test(cube, a) for a in clause] for clause in cond.clauses]
    cells = {
        coord: values
        for coord, values in cube.cells.items()
        if any(all(test(coord, values) for test in tests) for tests in clauses)
    }
    return Cube(cube.catalog, cube.dims, cube.levels, cube.measures, cells)


# ---------------------------------------------------------------------------
# equivalence checking

@dataclass(frozen=True)
class CubeOp:
    """One classical operation: kind plus its parameters."""

    kind: str  # roll_up | drill_down | slice | dice
    dim: str | None = None
    level: str | None = None  # roll_up target; drill_down's intermediate level
    to_level: str | None = None  # drill_down target
    condition: Condition | None = None

    def describe(self) -> str:
        if self.kind == "roll_up":
            return f"roll_up {self.dim} -> {self.level}"
        if self.kind == "drill_down":
            return f"roll_up {self.dim} -> {self.level}, drill_down -> {self.to_level}"
        if self.kind == "slice":
            return f"slice {self.dim}"
        atoms = ", ".join(
            f"{'NOT ' if a.negated else ''}{a.dim}{'.' + a.level if a.level else ''} {a.cmp} {a.value!r}"
            for a in (self.condition.atoms() if self.condition else ())
        )
        return f"dice [{atoms}]"


def _compare_cubes(expected: Cube, got: Cube) -> list[str]:
    problems: list[str] = []
    if expected.dims != got.dims:
        problems.append(f"dims differ: {expected.dims} vs {got.dims}")
    if expected.levels != got.levels:
        problems.append(f"levels differ: {expected.levels} vs {got.levels}")
    if expected.measures != got.measures:
        problems.append(f"measures differ: {expected.measures} vs {got.measures}")
    if problems:
        return problems
    for coord in sorted(set(expected.cells) | set(got.cells), key=repr):
        a = expected.cells.get(coord)
        b = got.cells.get(coord)
        if a != b:
            problems.append(f"cell {coord!r}: expected {a!r}, got {b!r}")
    return problems


def _measure_pairs(cube: Cube) -> list[tuple[str, str]]:
    return [(m.name, m.agg) for m in cube.measures]


def check_equivalence(cube: Cube, op: CubeOp) -> list[str]:
    """Run one operation classically and on the star; report mismatches."""
    pairs = _measure_pairs(cube)
    g = star(cube)
    if op.kind == "roll_up":
        expected = cube_roll_up(cube, op.dim, op.level)
        i = cube.dim_index(op.dim)
        derived = olap.roll_up(
            g, [f"#{op.dim}"], RollupStep(op.dim, cube.levels[i], op.level), olap.WILDCARD, pairs
        )
    elif op.kind == "drill_down":
        i = cube.dim_index(op.dim)
        coarse = olap.roll_up(
            g, [f"#{op.dim}"], RollupStep(op.dim, cube.levels[i], op.level), olap.WILDCARD, pairs
        )
        expected = cube_roll_up(cube, op.dim, op.to_level)
        derived = olap.drill_down(coarse, [f"#{op.dim}"], op.dim, op.to_level, olap.WILDCARD, pairs)
    elif op.kind == "slice":
        expected = cube_slice(cube, op.dim)
        derived = olap.n_delete(olap.slice_out(g, op.dim, pairs), f"#{op.dim}")
    elif op.kind == "dice":
        expected = cube_dice(cube, op.condition)
        derived = olap.s_dice(g, op.condition)
    else:
        raise CubeError(f"unknown operation kind {op.kind!r}")
    try:
        got = unstar(derived)
    except StarShapeError as exc:
        return [str(exc)]
    return _compare_cubes(expected, got)


# ---------------------------------------------------------------------------
# random trials

MAX_DIMS, MAX_MEMBERS, MAX_CELLS = 4, 5, 60  # hierarchies per catalog, members per level, cells per cube
# the measure dimensions M1 and M2 every random catalog holds; instances never change
_MEASURE_INSTANCES = tuple(open_dimension(f"M{j + 1}", "decimal") for j in range(2))


def random_catalog(rng: random.Random) -> DimensionCatalog:
    """Small random hierarchies plus two open measure dimensions."""
    dims = []
    for d in range(rng.randint(1, MAX_DIMS)):
        name = f"Dim{d + 1}"
        depth = rng.randint(0, 2)  # intermediate levels between bottom and All
        level_names = [f"{name}L{k}" for k in range(depth + 1)]
        levels = tuple(Level(n, "string") for n in level_names) + (all_level(),)
        edges = tuple(zip(level_names + [ALL_LEVEL], (level_names + [ALL_LEVEL])[1:]))
        schema = DimensionSchema(name, levels, edges)
        members: dict[str, set] = {}
        parents: list[tuple] = []
        counts = [rng.randint(1, MAX_MEMBERS) for _ in level_names]
        for k, level in enumerate(level_names):
            members[level] = {f"{level}_m{i}" for i in range(counts[k])}
        for lower, upper in zip(level_names, level_names[1:]):
            uppers = sorted(members[upper])
            for child in sorted(members[lower]):
                parents.append((child, lower, rng.choice(uppers), upper))
        dims.append(DimensionInstance.build(schema, members, parents))
    return DimensionCatalog.of(*dims, *_MEASURE_INSTANCES)


def random_cube(rng: random.Random, catalog: DimensionCatalog) -> Cube:
    """A cube over every hierarchy in the catalog, at bottom levels."""
    dim_names = [n for n in catalog.names if n not in ("Id",) and not catalog.schema(n).level(catalog.schema(n).bottom).open]
    dims = [(n, catalog.schema(n).bottom) for n in dim_names]
    n_measures = rng.randint(1, 2)
    measures = [
        CubeMeasure(f"M{j + 1}", rng.choice(("SUM", "MIN", "MAX", "COUNT")))
        for j in range(n_measures)
    ]
    space = [()]
    for dim, level in dims:
        domain = sorted(catalog.instance(dim).domain(level))
        space = [coord + (m,) for coord in space for m in domain]
    rng.shuffle(space)
    chosen = sorted(space[: rng.randint(1, min(len(space), MAX_CELLS))])
    cells = {
        coord: tuple(rng.randint(0, 100) for _ in measures) for coord in chosen
    }
    return build_cube(catalog, dims, measures, cells)


def _random_condition(rng: random.Random, cube: Cube) -> Condition:
    """Random DNF in the provable class: measure atoms confined to one measure."""
    measure = rng.choice(cube.measures).name

    def atom() -> Atom:
        negated = rng.random() < 0.2
        if rng.random() < 0.3:
            return Atom(measure, None, rng.choice("<=>"), rng.randint(0, 100), negated)
        i = rng.randrange(len(cube.dims))
        dim = cube.dims[i]
        schema = cube.catalog.schema(dim)
        level = rng.choice(sorted(schema.reachable_from(cube.levels[i])))
        if level == ALL_LEVEL:
            return Atom(dim, level, "=", "all", negated)
        domain = sorted(cube.catalog.instance(dim).domain(level))
        value = rng.choice(domain + [f"{level}_sentinel"])
        return Atom(dim, level, rng.choice("<=>"), value, negated)

    clauses = tuple(
        tuple(atom() for _ in range(rng.randint(1, 2))) for _ in range(rng.randint(1, 2))
    )
    return Condition(clauses)


def random_op(rng: random.Random, cube: Cube) -> CubeOp:
    kinds = ["dice"]
    climbable = [
        (i, dim)
        for i, dim in enumerate(cube.dims)
        if cube.catalog.schema(dim).reachable_from(cube.levels[i]) - {cube.levels[i]}
    ]
    if climbable:
        kinds += ["roll_up", "drill_down"]
    if len(cube.dims) >= 2:
        kinds.append("slice")
    kind = rng.choice(kinds)
    if kind == "dice":
        return CubeOp("dice", condition=_random_condition(rng, cube))
    if kind == "slice":
        return CubeOp("slice", dim=rng.choice(cube.dims))
    i, dim = rng.choice(climbable)
    schema = cube.catalog.schema(dim)
    above = sorted(schema.reachable_from(cube.levels[i]) - {cube.levels[i]})
    level = rng.choice(above)
    if kind == "roll_up":
        return CubeOp("roll_up", dim=dim, level=level)
    to_level = rng.choice(sorted(schema.reachable_from(cube.levels[i])))
    return CubeOp("drill_down", dim=dim, level=level, to_level=to_level)


@dataclass(frozen=True)
class TrialResult:
    index: int
    seed: int
    description: str
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_trial(index: int, seed: int) -> TrialResult:
    rng = random.Random(seed)
    catalog = random_catalog(rng)
    cube = random_cube(rng, catalog)
    op = random_op(rng, cube)
    try:
        mismatches = tuple(check_equivalence(cube, op))
    except GraphoidError as exc:
        mismatches = (f"operation failed: {exc}",)
    return TrialResult(index, seed, op.describe(), mismatches)


def run_equivalence_trials(trials: int, seed: int) -> list[TrialResult]:
    """Independent random cube/op trials; deterministic for a given seed."""
    root = random.Random(seed)
    return [run_trial(i, root.randrange(2**63)) for i in range(trials)]
