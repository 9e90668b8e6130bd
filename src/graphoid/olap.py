"""The graph OLAP operation algebra.

All operations are pure: they take a graph value and return a derived one.
Climb rewrites label slots along the dimension hierarchy, minimize contracts
nodes that became indistinguishable, aggr merges parallel edges and folds
their measures, and roll-up is the composition of the three.  Dice and its
strong variant filter edges under a three-valued reading of conditions, slice
rolls a dimension out entirely, and n-delete removes a node type.

Every operation reads and writes the graph value's edge table
(``hypergraph.EdgeTable``) one edge type's sub-table at a time, and builds
no edge objects.  A sub-table holds the columns of the edge bag and nothing
else: a source-set id column, a target-set id column and the labels as slot
columns.  Climb replaces the one climbed column of each targeted edge type
with the catalog's roll mapped over it (one call per row); every other
column is handed on.  Aggr keys the rows of a targeted type on the zipped source,
target and key columns of its sub-table, folds each measure column per
class and keeps each class's first row, gathering only the members of
classes with several.  Dice and strong dice test an atom as one pass over
a slot column (``map(compare, column, repeat(constant))``, after the roll
to the atom's level when one is needed): an edge type's, or a node type's
from the value's node table, with one atom test for both (``atom_test``).
They keep the rows of each type that its mask passes.  Climb replaces a
node type's climbed column the same way.  Minimize keys each node type's
nodes on its zipped non-identifier columns, n-delete drops one node
type's sub-table, and both rewrite the endpoint-set list once per
distinct set and remap each edge type's two id columns through it.
Columns an operation does not rewrite are handed on to its result
unchanged.

Each operation resolves its roll-up steps, class keys and condition atoms
once, to the dimension instances' roll-up maps and to per-type slot
tuples, and then makes one lookup per label value.  Dice tests a
clause's atoms on each node type's columns, into the set of nodes the
clause is false on, and tests each distinct endpoint set against that set
once.  A folded
measure slot remembers its aggregate, so a second fold is either exact
(SUM, MIN and MAX over themselves; COUNT re-folds its counts with SUM) or
refused.
"""
from __future__ import annotations

import datetime
import math
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain, compress, count, repeat
from operator import and_, eq, ne, not_, or_
from typing import Callable, Iterator, Sequence

from .dims import (
    ALL_LEVEL,
    ID_DIMENSION,
    DimensionCatalog,
    RollupStep,
    comparator,
    value_test,
)
from .hypergraph import (
    AGGREGATES,
    EdgeTable,
    EdgeTypeDecl,
    Graphoid,
    GraphoidError,
    HyperEdge,
    NodeRows,
    NodeTypeDecl,
    TypeRows,
    consume,
    with_column,
)


class OlapError(GraphoidError):
    pass


class LineageError(OlapError):
    pass


WILDCARD = "*"


@dataclass(frozen=True)
class TargetSet:
    """Named types an operation applies to; ``names=None`` means every applicable one."""

    names: tuple[str, ...] | None = None

    @classmethod
    def everything(cls) -> TargetSet:
        return cls(None)

    @classmethod
    def of(cls, *names: str) -> TargetSet:
        return cls(tuple(names))

    @property
    def is_wildcard(self) -> bool:
        return self.names is None

    @classmethod
    def coerce(cls, value) -> TargetSet:
        if isinstance(value, TargetSet):
            return value
        if value is None or value == WILDCARD:
            return cls(None)
        if isinstance(value, str):
            return cls((value,))
        names = tuple(value)
        if WILDCARD in names:
            if len(names) != 1:
                raise OlapError("the wildcard target cannot be combined with named types")
            return cls(None)
        return cls(names)


MeasurePairs = Sequence[tuple[str, str]]


def measure_problems(measures: MeasurePairs) -> list[str]:
    """Why a measure/aggregate list is illegal: an unknown aggregate, or a
    measure listed twice (one slot can hold only one aggregate)."""
    problems = [f"unknown aggregate {fn!r}" for _, fn in measures if fn not in AGGREGATES]
    names = [dim for dim, _ in measures]
    repeated = sorted({dim for dim in names if names.count(dim) > 1})
    return problems + [f"measure {dim} is listed more than once" for dim in repeated]


def _coerce_measures(measures: MeasurePairs) -> tuple[tuple[str, str], ...]:
    pairs = tuple((str(dim), str(fn)) for dim, fn in measures)
    if not pairs:
        raise OlapError("at least one measure/aggregate pair is required")
    problems = measure_problems(pairs)
    if problems:
        raise OlapError(problems[0])
    return pairs


_FOLDS: dict[str, Callable[[list], object]] = {
    "SUM": sum,
    "MIN": min,
    "MAX": max,
    "COUNT": len,
    "AVG": lambda values: sum(values) / len(values),
}

# the one type of an exact int
_INT = frozenset({int})

# aggregates whose fold over partial results equals the fold over the raw values
_REFOLDS = {"SUM": "SUM", "MIN": "MIN", "MAX": "MAX", "COUNT": "SUM"}


def apply_aggregate(fn: str, values: list):
    try:
        fold = _FOLDS[fn]
    except KeyError:
        raise OlapError(f"unknown aggregate {fn!r}") from None
    return fold(values)


# ---------------------------------------------------------------------------
# conditions

@dataclass(frozen=True)
class Atom:
    """One comparison; ``level`` is None for measure atoms, ``negated`` flags NOT."""

    dim: str
    level: str | None
    cmp: str
    value: object
    negated: bool = False


@dataclass(frozen=True)
class Condition:
    """Disjunctive normal form: a tuple of conjunctive clauses of atoms."""

    clauses: tuple[tuple[Atom, ...], ...]

    @classmethod
    def of(cls, *atoms: Atom) -> Condition:
        return cls((tuple(atoms),))

    def atoms(self) -> tuple[Atom, ...]:
        return tuple(a for clause in self.clauses for a in clause)


def format_constant(value: object) -> str | None:
    """A condition constant as the query language spells it; None when it has no spelling."""
    if isinstance(value, str) and "\n" not in value:  # the lexer has no newline escape
        body = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{body}"'
    if isinstance(value, int) and not isinstance(value, bool):
        return repr(value)
    if isinstance(value, float) and math.isfinite(value):
        # positional, with a point, so NUMBER reads back the same float
        text = format(Decimal(repr(value)), "f")
        return text if "." in text else f"{text}.0"
    if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
        return value.isoformat()
    return None


def condition_problems(catalog: DimensionCatalog, cond: Condition) -> list[str]:
    """Why a condition's atoms are illegal in a catalog: an unknown dimension,
    a missing level, a constant of the wrong type, or ``<``/``>`` on an
    unordered level.  A measure atom (no level) reads its bottom level."""
    problems: list[str] = []
    for atom in cond.atoms():
        name = atom.level
        if name is None and atom.dim in catalog:
            name = catalog.schema(atom.dim).bottom
        found = catalog.step_problems(RollupStep(atom.dim, name, name))
        if found:
            problems.extend(found)
            continue
        level = catalog.level(atom.dim, name)
        if not value_test(level.vtype)(atom.value):
            spelled = format_constant(atom.value) or repr(atom.value)
            problems.append(f"constant {spelled} is not a {level.vtype} ({atom.dim}.{name})")
        if atom.cmp in ("<", ">") and not level.ordered:
            problems.append(f"level {atom.dim}.{name} is unordered")
    return problems


def _atom_slot(atom: Atom, decl: NodeTypeDecl | EdgeTypeDecl) -> int | None:
    """The label slot an atom reads on this type, None when it has none."""
    if atom.level is not None:
        return decl.slot_of(atom.dim)
    return decl.measure_slot_of(atom.dim) if isinstance(decl, EdgeTypeDecl) else None


def atom_test(atom: Atom, decl, levels, catalog) -> Callable[[tuple], Iterator[bool]] | None:
    """Resolve an atom on one type to a test of its slot columns: a function
    of the type's columns (an edge type's ``TypeRows.columns``, a node type's
    ``NodeRows.columns``) giving the atom's outcome on each row, in order.
    None when the type has no slot for it.  An atom below the slot's stored
    level is refused: its values cannot be rolled down."""
    slot = _atom_slot(atom, decl)
    if slot is None:
        return None
    stored = levels[(decl.name, slot)]
    target_level = atom.level if atom.level is not None else catalog.schema(atom.dim).bottom
    if catalog.step_problems(RollupStep(atom.dim, stored, target_level)):
        raise OlapError(
            f"condition level {atom.dim}.{target_level} is below the stored level {stored} of type {decl.name}"
        )
    roll = catalog.roller(atom.dim, stored, target_level) if stored != target_level else None
    compare, constant, negated = comparator(atom.cmp), atom.value, atom.negated

    def test(columns: tuple) -> Iterator[bool]:
        values = columns[slot] if roll is None else map(roll, columns[slot])
        outcomes = map(compare, values, repeat(constant))
        return map(not_, outcomes) if negated else outcomes

    return test


def edge_filter(g: Graphoid, cond: Condition) -> Callable[[EdgeTable], dict[str, list[bool]]]:
    """Resolve a condition on a graph to a test of edge tables:
    ``edge_filter(g, cond)(table)`` holds one mask per type of the table,
    saying row by row whether each of its edges satisfies the condition.

    An edge satisfies an atom when it is not false on the edge itself and on
    every adjacent node; clauses and the disjunction lift pointwise.  Each
    atom is resolved per declared type once, to a column test
    (``atom_test``), and a clause's tests on one type run as one pass over
    its columns (``all_of``): on each node type's slot columns of the
    value's node table, into the set of nodes the clause is false on, and
    on each edge type's slot columns.  Each distinct endpoint set of the
    table is tested against that set once, so an edge passes a clause when
    the clause's edge tests hold on it and both its sets are clear.  Raises
    OlapError for a condition that ``condition_problems`` or ``atom_test``
    refuses, and for a measure atom (no level) whose dimension no edge type
    of the graph holds as a measure: it could read no slot, and would hold
    on every edge.
    """
    problems = condition_problems(g.catalog, cond)
    if problems:
        raise OlapError(problems[0])
    for atom in cond.atoms():
        if atom.level is None and all(decl.measure_slot_of(atom.dim) is None for decl in g.edge_types.values()):
            raise OlapError(f"measure {atom.dim} is not declared by any edge type")
    resolved = []
    for clause in cond.clauses:
        edge_tests: dict[str, list] = {name: [] for name in g.edge_types}
        node_tests: dict[str, list] = {name: [] for name in g.node_types}
        for atom in clause:
            for tests, decls in ((edge_tests, g.edge_types), (node_tests, g.node_types)):
                for name, decl in decls.items():
                    test = atom_test(atom, decl, g.levels, g.catalog)
                    if test is not None:
                        tests[name].append(test)
        resolved.append(({name: tests for name, tests in edge_tests.items() if tests}, node_tests))
    clauses = [
        (edge_tests, frozenset(chain.from_iterable(
            compress(ids, map(not_, all_of(node_tests[name], columns)))
            for name, (ids, columns) in g.node_table.items() if node_tests[name]
        )))
        for edge_tests, node_tests in resolved
    ]

    def satisfied(table: EdgeTable) -> dict[str, list[bool]]:
        passed: dict[str, list[bool]] = {}
        for edge_tests, false_nodes in clauses:
            clear = list(map(false_nodes.isdisjoint, table.sets)) if false_nodes else None
            for name, (sources, targets, columns) in table.types.items():
                # the rows of a type the clause has no edge test for pass its edge part
                holds = all_of(edge_tests[name], columns) if name in edge_tests else None
                if clear is not None:
                    ends = map(and_, map(clear.__getitem__, sources), map(clear.__getitem__, targets))
                    holds = ends if holds is None else map(and_, holds, ends)
                if holds is None:
                    holds = repeat(True, len(sources))
                passed[name] = list(holds) if name not in passed else list(map(or_, passed[name], holds))
        return {name: passed.get(name) or [False] * len(rows.sources) for name, rows in table.types.items()}

    return satisfied


def all_of(tests: list[Callable[[tuple], Iterator[bool]]], columns: tuple) -> Iterator[bool]:
    """The conjunction of column tests on one type's slot columns, row by row."""
    outcomes = tests[0](columns)
    for test in tests[1:]:
        outcomes = map(and_, outcomes, test(columns))
    return outcomes


# the engine filters whole tables with ``edge_filter``; this one-edge form stays because perfbench's tracer wraps it by name
def edge_satisfies(g: Graphoid, edge: HyperEdge, cond: Condition) -> bool:
    """Does one edge satisfy the condition?  See ``edge_filter``."""
    return edge_filter(g, cond)(EdgeTable.of((edge,)))[edge.etype][0]


# ---------------------------------------------------------------------------
# operations

def _target_slots(g: Graphoid, targets: TargetSet, dimension: str) -> list[tuple[str, int]]:
    """The (type, slot) pairs holding a dimension: on every type for the
    wildcard, else on each named type, which must hold it."""
    if targets.is_wildcard:
        return g.slots_of(dimension)
    spots = []
    for name in targets.names or ():
        slot = g.type_decl(name).slot_of(dimension)
        if slot is None:
            raise OlapError(f"type {name} lacks dimension {dimension}")
        spots.append((name, slot))
    return spots


def _resolve_climb_targets(g: Graphoid, targets: TargetSet, step: RollupStep) -> list[tuple[str, int]]:
    """Slots to rewrite.  A slot already sitting at the destination level is
    accepted as a no-op, so re-running a climb is harmless."""
    spots = _target_slots(g, targets, step.dimension)
    if targets.is_wildcard:
        found = [spot for spot in spots if g.levels[spot] == step.from_level]
        if not found and all(g.levels[spot] != step.to_level for spot in spots):
            raise OlapError(
                f"no type holds dimension {step.dimension} at level {step.from_level}"
            )
        return found
    found = []
    for name, slot in spots:
        stored = g.levels[(name, slot)]
        if stored == step.to_level:
            continue
        if stored != step.from_level:
            raise OlapError(
                f"type {name}: dimension {step.dimension} is at level {stored}, not {step.from_level}"
            )
        found.append((name, slot))
    return found


def climb(g: Graphoid, targets, step: RollupStep) -> Graphoid:
    """Rewrite one dimension's slot values from one level to a higher one.

    Each targeted node or edge type's climbed slot column is replaced by
    the catalog's roll mapped over it (one ``DimensionCatalog.roll`` call
    per row); every other column is handed on.
    """
    if step.dimension == ID_DIMENSION:
        raise OlapError("the Id dimension cannot be climbed")
    targets = TargetSet.coerce(targets)
    problems = g.catalog.step_problems(step)
    if problems:
        raise OlapError(problems[0])
    found = _resolve_climb_targets(g, targets, step)
    if step.from_level == step.to_level:
        return g.derive()

    # the catalog resolves the step on the first value and keeps it
    roll, dim, lo, hi = g.catalog.roll, step.dimension, step.from_level, step.to_level
    node_table, table = dict(g.node_table), g.edge_table
    types = dict(table.types)
    levels = dict(g.levels)
    for name, slot in found:
        levels[(name, slot)] = step.to_level
        subtables = node_table if name in g.node_types else types
        rows = subtables.get(name)  # None when the type has no rows
        if rows is not None:
            subtables[name] = with_column(rows, slot, tuple(map(roll, repeat(dim), repeat(lo), repeat(hi), rows.columns[slot])))
    return g.derive(node_table=node_table, edge_table=EdgeTable(types, table.sets), levels=levels)


def minimize(g: Graphoid) -> Graphoid:
    """Contract nodes that agree on type and every non-identifier slot.

    The surviving representative is the one with the smallest identifier;
    edge endpoints are rewritten through the contraction, the edge bag keeps
    its size.  Idempotent, and independent of input ordering.
    """
    rep: dict[int, int] = {}  # each contracted id -> its representative
    node_table = dict(g.node_table)
    for name, (ids, columns) in g.node_table.items():
        chosen: dict[tuple, int] = {}  # a non-identifier label -> its smallest id
        keys = zip(*columns[1:]) if len(columns) > 1 else repeat((), len(ids))
        firsts = list(map(chosen.setdefault, keys, ids))
        if len(chosen) < len(ids):
            kept = list(map(eq, firsts, ids))
            rep.update(compress(zip(ids, firsts), map(not_, kept)))
            columns = tuple(map(tuple, map(compress, columns, repeat(kept))))
            node_table[name] = NodeRows(columns[0], columns)
    if not rep:
        return g.derive()
    table = _rewrite_sets(g.edge_table, lambda ends: frozenset(map(rep.get, ends, ends)))
    return g.derive(node_table=node_table, edge_table=table)


def _rewrite_sets(table: EdgeTable, fn: Callable[[frozenset[int]], frozenset[int]]) -> EdgeTable:
    """``table`` with ``fn`` applied to each of its endpoint sets, once per
    set; equal results share one id, and a result equal to its input is the
    input's object."""
    ids: dict[frozenset[int], int] = {}
    remap = []
    for ends in table.sets:
        new = fn(ends)
        remap.append(ids.setdefault(ends if new == ends else new, len(ids)))
    types = {
        name: TypeRows([remap[i] for i in sources], [remap[i] for i in targets], columns)
        for name, (sources, targets, columns) in table.types.items()
    }
    return EdgeTable(types, list(ids))


def group(g: Graphoid, type_name: str, step: RollupStep) -> Graphoid:
    """Climb one type; node types are additionally contracted afterwards."""
    if type_name in g.node_types:
        return minimize(climb(g, TargetSet.of(type_name), step))
    if type_name in g.edge_types:
        return climb(g, TargetSet.of(type_name), step)
    raise OlapError(f"unknown type {type_name!r}")


def _aggregation_plan(g: Graphoid, edge_type: str, pairs) -> tuple[dict[str, dict[int, str]], dict]:
    """Which slots of which edge types fold under which aggregate.

    Returns the aggregate each slot is folded with now, and the graph's fold
    record updated with the aggregate each slot will hold.  A slot that
    already holds aggregates folds again only where that is exact: SUM, MIN
    and MAX over themselves, and COUNT, whose counts are summed.
    """
    plan: dict[str, dict[int, str]] = {}
    if edge_type == WILDCARD:
        for dim, fn in pairs:
            hit = False
            for decl in g.edge_types.values():
                slot = decl.measure_slot_of(dim)
                if slot is not None:
                    plan.setdefault(decl.name, {})[slot] = fn
                    hit = True
            if not hit:
                raise OlapError(f"measure {dim} is not declared by any edge type")
    else:
        decl = g.edge_type(edge_type)
        for dim, fn in pairs:
            slot = decl.measure_slot_of(dim)
            if slot is None:
                raise OlapError(f"edge type {edge_type} has no measure {dim}")
            plan.setdefault(decl.name, {})[slot] = fn
    folds = dict(g.folds)
    for name, slots in plan.items():
        decl = g.edge_types[name]
        for slot, fn in slots.items():
            prior = g.folds.get((name, slot))
            folds[(name, slot)] = fn
            if prior is not None:
                if prior != fn or fn not in _REFOLDS:
                    raise OlapError(
                        f"measure {decl.dims[slot]} of {name} already holds {prior} aggregates; "
                        f"folding them with {fn} would not give the {fn} of the raw values"
                    )
                slots[slot] = _REFOLDS[fn]
                continue
            level = g.levels[(name, slot)]
            if fn != "COUNT" and level != g.catalog.schema(decl.dims[slot]).bottom:
                raise OlapError(
                    f"measure {decl.dims[slot]} of {name} sits at level {level}; "
                    "only COUNT can fold non-bottom values"
                )
    return plan, folds


def aggr(g: Graphoid, edge_type: str, measures: MeasurePairs) -> Graphoid:
    """Merge same-class parallel edges and fold the listed measures.

    Two edges of a targeted type fall in one class when they share endpoints
    and agree on every label slot apart from the folded measures and an
    identifier slot.  A class is represented by its first member in edge
    order.  The representative keeps its identifier value and its position
    in the edge order, and its measure slots receive the aggregate over the
    whole class, folded in edge order.  Input is contracted first, so equal
    endpoint sets have equal ids.

    Each targeted edge type's sub-table is folded column at a time.  Class
    keys are its zipped source, target and key columns, and
    ``first_at.setdefault`` mapped over them with the row positions gives
    each row its class's first member.  When some class has two, one pass
    over those firsts (``compress(count(), map(ne, firsts, count()))``)
    finds the joining rows, the rows whose class began at an earlier row,
    and the ``kept`` mask of first members is written from them: all true,
    then false at each joining row.  Each measure column
    is folded per class (``_fold_column``); each other column keeps its
    first members' entries, and is handed on whole when no class has two.
    Untargeted types' sub-tables pass through unchanged.
    """
    g = minimize(g)
    pairs = _coerce_measures(measures)
    plan, folds = _aggregation_plan(g, edge_type, pairs)

    table = g.edge_table
    types = dict(table.types)
    for name, slots in plan.items():
        rows = types.get(name)  # None when the type has no rows
        if rows is None:
            continue
        sources, targets, columns = rows
        key_slots = [slot for slot, dim in enumerate(g.edge_types[name].dims) if slot not in slots and dim != ID_DIMENSION]
        keys = zip(sources, targets, *map(columns.__getitem__, key_slots))
        first_at: dict[tuple, int] = {}  # class key -> its first member's position among the rows
        firsts = list(map(first_at.setdefault, keys, count()))
        kept = joining = None  # is each row its class's first; the rows joining an earlier class
        if len(first_at) < len(firsts):
            joining = list(compress(count(), map(ne, firsts, count())))
            kept = [True] * len(firsts)
            consume(map(kept.__setitem__, joining, repeat(False)))
            sources, targets = list(compress(sources, kept)), list(compress(targets, kept))
        columns = tuple(
            _fold_column(slots[slot], column, firsts, kept, joining) if slot in slots
            else column if kept is None else tuple(compress(column, kept))
            for slot, column in enumerate(columns)
        )
        types[name] = TypeRows(sources, targets, columns)
    return g.derive(edge_table=EdgeTable(types, table.sets), folds=folds)


def _fold_column(
    fn: str, column: tuple, firsts: list[int], kept: list[bool] | None, joining: list[int] | None
) -> tuple:
    """One measure slot folded with ``fn`` per class, classes in the order of
    their first members.  ``firsts`` gives each row its class's first row,
    ``kept`` flags each row that is its class's first, and ``joining`` lists
    in order the rows that join an earlier row's class; both are None when
    every class has one member.

    A one-member class folds its one value, with no call where the fold is
    known: MIN and MAX of one value are the value, SUM of one exact ``int``
    is the int, and COUNT of one is 1; any other fold (a float SUM turns
    -0.0 into 0.0, AVG gives a float) is called on the value.  Then each
    class with several members gathers its values, first row first and the
    joining rows in edge order, and their fold replaces its first value's.
    """
    fold = _FOLDS[fn]
    stored = column if kept is None else tuple(compress(column, kept))
    if fn in ("MIN", "MAX") or (fn == "SUM" and _INT.issuperset(map(type, stored))):
        values = stored
    elif fn == "COUNT":
        values = (1,) * len(stored)
    else:
        values = tuple(map(fold, zip(stored)))
    if not joining:
        return values
    members = {first: [column[first]] for first in set(map(firsts.__getitem__, joining))}
    consume(map(list.append, map(members.__getitem__, map(firsts.__getitem__, joining)), map(column.__getitem__, joining)))
    values = list(values)
    for first, class_values in members.items():
        # a class's place among the classes: its first row, less the joining rows before it
        values[first - bisect_left(joining, first)] = fold(class_values)
    return tuple(values)


def roll_up(g: Graphoid, targets, step: RollupStep, edge_type: str, measures: MeasurePairs) -> Graphoid:
    """Climb, contract, then aggregate: the usual coarsening move."""
    return aggr(climb(g, targets, step), edge_type, measures)


def drill_down(
    g: Graphoid,
    targets,
    dimension: str,
    to_level: str,
    edge_type: str,
    measures: MeasurePairs,
) -> Graphoid:
    """Re-derive a finer view from the lineage base.

    Only sound while no dice, slice or node deletion happened since the base
    was built; the requested level must be reachable from the base's stored
    level, so any level the original data supports can be re-materialized.
    Every other slot whose level moved since the base is climbed to its level
    in ``g`` again, so earlier climbs on other dimensions are kept.
    """
    if g.tainted:
        raise LineageError("drill-down after a dice, slice or node deletion is undefined")
    base = g.base if g.base is not None else g
    targets = TargetSet.coerce(targets)
    spots = _target_slots(base, targets, dimension)
    if targets.is_wildcard and not spots:
        raise OlapError(f"no type holds dimension {dimension}")
    cur = base
    for name, slot in spots:
        cur = climb(cur, TargetSet.of(name), RollupStep(dimension, base.levels[(name, slot)], to_level))
    for (name, slot), level in g.levels.items():
        if (name, slot) in spots or base.levels.get((name, slot)) == level:
            continue
        if (name, slot) not in base.levels:
            raise LineageError(f"drill-down cannot replay type {name}: it is not in the lineage base")
        dim = base.type_decl(name).dims[slot]
        step = RollupStep(dim, base.levels[(name, slot)], level)
        problems = g.catalog.step_problems(step)
        if problems:
            raise LineageError(f"drill-down cannot replay {name} {dim}: {problems[0]}")
        cur = climb(cur, TargetSet.of(name), step)
    return aggr(cur, edge_type, measures)


def dice(g: Graphoid, cond: Condition) -> Graphoid:
    """Keep the edges satisfying the condition; nodes stay put.

    An atom holds on an edge when it is not false on the edge and on every
    adjacent node, where "not false" means either it cannot be evaluated
    there or it evaluates to true.
    """
    table = g.edge_table
    return g.derive(edge_table=table.where(edge_filter(g, cond)(table)), tainted=True)


def s_dice(g: Graphoid, cond: Condition) -> Graphoid:
    """Dice, then also drop survivors sharing an adjacency set with a removed edge."""
    table = g.edge_table
    sets = table.sets
    passed = edge_filter(g, cond)(table)
    # each row's adjacency as an inline union of its two sets
    removed = set()
    for name, rows in table.types.items():
        removed.update(sets[s] | sets[t] for ok, s, t in zip(passed[name], rows.sources, rows.targets) if not ok)
    keep = {
        name: [ok and sets[s] | sets[t] not in removed for ok, s, t in zip(passed[name], rows.sources, rows.targets)]
        for name, rows in table.types.items()
    }
    return g.derive(edge_table=table.where(keep), tainted=True)


def slice_out(g: Graphoid, dimension: str, measures: MeasurePairs) -> Graphoid:
    """Roll a dimension up to All everywhere and aggregate the listed measures."""
    if dimension == ID_DIMENSION:
        raise OlapError("the Id dimension cannot be sliced out")
    spots = g.slots_of(dimension)
    if not spots:
        raise OlapError(f"dimension {dimension} does not appear in the graph")
    cur = g
    for name, slot in spots:
        stored = cur.levels[(name, slot)]
        if stored != ALL_LEVEL:
            cur = climb(cur, TargetSet.of(name), RollupStep(dimension, stored, ALL_LEVEL))
    result = aggr(cur, WILDCARD, measures)
    return result.derive(tainted=True)


def n_delete(g: Graphoid, node_type: str) -> Graphoid:
    """Remove a node type; edges shrink and vanish once they touch nothing.

    The result is tainted: the base still holds the deleted nodes, so a
    drill-down could not re-derive without bringing them back.  Deleting
    the last nodes of a value is refused, as ``build_graphoid`` refuses a
    value with no nodes.
    """
    g.node_type(node_type)
    node_table = dict(g.node_table)
    rows = node_table.pop(node_type, None)  # None when the type has no nodes
    if rows is not None and not node_table:
        raise OlapError(f"deleting node type {node_type} would leave no nodes: a graph value needs at least one")
    dead = frozenset(rows.ids if rows is not None else ())
    table = _rewrite_sets(g.edge_table, lambda ends: ends - dead)
    touches = [bool(ends) for ends in table.sets]
    keep = {
        name: [touches[source] or touches[target] for source, target in zip(rows.sources, rows.targets)]
        for name, rows in table.types.items()
    }
    return g.derive(node_table=node_table, edge_table=table.where(keep), tainted=True)
