"""The graph OLAP operation algebra.

All operations are pure: they take a graph value and return a derived one.
Climb rewrites label slots along the dimension hierarchy, minimize contracts
nodes that became indistinguishable, aggr merges parallel edges and folds
their measures, and roll-up is the composition of the three.  Dice and its
strong variant filter edges under a three-valued reading of conditions, slice
rolls a dimension out entirely, and n-delete removes a node type.

Every operation reads and writes the graph value's edge table
(``hypergraph.EdgeTable``) and builds no edge objects.  Climb and aggr run
column at a time, over one edge type's rows at once: they gather the type's
rows (all of them when the table holds that type only), transpose the
labels into slot columns with ``zip(*labels)``, rewrite or fold whole
columns with ``map``/``zip``/``compress`` passes, and scatter the rebuilt
labels back to the rows' positions.  Climb maps the catalog's roll over the
climbed column (one call per rolled value); aggr finds each row's class
from the zipped source, target and key columns.  Minimize and n-delete
rewrite the endpoint-set list once per distinct set and remap the two id
columns through it; dice and strong dice keep the rows their condition
passes.  Columns an operation does not rewrite are handed on to its result
unchanged.

Each operation resolves its roll-up steps, class keys and condition atoms
once, to the dimension instances' roll-up maps and to per-type slot
tuples, and then makes one lookup per label value.  Dice reads each node
once per clause, into the set of nodes the clause is false on, and tests
each distinct endpoint set against that set once.  A folded measure slot
remembers its aggregate, so a second fold is either exact (SUM, MIN and MAX
over themselves; COUNT re-folds its counts with SUM) or refused.
"""
from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from decimal import Decimal
from collections import defaultdict, deque
from itertools import compress, count, repeat
from operator import eq, is_not, not_, or_
from typing import Callable, Collection, Iterable, Sequence

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
    NodeTypeDecl,
    make_node,
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


def atom_test(atom: Atom, decl, levels, catalog) -> Callable[[tuple], bool] | None:
    """Resolve an atom on one type to a two-valued test of a label; None when
    the type has no slot for it.  An atom below the slot's stored level is
    refused: its values cannot be rolled down."""
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
    compare = comparator(atom.cmp)
    constant, negated = atom.value, atom.negated

    def test(label: tuple) -> bool:
        value = label[slot] if roll is None else roll(label[slot])
        result = compare(value, constant)
        return (not result) if negated else result

    return test


def edge_filter(g: Graphoid, cond: Condition) -> Callable[[EdgeTable], list[bool]]:
    """Resolve a condition on a graph to a test of edge tables:
    ``edge_filter(g, cond)(table)`` says, row by row, whether each edge
    satisfies the condition.

    An edge satisfies an atom when it is not false on the edge itself and on
    every adjacent node; clauses and the disjunction lift pointwise.  Each
    atom is resolved per declared type once.  Node labels are then read in
    one pass per clause, into the set of nodes some atom of the clause is
    false on, and each distinct endpoint set of the table is tested against
    that set once, so an edge passes a clause when the clause's edge tests
    hold on it and both its sets are clear.  Raises OlapError for a
    condition that ``condition_problems`` or ``atom_test`` refuses, and for a
    measure atom (no level) whose dimension no edge type of the graph holds
    as a measure: it could read no slot, and would hold on every edge.
    """
    problems = condition_problems(g.catalog, cond)
    if problems:
        raise OlapError(problems[0])
    for atom in cond.atoms():
        if atom.level is None and all(decl.measure_slot_of(atom.dim) is None for decl in g.edge_types.values()):
            raise OlapError(f"measure {atom.dim} is not declared by any edge type")
    clauses = []
    for clause in cond.clauses:
        edge_tests: dict[str, list] = {name: [] for name in g.edge_types}
        node_tests: dict[str, list] = {name: [] for name in g.node_types}
        for atom in clause:
            for tests, decls in ((edge_tests, g.edge_types), (node_tests, g.node_types)):
                for name, decl in decls.items():
                    test = atom_test(atom, decl, g.levels, g.catalog)
                    if test is not None:
                        tests[name].append(test)
        false_nodes = frozenset(
            ident for ident, node in g.nodes.items() if not all(test(node.label) for test in node_tests[node.ntype])
        )
        clauses.append(({name: _all_of(tests) for name, tests in edge_tests.items()}, false_nodes))

    def satisfied(table: EdgeTable) -> list[bool]:
        etypes, sources, targets, labels, _, sets = table
        passed = [False] * len(labels)
        for edge_tests, false_nodes in clauses:
            clear = [false_nodes.isdisjoint(ends) for ends in sets]
            # a row that passed an earlier clause is not tested again
            passed = [
                ok or (((test := edge_tests[etype]) is None or test(label)) and clear[source] and clear[target])
                for ok, etype, source, target, label in zip(passed, etypes, sources, targets, labels)
            ]
        return passed

    return satisfied


def _all_of(tests: list[Callable[[tuple], bool]]) -> Callable[[tuple], bool] | None:
    """One test for a conjunction of label tests; None when there are none."""
    if len(tests) <= 1:
        return tests[0] if tests else None
    return lambda label: all(test(label) for test in tests)


# the engine filters whole tables with ``edge_filter``; this one-edge form stays because perfbench's tracer wraps it by name
def edge_satisfies(g: Graphoid, edge: HyperEdge, cond: Condition) -> bool:
    """Does one edge satisfy the condition?  See ``edge_filter``."""
    return edge_filter(g, cond)(EdgeTable.of((edge,)))[0]


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

    Each targeted edge type's labels are transposed into slot columns, the
    climbed column becomes the catalog's roll mapped over it (one
    ``DimensionCatalog.roll`` call per row), and the columns are zipped back
    into labels at the type's rows; rows of other types keep their labels.
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

    node_slots = {name: slot for name, slot in found if name in g.node_types}
    edge_slots = {name: slot for name, slot in found if name in g.edge_types}
    # the catalog resolves the step on the first value and keeps it
    roll, dim, lo, hi = g.catalog.roll, step.dimension, step.from_level, step.to_level

    nodes = dict(g.nodes)
    if node_slots:
        for ident, node in g.nodes.items():
            slot = node_slots.get(node.ntype)
            if slot is not None:
                label = node.label
                nodes[ident] = make_node(node.ntype, label[:slot] + (roll(dim, lo, hi, label[slot]),) + label[slot + 1:])
    levels = dict(g.levels)
    for name, slot in found:
        levels[(name, slot)] = step.to_level
    if not edge_slots:
        return g.derive(nodes=nodes, levels=levels)
    etypes, sources, targets, labels, surrogates, sets = g.edge_table
    climbed = list(labels)
    for name, slot in edge_slots.items():
        rows = _rows_of(etypes, name)
        if rows:
            columns = list(zip(*_take(labels, rows)))
            columns[slot] = map(roll, repeat(dim), repeat(lo), repeat(hi), columns[slot])
            _scatter(climbed, rows, zip(*columns))
    table = EdgeTable(etypes, sources, targets, climbed, surrogates, sets)
    return g.derive(nodes=nodes, edge_table=table, levels=levels)


def _rows_of(etypes: Sequence[str], name: str) -> Sequence[int]:
    """The positions of one edge type's rows, in edge order; every position
    when the table holds that type only."""
    if etypes.count(name) == len(etypes):
        return range(len(etypes))
    return [row for row, etype in enumerate(etypes) if etype == name]


def _take(column: Sequence, rows: Sequence[int]) -> Sequence:
    """The entries of ``column`` at ``rows``; the column itself when ``rows`` is all of it."""
    return column if len(rows) == len(column) else list(map(column.__getitem__, rows))


# drains an iterator at C speed, keeping nothing
_consume = deque(maxlen=0).extend


def _scatter(column: list, rows: Iterable[int], values: Iterable) -> None:
    """Write ``values`` into ``column`` at ``rows``: one slice assignment for a
    range of rows, else one C-level pass."""
    if isinstance(rows, range):
        column[rows.start:rows.stop:rows.step] = values
    else:
        _consume(map(column.__setitem__, rows, values))


def minimize(g: Graphoid) -> Graphoid:
    """Contract nodes that agree on type and every non-identifier slot.

    The surviving representative is the one with the smallest identifier;
    edge endpoints are rewritten through the contraction, the edge bag keeps
    its size.  Idempotent, and independent of input ordering.
    """
    chosen: dict[tuple, int] = {}
    rep: dict[int, int] = {}
    for ident in sorted(g.nodes):
        node = g.nodes[ident]
        key = (node.ntype, node.label[1:])
        if key not in chosen:
            chosen[key] = ident
        rep[ident] = chosen[key]
    if all(k == v for k, v in rep.items()):
        return g.derive()
    nodes = {ident: g.nodes[ident] for ident in sorted(chosen.values())}
    table = _rewrite_sets(g.edge_table, lambda ends: frozenset(map(rep.__getitem__, ends)))
    return g.derive(nodes=nodes, edge_table=table)


def _rewrite_sets(table: EdgeTable, fn: Callable[[frozenset[int]], frozenset[int]]) -> EdgeTable:
    """``table`` with ``fn`` applied to each of its endpoint sets, once per
    set; equal results share one id, and a result equal to its input is the
    input's object."""
    etypes, sources, targets, labels, surrogates, sets = table
    ids: dict[frozenset[int], int] = {}
    remap = []
    for ends in sets:
        new = fn(ends)
        remap.append(ids.setdefault(ends if new == ends else new, len(ids)))
    return EdgeTable(etypes, [remap[i] for i in sources], [remap[i] for i in targets], labels, surrogates, list(ids))


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
    order, never by its surrogate: equal graph values ignore surrogates, and
    saving drops them.  The representative keeps its identifier value, its
    surrogate and its position in the edge order, and its measure slots
    receive the aggregate over the whole class, folded in edge order.  Input
    is contracted first, so equal endpoint sets have equal ids.

    Each targeted edge type is folded column at a time.  Its labels are
    transposed into slot columns; class keys are the zipped source, target
    and key columns, and ``first_at.setdefault`` mapped over them with the
    row positions gives each row its class's first member.  One-member
    classes fold as ``map(fold, zip(column))``; only the members of classes
    with several members are gathered.  A folded value that is the stored
    object or an equal int leaves the stored value in place (a float SUM
    turns -0.0 into 0.0), so only the labels of classes whose slots changed
    are rebuilt, and those are scattered back to the first members' rows.
    Rows of untargeted types pass through unchanged, and never share a
    class with targeted ones.
    """
    g = minimize(g)
    pairs = _coerce_measures(measures)
    plan, folds = _aggregation_plan(g, edge_type, pairs)

    table = g.edge_table
    etypes, sources, targets, labels = table.etypes, table.sources, table.targets, table.labels
    keep = [True] * len(labels)  # per row: an untargeted edge, or its class's first member
    folded = list(labels)
    for name, slots in plan.items():
        rows = _rows_of(etypes, name)
        if not rows:
            continue
        columns = list(zip(*_take(labels, rows)))
        key_slots = [slot for slot, dim in enumerate(g.edge_types[name].dims) if slot not in slots and dim != ID_DIMENSION]
        keys = zip(_take(sources, rows), _take(targets, rows), *map(columns.__getitem__, key_slots))
        first_at: dict[tuple, int] = {}  # class key -> its first member's position among the rows
        firsts = list(map(first_at.setdefault, keys, count()))
        kept = list(map(eq, firsts, count()))
        # classes with several members, by first position
        merged = set(compress(firsts, map(not_, kept))) if len(first_at) < len(firsts) else ()
        changed = None  # per class: some folded slot does not hold its stored value
        for slot, fn in slots.items():
            stored = list(compress(columns[slot], kept))
            values = _fold_column(_FOLDS[fn], columns[slot], stored, firsts, kept, merged)
            flags = map(is_not, values, stored)
            changed = list(flags) if changed is None else list(map(or_, changed, flags))
            columns[slot] = values
        if any(changed):
            rebuilt = zip(*(
                compress(columns[slot] if slot in slots else compress(column, kept), changed)
                for slot, column in enumerate(columns)
            ))
            _scatter(folded, compress(compress(rows, kept), changed), rebuilt)
        _scatter(keep, rows, kept)
    return g.derive(edge_table=table.where(keep, list(compress(folded, keep))), folds=folds)


def _fold_column(fold, column: Sequence, stored: list, firsts: list[int], kept: list[bool], merged: Collection[int]) -> list:
    """One measure slot folded per class, classes in the order of their first
    members, with the stored value standing in where it can (``_stand_in``).

    ``stored`` holds each class's first value.  Every class is folded as if
    it had one member; then the members of each class in ``merged`` are
    gathered, in edge order, and their folds replace those of the classes'
    first values.
    """
    values = list(map(fold, zip(stored)))
    if merged:
        in_merged = list(map(merged.__contains__, firsts))
        members: defaultdict[int, list] = defaultdict(list)
        for first, value in zip(compress(firsts, in_merged), compress(column, in_merged)):
            members[first].append(value)
        # the merged classes' places among all classes, in the same order
        for at, class_values in zip(compress(count(), compress(in_merged, kept)), members.values()):
            values[at] = fold(class_values)
    return list(map(_stand_in, values, stored))


def _stand_in(value: object, stored: object) -> object:
    """A folded value, or the stored one when the fold returned it or an equal
    int (0 + -0.0 is 0.0, so a float is never an equal stand-in)."""
    if value is stored or (type(value) is int and type(stored) is int and value == stored):
        return stored
    return value


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
    sets, sources, targets = table.sets, table.sources, table.targets
    passed = edge_filter(g, cond)(table)
    # each row's adjacency as an inline union of its two sets
    removed = {sets[s] | sets[t] for ok, s, t in zip(passed, sources, targets) if not ok}
    keep = [ok and sets[s] | sets[t] not in removed for ok, s, t in zip(passed, sources, targets)]
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
    drill-down could not re-derive without bringing them back.
    """
    g.node_type(node_type)
    dead = {ident for ident, node in g.nodes.items() if node.ntype == node_type}
    nodes = {ident: node for ident, node in g.nodes.items() if ident not in dead}
    table = _rewrite_sets(g.edge_table, lambda ends: ends - dead)
    touches = [bool(ends) for ends in table.sets]
    keep = [touches[source] or touches[target] for source, target in zip(table.sources, table.targets)]
    return g.derive(nodes=nodes, edge_table=table.where(keep), tainted=True)
