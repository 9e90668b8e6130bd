"""Node/edge-labelled directed multi-hypergraphs over dimension catalogs.

Nodes carry a typed label vector whose first slot is a globally unique
integer identifier.  Hyperedges connect a set of source node ids to a set of
target node ids and form a bag: two edges with identical type, endpoints and
label are distinct occurrences.  Each (type, slot) pair tracks the dimension
level its values currently live at.

A graph value holds its edge bag in one store, an ``EdgeTable``: parallel
columns of edge type, source-set id, target-set id, label and surrogate,
one row per edge in edge order, over one list of the value's distinct
endpoint sets, each a frozenset held once.  ``build_graphoid`` (and so a
JSON load, ``store.generate``, ``store.ingest_calls`` and ``cubes.star``)
writes a table, ``edgify`` appends rows to one, the operators of ``olap``
read and write tables, and ``metrics``, ``store.graphoid_to_json``, the
CLI's CSV output and ``cubes.unstar`` read them: none builds a per-edge
object.  Edges given to ``Graphoid(...)``, or as ``edges=`` to ``derive``
or ``replaced``, are turned into a table once, by ``EdgeTable.of``.
``build_graphoid`` checks its edge rows and writes their table a column at
a time (``_checked_table``): each edge type's rows are transposed once with
``zip(*rows)``, a slot's membership is one test of its column, a parsed
slot (a JSON document's ISO dates) is parsed once per distinct string, and
the labels are zipped back once.  Only when some row fails are the rows
read one at a time, by ``_report_edge_rows``, the one place that words an
edge row's problems.
``Graphoid.edges``, the public view, is a tuple of ``HyperEdge``s built
from the table on first read and kept, in which each distinct endpoint set
is the table's one frozenset; on 64-bit CPython 3.11 it costs about 110
bytes per edge beyond the table's 40.

``HyperEdge(...)``, ``Node(...)`` and ``Graphoid(...)`` are the public
constructors; the engine skips their frozen dataclass ``__init__`` (one
``object.__setattr__`` per field).  Edges come from ``make_edge`` (when
``.edges`` is built from a table) and nodes from ``make_node``, each made
by ``slot_writer`` from its record: an unfrozen twin derived from the
record's own fields, so it has the same slot layout.  The twin's
``__init__`` takes every field positionally (``surrogate`` too), converts
nothing, fills the slots with plain writes and then turns the object into
the record, which the equal layout allows; what it returns is an ordinary
``HyperEdge`` or ``Node``.
Graph values come from one internal constructor, ``_graphoid``, which sets
a value's field dict in one step: ``build_graphoid`` returns its value, and
``Graphoid.derive`` and ``replaced`` (``dataclasses.replace`` for graph
values) copy the parent's fields and start an empty index table.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields, make_dataclass
from itertools import chain, compress, count, repeat
from operator import eq, itemgetter
from typing import AbstractSet, Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

try:
    from operator import call
except ImportError:  # Python 3.10: operator.call is new in 3.11
    def call(test: Callable[[object], bool], value: object) -> bool:
        return test(value)

from .dims import ALL_LEVEL, ALL_MEMBER, DimensionCatalog, DimensionInstance, ID_DIMENSION, ID_LEVEL

AGGREGATES = ("SUM", "MIN", "MAX", "COUNT", "AVG")


class GraphoidError(ValueError):
    """Base class for graph-value construction and operation errors."""


class GraphoidBuildError(GraphoidError):
    """Carries the full validation report for a rejected graph value."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class _TypeDecl:
    """A type name plus the dimension of each label slot."""

    name: str
    dims: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.dims)

    def slot_of(self, dim: str) -> int | None:
        """The label slot holding a dimension, None when the type lacks it."""
        return self.dims.index(dim) if dim in self.dims else None


@dataclass(frozen=True)
class NodeTypeDecl(_TypeDecl):
    """A node type; slot 0 holds the Id dimension."""


@dataclass(frozen=True)
class EdgeTypeDecl(_TypeDecl):
    """An edge type; ``measures`` maps label slots to default aggregates."""

    measures: tuple[tuple[int, str], ...] = ()

    def measure_slot_of(self, dim: str) -> int | None:
        for slot, _ in self.measures:
            if self.dims[slot] == dim:
                return slot
        return None


_R = TypeVar("_R")


def slot_writer(cls: type[_R]) -> Callable[..., _R]:
    """A constructor of the frozen, slotted dataclass ``cls`` that writes its
    slots directly: ``slot_writer(cls)(*values)`` equals ``cls(*values)``
    and is of type ``cls``.  Every field is a positional argument, in field
    order, with no default.  ``make_node`` and ``make_edge`` are its two
    twins."""

    def __post_init__(self) -> None:
        self.__class__ = cls

    return make_dataclass(
        f"_{cls.__name__}Writer",
        [(f.name, f.type) for f in fields(cls)],
        namespace={"__post_init__": __post_init__},
        slots=True,
        eq=False,
        repr=False,
        match_args=False,
    )


@dataclass(frozen=True, slots=True)
class Node:
    """One node; slotted, so it holds no ``__dict__``.  The engine's own
    nodes come from ``make_node``, which builds the same value more cheaply."""

    ntype: str
    label: tuple

    @property
    def ident(self) -> int:
        return self.label[0]


make_node: Callable[[str, tuple], Node] = slot_writer(Node)


@dataclass(frozen=True, slots=True)
class HyperEdge:
    """One edge occurrence; ``surrogate`` is internal bookkeeping, never compared.

    Slotted, so an edge holds no ``__dict__``.  Edges of one graph value with
    equal endpoint sets hold the same frozenset objects.  The engine's own
    edges come from ``make_edge``, which builds the same value more cheaply.
    """

    etype: str
    source: frozenset[int]
    target: frozenset[int]
    label: tuple
    surrogate: int = field(compare=False, default=0)

    @property
    def adjacency(self) -> frozenset[int]:
        return self.source | self.target


make_edge: Callable[[str, frozenset[int], frozenset[int], tuple, int], HyperEdge] = slot_writer(HyperEdge)


class EdgeTable(NamedTuple):
    """An edge bag as parallel columns, one row per edge in edge order.

    ``sets`` holds each distinct endpoint set once; ``sources`` and
    ``targets`` are indexes into it, so two rows have equal endpoint sets
    exactly when they have equal ids.  Columns are never changed once a table
    is built, so an operator hands the columns it does not rewrite on to its
    result, and ``surrogates`` may be a ``range``.
    """

    etypes: Sequence[str]
    sources: Sequence[int]
    targets: Sequence[int]
    labels: Sequence[tuple]
    surrogates: Sequence[int]
    sets: Sequence[frozenset[int]]

    @classmethod
    def of(cls, edges: Iterable[HyperEdge]) -> EdgeTable:
        """The table of ``edges``; each distinct set is the first object found for it."""
        edges = tuple(edges)  # read once: each column is one more pass
        ids: dict[frozenset[int], int] = {}
        sources = [ids.setdefault(e.source, len(ids)) for e in edges]
        targets = [ids.setdefault(e.target, len(ids)) for e in edges]
        return cls(
            [e.etype for e in edges], sources, targets, [e.label for e in edges], [e.surrogate for e in edges], list(ids)
        )

    def edges(self) -> tuple[HyperEdge, ...]:
        """The rows as edges; rows with equal set ids share their frozensets."""
        at = self.sets.__getitem__
        return tuple(map(make_edge, self.etypes, map(at, self.sources), map(at, self.targets), self.labels, self.surrogates))

    def where(self, mask: Sequence[bool], labels: Sequence[tuple] | None = None) -> EdgeTable:
        """The rows whose ``mask`` entry is true, in order; ``labels``, when
        given, are those rows' new labels.  Keeping every row keeps the
        columns."""
        etypes, sources, targets, old_labels, surrogates, sets = self
        if all(mask):
            return self if labels is None else EdgeTable(etypes, sources, targets, labels, surrogates, sets)
        return EdgeTable(
            list(compress(etypes, mask)), list(compress(sources, mask)), list(compress(targets, mask)),
            list(compress(old_labels, mask)) if labels is None else labels, list(compress(surrogates, mask)), sets,
        )


@dataclass(frozen=True, eq=False)
class Graphoid:
    """An immutable graph value bound to a dimension catalog.

    ``levels`` maps (type name, slot) to the current level of that slot's
    dimension.  ``base``/``tainted`` track lineage: ``base`` points at the
    graph the value was derived from (None for freshly built ones) and
    ``tainted`` records that a dice, slice or node deletion happened along
    the way.
    ``folds`` maps each measure slot an aggregation folded to the aggregate
    its values now hold; unfolded slots hold raw values.  ``edge_table`` is
    the edge bag's one store, made from the ``edges`` the constructor is
    given; ``edges`` is built from it on first read (see the module docstring).
    """

    catalog: DimensionCatalog = field(repr=False)
    node_types: Mapping[str, NodeTypeDecl]
    edge_types: Mapping[str, EdgeTypeDecl]
    nodes: Mapping[int, Node]
    edges: tuple[HyperEdge, ...]
    levels: Mapping[tuple[str, int], str]
    base: Graphoid | None = field(default=None, repr=False)
    tainted: bool = False
    folds: Mapping[tuple[str, int], str] = field(default_factory=dict)
    # indexes built from this value by ``indexed``; ``derive`` starts a child with none
    _indexes: dict[object, object] = field(init=False, compare=False, repr=False, default_factory=dict)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def __post_init__(self) -> None:
        state = self.__dict__
        state["edge_table"] = EdgeTable.of(state.pop("edges"))

    @property
    def edge_count(self) -> int:
        return len(self.edge_table.labels)

    def __getattr__(self, name: str) -> object:
        # called only for a name the value does not hold: ``edges`` is built
        # from the table on first read, and kept
        if name != "edges":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        edges = self.__dict__["edges"] = self.edge_table.edges()
        return edges

    def node_type(self, name: str) -> NodeTypeDecl:
        try:
            return self.node_types[name]
        except KeyError:
            raise GraphoidError(f"unknown node type {name!r}") from None

    def edge_type(self, name: str) -> EdgeTypeDecl:
        try:
            return self.edge_types[name]
        except KeyError:
            raise GraphoidError(f"unknown edge type {name!r}") from None

    def type_decl(self, name: str) -> NodeTypeDecl | EdgeTypeDecl:
        if name in self.node_types:
            return self.node_types[name]
        if name in self.edge_types:
            return self.edge_types[name]
        raise GraphoidError(f"unknown type {name!r}")

    def slots_of(self, dim: str) -> list[tuple[str, int]]:
        """Every (type, slot) holding a dimension, node types first."""
        return [
            (decl.name, slot)
            for decl in (*self.node_types.values(), *self.edge_types.values())
            if (slot := decl.slot_of(dim)) is not None
        ]

    def edge_multiset(self) -> Counter:
        etypes, sources, targets, labels, _, sets = self.edge_table
        at = sets.__getitem__
        return Counter(zip(etypes, map(at, sources), map(at, targets), labels))

    def bag_equal(self, other: Graphoid) -> bool:
        return (
            dict(self.node_types) == dict(other.node_types)
            and dict(self.edge_types) == dict(other.edge_types)
            and dict(self.nodes) == dict(other.nodes)
            and dict(self.levels) == dict(other.levels)
            and self.edge_multiset() == other.edge_multiset()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graphoid):
            return NotImplemented
        return self.bag_equal(other)

    __hash__ = None  # type: ignore[assignment]

    def indexed(self, key: object, build: Callable[[Graphoid], object]) -> object:
        """The index kept under ``key``: ``build(self)`` on first use, the same
        object on every later call.  Sound because the value never changes."""
        index = self._indexes.get(key)
        if index is None:
            index = self._indexes[key] = build(self)
        return index

    def derive(self, **changes) -> Graphoid:
        """A child value: same lineage root, taint preserved unless overridden."""
        changes.setdefault("base", self.base if self.base is not None else self)
        return replaced(self, **changes)


# the fields a graph value is built from: ``Graphoid.__init__``'s parameters,
# and ``edge_table``, the store that ``edges`` are turned into
_GRAPHOID_FIELDS = frozenset(f.name for f in fields(Graphoid) if f.init) | {"edge_table"}


def _graphoid(state: dict[str, object]) -> Graphoid:
    """The graph value whose fields are ``state``, one entry per name in
    ``_GRAPHOID_FIELDS`` but ``edges``, with an empty index table: what
    ``Graphoid(**state)`` returns for the edges of ``state["edge_table"]``,
    without one ``object.__setattr__`` per field."""
    state["_indexes"] = {}
    g = object.__new__(Graphoid)
    object.__setattr__(g, "__dict__", state)
    return g


def replaced(g: Graphoid, **changes) -> Graphoid:
    """``dataclasses.replace(g, **changes)`` through ``_graphoid``: the other
    fields are ``g``'s, the index table is new, and a name that is not a
    field is refused with ``TypeError``.  New ``edges`` are turned into the
    value's table; a new table drops ``g``'s built ``edges``."""
    unknown = changes.keys() - _GRAPHOID_FIELDS
    if unknown:
        raise TypeError(f"graph values have no field {sorted(unknown)[0]!r}")
    state = g.__dict__.copy()
    if "edges" in changes:
        changes["edge_table"] = EdgeTable.of(changes.pop("edges"))
    if "edge_table" in changes:
        state.pop("edges", None)
    state.update(changes)
    return _graphoid(state)


def _validate_node_decl(decl: NodeTypeDecl, catalog: DimensionCatalog, problems: list[str]) -> None:
    if not decl.name.startswith("#"):
        problems.append(f"node type {decl.name!r}: type names start with '#'")
    if decl.arity < 1 or decl.dims[0] != ID_DIMENSION:
        problems.append(f"node type {decl.name}: slot 0 must hold the {ID_DIMENSION} dimension")
        return
    if len(set(decl.dims)) != len(decl.dims):
        problems.append(f"node type {decl.name}: repeated dimensions")
    for dim in decl.dims:
        if dim not in catalog:
            problems.append(f"node type {decl.name}: unknown dimension {dim!r}")


def _validate_edge_decl(decl: EdgeTypeDecl, catalog: DimensionCatalog, problems: list[str]) -> None:
    if not decl.name.startswith("#"):
        problems.append(f"edge type {decl.name!r}: type names start with '#'")
    if len(set(decl.dims)) != len(decl.dims):
        problems.append(f"edge type {decl.name}: repeated dimensions")
    if decl.dims.count(ID_DIMENSION) > 1:
        problems.append(f"edge type {decl.name}: at most one {ID_DIMENSION} slot")
    for dim in decl.dims:
        if dim not in catalog:
            problems.append(f"edge type {decl.name}: unknown dimension {dim!r}")
    for slot, fn in decl.measures:
        if slot < 0 or slot >= decl.arity:
            problems.append(f"edge type {decl.name}: measure slot {slot} out of range")
        elif decl.dims[slot] == ID_DIMENSION:
            problems.append(f"edge type {decl.name}: the {ID_DIMENSION} slot cannot be a measure")
        if fn not in AGGREGATES:
            problems.append(f"edge type {decl.name}: unknown aggregate {fn!r}")


def default_levels(
    node_types: Iterable[NodeTypeDecl],
    edge_types: Iterable[EdgeTypeDecl],
    catalog: DimensionCatalog,
) -> dict[tuple[str, int], str]:
    """Every slot starts at its dimension's bottom level."""
    levels: dict[tuple[str, int], str] = {}
    for decl in (*node_types, *edge_types):
        for slot, dim in enumerate(decl.dims):
            if dim in catalog:
                levels[(decl.name, slot)] = catalog.schema(dim).bottom
    return levels


def build_graphoid(
    catalog: DimensionCatalog,
    node_types: Iterable[NodeTypeDecl],
    edge_types: Iterable[EdgeTypeDecl],
    nodes: Iterable[Node | tuple],
    edges: Iterable[tuple],
    levels: Mapping[tuple[str, int], str] | None = None,
    parse: Mapping[tuple[str, int], Callable[[str], object]] | None = None,
) -> Graphoid:
    """Validate and assemble a graph value.

    ``nodes`` accepts Node objects or (type, label...) rows; ``edges`` accepts
    HyperEdges or (type, sources, targets, label...) rows, whose sources and
    targets are collections of node ids.  Raises GraphoidBuildError with
    the full report when anything is off.

    The edge rows are checked and turned into the value's table a column at
    a time (``_checked_table``).  ``parse`` maps edge (type, slot)s to the
    parse of a string held there, as a JSON document's ISO dates need: each
    distinct string is parsed once, the parsed value is the one checked and
    kept, and a string the parse refuses (``ValueError``) fails the check.
    When any row fails, ``_report_edge_rows`` words every problem of every
    row in row order, reading the rows as given: a caller that parses
    values decodes the rows itself before asking for that report, as
    ``store.graphoid_from_json`` does.
    """
    problems: list[str] = []
    ntypes: dict[str, NodeTypeDecl] = {}
    for decl in node_types:
        if decl.name in ntypes:
            problems.append(f"node type {decl.name}: declared twice")
        ntypes[decl.name] = decl
        _validate_node_decl(decl, catalog, problems)
    etypes: dict[str, EdgeTypeDecl] = {}
    for decl in edge_types:
        if decl.name in etypes or decl.name in ntypes:
            problems.append(f"edge type {decl.name}: declared twice")
        etypes[decl.name] = decl
        _validate_edge_decl(decl, catalog, problems)
    if problems:
        raise GraphoidBuildError(problems)

    level_map = default_levels(ntypes.values(), etypes.values(), catalog)
    if levels:
        for (tname, slot), level in levels.items():
            if tname not in ntypes and tname not in etypes:
                problems.append(f"level map references unknown type {tname!r}")
                continue
            decl = ntypes.get(tname) or etypes[tname]
            if slot < 0 or slot >= decl.arity:
                problems.append(f"level map: type {tname} has no slot {slot}")
                continue
            dim = decl.dims[slot]
            if not catalog.schema(dim).has_level(level):
                problems.append(f"level map: dimension {dim} has no level {level!r}")
                continue
            level_map[(tname, slot)] = level
    if problems:
        raise GraphoidBuildError(problems)
    # one resolved membership test per (type, slot) -- a predicate on values for
    # nodes and on a column of values for edges; a type's arity is the length of its tuple
    def slot_tests(decls: Mapping[str, NodeTypeDecl | EdgeTypeDecl], resolve: Callable) -> dict[str, tuple]:
        return {
            name: tuple(resolve(catalog.instance(dim), level_map[(name, slot)]) for slot, dim in enumerate(decl.dims))
            for name, decl in decls.items()
        }

    node_tests = slot_tests(ntypes, DimensionInstance.member_test)
    column_tests = slot_tests(etypes, DimensionInstance.column_test)

    node_table: dict[int, Node] = {}
    for row in nodes:
        try:
            node = row if isinstance(row, Node) else make_node(str(row[0]), tuple(row[1:]))
        except (LookupError, TypeError):
            problems.append(f"node row {row!r}: expected a type and a label")
            continue
        if node.ntype not in ntypes:
            problems.append(f"node {node.label!r}: unknown node type {node.ntype}")
            continue
        decl = ntypes[node.ntype]
        if len(node.label) != decl.arity:
            problems.append(f"node {node.label!r}: expected {decl.arity} label slots")
            continue
        ident = node.label[0]
        if not isinstance(ident, int) or isinstance(ident, bool):
            problems.append(f"node {node.label!r}: identifier slot must be an integer")
            continue
        if ident in node_table:
            problems.append(f"node id {ident}: duplicate identifier")
            continue
        tests = node_tests[node.ntype]
        try:
            if all(map(call, tests, node.label)):
                node_table[ident] = node
                continue
        except TypeError:  # an unhashable value at a closed level: reported below
            pass
        for slot, (value, member) in enumerate(zip(node.label, tests)):
            if not _holds(member, value):
                problems.append(
                    f"node {node.label!r}: slot {slot} value {value!r} outside "
                    f"dom({decl.dims[slot]}.{level_map[(node.ntype, slot)]})"
                )
    if not node_table and not problems:
        problems.append("non-empty node set required")
    if problems:
        raise GraphoidBuildError(problems)

    rows = list(edges)
    table = _checked_table(rows, column_tests, node_table.keys(), parse or {})
    if table is None:
        # a HyperEdge row is read as the row (type, sources, targets, label...)
        rows = [(e.etype, e.source, e.target, *e.label) if isinstance(e, HyperEdge) else e for e in rows]
        _report_edge_rows(rows, etypes, slot_tests(etypes, DimensionInstance.member_test), node_table, level_map, problems)
        raise GraphoidBuildError(problems)
    ordered_nodes = {ident: node_table[ident] for ident in sorted(node_table)}
    return _graphoid({
        "catalog": catalog,
        "node_types": ntypes,
        "edge_types": etypes,
        "nodes": ordered_nodes,
        "edge_table": table,
        "levels": level_map,
        "base": None,
        "tainted": False,
        "folds": {},
    })


# an edge row's type, sources and targets; the row types whose iteration reads
# what indexing reads; the one type of an endpoint id, and of a type name
_TYPE, _SOURCES, _TARGETS = itemgetter(0), itemgetter(1), itemgetter(2)
_ROWS, _INT, _STR = frozenset({list, tuple}), frozenset({int}), frozenset({str})


def _checked_table(
    rows: list,
    column_tests: Mapping[str, tuple],
    node_ids: AbstractSet[int],
    parse: Mapping[tuple[str, int], Callable[[str], object]],
) -> EdgeTable | None:
    """The edge table of ``rows`` when every row passes every check, else
    None, and ``build_graphoid`` falls back to the per-row report.

    The rows are read a column at a time, with no per-row Python step:
    - the type column: every type declared (a row's type is ``str`` of
      what it holds);
    - per edge type, its rows transposed once with ``zip(*rows)``, which
      checks that they share one width, the type's label width; on those
      columns each ``parse`` slot's strings are parsed once per distinct
      string, each slot's column test runs once (see
      ``DimensionInstance.column_test``), and the labels are zipped back,
      several types' merged in row order;
    - the endpoint columns, over all rows: every id an integer by type (5.0
      and True equal ints, so a set cannot tell them apart), no row with
      both sets empty, and each distinct set, a frozenset held once and
      numbered at its first row, sources first, a set of nodes.
    A built edge's surrogate is its position.  A row that is not a list or
    tuple is read by position, as ``_report_edge_rows`` reads it.
    """
    try:
        if not _ROWS.issuperset(map(type, rows)):
            rows = list(map(_positions, rows))
        types = list(map(_TYPE, rows))
        kinds = set(types)
        if not _STR.issuperset(map(type, kinds)):
            types = list(map(str, types))
            kinds = set(types)
        if not column_tests.keys() >= kinds:
            return None
        if len(kinds) == 1:
            etypes = [*kinds] * len(rows)
            typed = dict.fromkeys(kinds, rows)
        else:
            etypes = types
            typed = {}
            for kind in kinds:
                typed[kind] = list(compress(rows, map(eq, etypes, repeat(kind))))
        labels_of: dict[str, list[tuple]] = {}
        for kind, kind_rows in typed.items():
            tests = column_tests[kind]
            columns = list(zip(*kind_rows, strict=True))
            if len(columns) != 3 + len(tests):
                return None
            slots = columns[3:]
            for slot, test in enumerate(tests):
                if parse and (read := parse.get((kind, slot))) is not None:
                    column = slots[slot]
                    parsed = {value: read(value) for value in set(column) if isinstance(value, str)}
                    slots[slot] = list(map(parsed.get, column, column))
                if not test(slots[slot]):
                    return None
            labels_of[kind] = list(zip(*slots)) if slots else [()] * len(kind_rows)
        if len(labels_of) == 1:
            (labels,) = labels_of.values()
            source_column, target_column = columns[1], columns[2]
        else:
            rest = dict(zip(labels_of, map(iter, labels_of.values())))
            labels = list(map(next, map(rest.__getitem__, etypes)))
            source_column, target_column = list(map(_SOURCES, rows)), list(map(_TARGETS, rows))
        if not (
            _INT.issuperset(map(type, chain.from_iterable(source_column)))
            and _INT.issuperset(map(type, chain.from_iterable(target_column)))
        ):
            return None
        # each distinct set numbered at its first row, sources first; a repeat is dropped at once
        set_ids: defaultdict[frozenset[int], int] = defaultdict(count().__next__)
        sources = list(map(set_ids.__getitem__, map(frozenset, source_column)))
        targets = list(map(set_ids.__getitem__, map(frozenset, target_column)))
        empty = set_ids.get(frozenset())
        if empty is not None and (empty, empty) in zip(sources, targets):
            return None
        if not node_ids >= frozenset().union(*set_ids):
            return None
    except (LookupError, TypeError, ValueError):
        return None
    return EdgeTable(etypes, sources, targets, labels, range(len(labels)), list(set_ids))


def _positions(row: object) -> tuple | None:
    """What ``row``'s positions hold, as a tuple: a HyperEdge as (type, sources,
    targets, label...), any other row by indexing; None when it has no such
    positions."""
    if isinstance(row, HyperEdge):
        return (row.etype, row.source, row.target, *row.label)
    try:
        return (row[0], row[1], row[2], *row[3:])
    except (LookupError, TypeError):
        return None


def _holds(member: Callable[[object], bool], value: object) -> bool:
    """``member(value)``, false for a value a closed level cannot hash."""
    try:
        return member(value)
    except TypeError:
        return False


def _report_edge_rows(
    rows: list,
    etypes: Mapping[str, EdgeTypeDecl],
    edge_tests: Mapping[str, tuple],
    node_table: Mapping[int, Node],
    level_map: Mapping[tuple[str, int], str],
    problems: list[str],
) -> None:
    """Append each problem of each row to ``problems``, in row order."""
    for row in rows:
        try:
            etype, source, target, label = str(row[0]), row[1], row[2], tuple(row[3:])
            ids = (*source, *target)
            frozenset(source), frozenset(target)
        except (LookupError, TypeError):
            problems.append(f"edge row {row!r}: expected a type, source ids and target ids")
            continue
        if etype not in etypes:
            problems.append(f"edge {label!r}: unknown edge type {etype}")
            continue
        decl = etypes[etype]
        if len(label) != decl.arity:
            problems.append(f"edge {etype} {label!r}: expected {decl.arity} label slots")
            continue
        if not ids:
            problems.append(f"edge {etype} {label!r}: source and target sets are both empty")
            continue
        for ident in ids:
            if type(ident) is not int:
                problems.append(f"edge {etype} {label!r}: endpoint {ident!r} is not an integer")
        for ident in sorted({ident for ident in ids if type(ident) is int and ident not in node_table}):
            problems.append(f"edge {etype} {label!r}: endpoint {ident} is not a node")
        for slot, (value, member) in enumerate(zip(label, edge_tests[etype])):
            if not _holds(member, value):
                problems.append(
                    f"edge {etype} {label!r}: slot {slot} value {value!r} outside "
                    f"dom({decl.dims[slot]}.{level_map[(etype, slot)]})"
                )


def edgify(g: Graphoid, ntype: str, slot: int) -> Graphoid:
    """Move a node label slot onto fresh single-target hyperedges.

    Every node of the type loses its slot value (replaced by "all" at level
    All) and gains an incoming edge of a new type named after the dimension,
    labelled with the old value.  Applying the same move twice is a no-op
    beyond registering the edge type.
    """
    decl = g.node_type(ntype)
    if slot <= 0 or slot >= decl.arity:
        raise GraphoidError(f"edgify: type {ntype} has no movable slot {slot}")
    dim = decl.dims[slot]
    new_type = f"#Has{dim}"
    old_level = g.levels[(ntype, slot)]
    edge_decl = EdgeTypeDecl(new_type, (dim,), measures=((0, "SUM"),))
    if new_type in g.node_types or g.edge_types.get(new_type, edge_decl) != edge_decl:
        raise GraphoidError(f"edgify: type name {new_type} already taken")
    etypes = dict(g.edge_types)
    levels = dict(g.levels)
    if new_type not in etypes:
        etypes[new_type] = edge_decl
        levels[(new_type, 0)] = old_level

    if old_level == ALL_LEVEL:
        return g.derive(edge_types=etypes, levels=levels)

    nodes = dict(g.nodes)
    etype_column, sources, targets, labels, surrogates, sets = g.edge_table
    set_ids = dict(zip(sets, range(len(sets))))  # a table's sets are distinct
    no_source = set_ids.setdefault(frozenset(), len(set_ids))
    new_targets, new_labels = [], []
    for ident in sorted(nodes):
        node = nodes[ident]
        if node.ntype != ntype:
            continue
        label = list(node.label)
        new_labels.append((label[slot],))
        label[slot] = ALL_MEMBER
        nodes[ident] = make_node(ntype, tuple(label))
        new_targets.append(set_ids.setdefault(frozenset({ident}), len(set_ids)))
    n, first = len(new_labels), max(surrogates, default=-1) + 1
    table = EdgeTable(
        [*etype_column, *[new_type] * n], [*sources, *[no_source] * n], [*targets, *new_targets],
        [*labels, *new_labels], [*surrogates, *range(first, first + n)], list(set_ids),
    )
    levels[(ntype, slot)] = ALL_LEVEL
    return g.derive(edge_types=etypes, nodes=nodes, edge_table=table, levels=levels)
