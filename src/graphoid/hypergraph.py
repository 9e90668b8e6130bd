"""Node/edge-labelled directed multi-hypergraphs over dimension catalogs.

Nodes carry a typed label vector whose first slot is a globally unique
integer identifier.  Hyperedges connect a set of source node ids to a set of
target node ids and form a bag: two edges with identical type, endpoints and
label are distinct occurrences.  Each (type, slot) pair tracks the dimension
level its values currently live at.

A graph value holds its edge bag in one store, an ``EdgeTable``: one
sub-table (``TypeRows``) per edge type with rows, over one list of the
value's distinct endpoint sets, each a frozenset held once.  A sub-table
holds the columns of the edge bag and nothing else: parallel columns of
source-set id and target-set id, and the labels as slot columns, each
holding one slot's values, one entry per row.  Edge order is each type's
rows in order, types in the order of their first row: the order of edges
of different types is not part of the value, so a table keeps none.  An operator rewrites, tests or folds one sub-table
at a time, and a slot as one column.
``build_graphoid`` (and so a JSON load, ``store.generate``,
``store.ingest_calls`` and ``cubes.star``) writes a table, ``edgify``
appends rows to one, the operators of ``olap`` read and write tables, and
``metrics``, ``store.graphoid_to_json``, the CLI's CSV output and
``cubes.unstar`` read them: none builds a per-edge object.  Edges given to
``Graphoid(...)``, or as ``edges=`` to ``derive`` or ``replaced``, are
turned into a table once, by ``EdgeTable.of``.
``build_graphoid`` checks its edge rows and writes their table a column at
a time (``_checked_table``): each edge type's rows are gathered in input
order (rows of one edge type are taken as given, with no gather) and
transposed once with ``zip(*rows)``, a slot's membership is one
test of its column, a parsed slot (a JSON document's ISO dates) is parsed
once per distinct string, and the transposed columns are kept as the
type's slot columns.  Only when some row fails are the rows read one at a
time, by ``_report_edge_rows``, the one place that words an edge row's
problems.  Node rows are checked the same way (``_checked_nodes``), each
node type's rows sorted by id and transposed once into its ``NodeRows``;
``_report_node_rows`` reads them one at a time, and words their problems,
only when some row fails or is a ``Node``.
``Graphoid.edges``, the public view, is a tuple of ``HyperEdge``s built
from the table on first read and kept, in which each distinct endpoint set
is the table's one frozenset.

Nodes are held the same way, in one store, the node table: one
``NodeRows`` per node type with nodes, its ids in ascending order and its
labels as slot columns, types in the order of their smallest id.  A value
built from the same nodes has the same table, whatever order they came
in.  ``build_graphoid`` writes the table from the checked columns, and
nodes given to ``Graphoid(...)``, or as ``nodes=`` to ``derive`` or
``replaced``, are turned into a table once, by ``node_table_of``, which
transposes each node type's labels once.
``climb`` and ``edgify`` replace one node column (``with_column``),
``minimize`` keys each type's nodes on its zipped columns, ``n_delete``
drops one sub-table, and dice's and path queries' node tests, the saved
document's node rows and ``cubes.unstar`` read the table.
``Graphoid.nodes``, the public view, is a dict of ``Node``s by id, in id
order, built from the table on first read and kept.

Nodes and edges are built with ``Node(...)`` and ``HyperEdge(...)``.
Besides the public ``Graphoid(...)``, graph values come from one internal
constructor, ``_graphoid``, which sets a value's field dict in one step:
``build_graphoid`` returns its value, and ``Graphoid.derive`` and
``replaced`` (``dataclasses.replace`` for graph values) copy the parent's
fields and start an empty index table.
"""
from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field, fields
from itertools import chain, compress, count, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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


@dataclass(frozen=True, slots=True)
class Node:
    """One node; slotted, so it holds no ``__dict__``."""

    ntype: str
    label: tuple

    @property
    def ident(self) -> int:
        return self.label[0]


@dataclass(frozen=True, slots=True)
class HyperEdge:
    """One edge occurrence: a type, a source set, a target set and a label.

    Slotted, so an edge holds no ``__dict__``.  Edges of one graph value with
    equal endpoint sets hold the same frozenset objects.  ``surrogate`` is
    never compared, and a graph value does not keep it: an edge's identity,
    if it has one, is an Id slot of its label, and every edge read from
    ``Graphoid.edges`` carries surrogate 0.
    """

    etype: str
    source: frozenset[int]
    target: frozenset[int]
    label: tuple
    surrogate: int = field(compare=False, default=0)

    @property
    def adjacency(self) -> frozenset[int]:
        return self.source | self.target


class TypeRows(NamedTuple):
    """The rows of one edge type, as parallel columns in edge order: the
    columns of the edge bag and nothing else.

    ``sources`` and ``targets`` are indexes into the table's ``sets``.
    ``columns`` holds the labels, one tuple of values per label slot (a type
    with no label slots has an empty tuple).  Columns are never changed once
    built, so an operator hands the ones it does not rewrite on to its
    result.
    """

    sources: Sequence[int]
    targets: Sequence[int]
    columns: tuple[tuple, ...]

    def labels(self) -> Iterator[tuple]:
        """Each row's label, in order, zipped from the slot columns."""
        return zip(*self.columns) if self.columns else repeat((), len(self.sources))


class EdgeTable(NamedTuple):
    """An edge bag as one ``TypeRows`` per edge type with rows, over
    ``sets``, which holds each distinct endpoint set once: two rows have
    equal endpoint sets exactly when they have equal ids.  Edge order is
    each type's rows in order, types in the order of ``types``.
    """

    types: Mapping[str, TypeRows]
    sets: Sequence[frozenset[int]]

    @classmethod
    def of(cls, edges: Iterable[HyperEdge]) -> EdgeTable:
        """The table of ``edges``, each type's rows in their order, types in
        the order of their first edge; each distinct set is numbered at its
        first row, a type's sources before its targets, and is the first
        object found for it.  Edges of one type must have labels of one
        length."""
        typed: defaultdict[str, list[HyperEdge]] = defaultdict(list)
        for e in edges:
            typed[e.etype].append(e)
        ids: dict[frozenset[int], int] = {}
        types = {}
        for name, rows in typed.items():
            sources = [ids.setdefault(e.source, len(ids)) for e in rows]
            targets = [ids.setdefault(e.target, len(ids)) for e in rows]
            try:
                columns = tuple(zip(*(e.label for e in rows), strict=True))
            except ValueError:
                raise GraphoidError(f"edges of type {name} have labels of different lengths") from None
            types[name] = TypeRows(sources, targets, columns)
        return cls(types, list(ids))

    def edges(self) -> tuple[HyperEdge, ...]:
        """The rows as edges; rows with equal set ids share their frozensets."""
        at = self.sets.__getitem__
        return tuple(chain.from_iterable(
            map(HyperEdge, repeat(name), map(at, rows.sources), map(at, rows.targets), rows.labels())
            for name, rows in self.types.items()
        ))

    def where(self, masks: Mapping[str, Sequence[bool]]) -> EdgeTable:
        """The rows whose mask entry is true, in order; ``masks`` holds one
        mask per type of the table.  A type that keeps every row keeps its
        sub-table, and a type left with no rows is dropped."""
        types = {}
        for name, rows in self.types.items():
            mask = masks[name]
            if all(mask):
                types[name] = rows
            elif any(mask):
                sources, targets, columns = rows
                types[name] = TypeRows(
                    list(compress(sources, mask)), list(compress(targets, mask)),
                    tuple(map(tuple, map(compress, columns, repeat(mask)))),
                )
        return EdgeTable(types, self.sets)


class NodeRows(NamedTuple):
    """The nodes of one node type, as parallel columns in id order: ``ids``,
    and the labels as slot columns, one tuple of values per label slot (slot
    0, the Id slot, is ``ids`` itself).  Like a ``TypeRows``, never changed
    once built."""

    ids: tuple[int, ...]
    columns: tuple[tuple, ...]


def node_table_of(nodes: Iterable[Node]) -> dict[str, NodeRows]:
    """The node table of ``nodes``, given in any order: a ``NodeRows`` per
    node type with nodes, its labels sorted by id, types in the order of
    their smallest id.  Ids are distinct, so no two labels are compared
    past their id."""
    labels: defaultdict[str, list[tuple]] = defaultdict(list)
    for node in nodes:
        labels[node.ntype].append(node.label)
    table = {}
    for name, rows in labels.items():
        columns = tuple(zip(*sorted(rows)))
        table[name] = NodeRows(columns[0], columns)
    return dict(sorted(table.items(), key=lambda item: item[1].ids[0]))


def with_column(rows: TypeRows | NodeRows, slot: int, column: tuple) -> TypeRows | NodeRows:
    """``rows`` with slot column ``slot`` replaced by ``column``; every other
    column is handed on."""
    columns = rows.columns
    return rows._replace(columns=(*columns[:slot], column, *columns[slot + 1:]))


# drains an iterator at C speed, keeping nothing
consume = deque(maxlen=0).extend


@dataclass(frozen=True, eq=False)
class Graphoid:
    """An immutable graph value bound to a dimension catalog.

    ``levels`` maps (type name, slot) to the current level of that slot's
    dimension.  ``base``/``tainted`` track lineage: ``base`` points at the
    graph the value was derived from (None for freshly built ones) and
    ``tainted`` records that a dice, slice or node deletion happened along
    the way.
    ``folds`` maps each measure slot an aggregation folded to the aggregate
    its values now hold; unfolded slots hold raw values.  ``node_table`` and
    ``edge_table`` are the value's two stores, made from the ``nodes`` and
    ``edges`` the constructor is given; ``nodes`` and ``edges`` are built
    from them on first read (see the module docstring).
    """

    catalog: DimensionCatalog = field(repr=False)
    node_types: Mapping[str, NodeTypeDecl]
    edge_types: Mapping[str, EdgeTypeDecl]
    nodes: Mapping[int, Node]
    # left out of the repr, which would build every edge object
    edges: tuple[HyperEdge, ...] = field(repr=False)
    levels: Mapping[tuple[str, int], str]
    base: Graphoid | None = field(default=None, repr=False)
    tainted: bool = False
    folds: Mapping[tuple[str, int], str] = field(default_factory=dict)
    # indexes built from this value by ``indexed``; ``derive`` starts a child with none
    _indexes: dict[object, object] = field(init=False, compare=False, repr=False, default_factory=dict)

    @property
    def node_count(self) -> int:
        return sum(len(rows.ids) for rows in self.node_table.values())

    def __post_init__(self) -> None:
        state = self.__dict__
        state["node_table"] = node_table_of(state.pop("nodes").values())
        state["edge_table"] = EdgeTable.of(state.pop("edges"))

    @property
    def edge_count(self) -> int:
        return sum(len(rows.sources) for rows in self.edge_table.types.values())

    def __getattr__(self, name: str) -> object:
        # called only for a name the value does not hold: ``nodes`` and
        # ``edges`` are built from their tables on first read, and kept
        if name == "nodes":
            view = dict(sorted(chain.from_iterable(
                zip(rows.ids, map(Node, repeat(kind), zip(*rows.columns))) for kind, rows in self.node_table.items()
            )))
        elif name == "edges":
            view = self.edge_table.edges()
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__[name] = view
        return view

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
        table = self.edge_table
        at = table.sets.__getitem__
        return Counter(chain.from_iterable(
            zip(repeat(name), map(at, rows.sources), map(at, rows.targets), rows.labels())
            for name, rows in table.types.items()
        ))

    def bag_equal(self, other: Graphoid) -> bool:
        return (
            dict(self.node_types) == dict(other.node_types)
            and dict(self.edge_types) == dict(other.edge_types)
            and self.node_table == other.node_table
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
# and ``node_table`` and ``edge_table``, the stores that ``nodes`` and ``edges`` are turned into
_GRAPHOID_FIELDS = frozenset(f.name for f in fields(Graphoid) if f.init) | {"node_table", "edge_table"}


def _graphoid(state: dict[str, object]) -> Graphoid:
    """The graph value whose fields are ``state``, one entry per name in
    ``_GRAPHOID_FIELDS`` but ``nodes`` and ``edges``, with an empty index
    table: what ``Graphoid(**state)`` returns for the nodes and edges of
    ``state["node_table"]`` and ``state["edge_table"]``, without one
    ``object.__setattr__`` per field."""
    state["_indexes"] = {}
    g = object.__new__(Graphoid)
    object.__setattr__(g, "__dict__", state)
    return g


def replaced(g: Graphoid, **changes) -> Graphoid:
    """``dataclasses.replace(g, **changes)`` through ``_graphoid``: the other
    fields are ``g``'s, the index table is new, and a name that is not a
    field is refused with ``TypeError``.  New ``nodes`` or ``edges`` are
    turned into the value's table; a new table drops ``g``'s built view of
    it."""
    unknown = changes.keys() - _GRAPHOID_FIELDS
    if unknown:
        raise TypeError(f"graph values have no field {sorted(unknown)[0]!r}")
    state = g.__dict__.copy()
    if "nodes" in changes:
        changes["node_table"] = node_table_of(changes.pop("nodes").values())
    if "edges" in changes:
        changes["edge_table"] = EdgeTable.of(changes.pop("edges"))
    if "node_table" in changes:
        state.pop("nodes", None)
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

    The node rows are checked a column at a time per node type and written
    as the node table directly, in id order (``_checked_nodes``); when any
    fails, or one is a ``Node``, ``_report_node_rows`` checks them one at a
    time, words every problem in row order, and builds the table when none
    fails.  The edge rows are checked and turned into the value's table a
    column at a time (``_checked_table``).  ``parse`` maps edge (type, slot)s to the
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
    # one resolved membership test per (type, slot) -- a predicate on a column
    # of values, or on one value for the per-row reports; a type's arity is the length of its tuple
    def slot_tests(decls: Mapping[str, NodeTypeDecl | EdgeTypeDecl], resolve: Callable) -> dict[str, tuple]:
        return {
            name: tuple(resolve(catalog.instance(dim), level_map[(name, slot)]) for slot, dim in enumerate(decl.dims))
            for name, decl in decls.items()
        }

    column_tests = slot_tests(etypes, DimensionInstance.column_test)

    nodes = list(nodes)
    node_table = _checked_nodes(nodes, slot_tests(ntypes, DimensionInstance.column_test))
    if node_table is None:
        node_table = _report_node_rows(nodes, ntypes, slot_tests(ntypes, DimensionInstance.member_test), level_map, problems)
    node_ids = set(chain.from_iterable(rows.ids for rows in node_table.values()))

    rows = list(edges)
    table = _checked_table(rows, column_tests, node_ids, parse or {})
    if table is None:
        # a HyperEdge row is read as the row (type, sources, targets, label...)
        rows = [(e.etype, e.source, e.target, *e.label) if isinstance(e, HyperEdge) else e for e in rows]
        _report_edge_rows(rows, etypes, slot_tests(etypes, DimensionInstance.member_test), node_ids, level_map, problems)
        raise GraphoidBuildError(problems)
    return _graphoid({
        "catalog": catalog,
        "node_types": ntypes,
        "edge_types": etypes,
        "node_table": node_table,
        "edge_table": table,
        "levels": level_map,
        "base": None,
        "tainted": False,
        "folds": {},
    })


# a row's type, and a node row's identifier; the row types whose iteration
# reads what indexing reads; the one type of an identifier, and of a type name
_TYPE, _ID = itemgetter(0), itemgetter(1)
_ROWS, _INT, _STR = frozenset({list, tuple}), frozenset({int}), frozenset({str})


def _checked_nodes(rows: list, column_tests: Mapping[str, tuple]) -> dict[str, NodeRows] | None:
    """The node table of ``rows`` when every row passes every check, else
    None, and ``build_graphoid`` falls back to the per-row report.

    The rows are read a column at a time per node type: every row a list or
    tuple whose type is a declared type name; each type's rows sorted by id
    and transposed once with ``zip(*rows)``, which checks that they share
    one width, the type's label width; every id an ``int`` by type and no id
    held twice, across types too; and each slot's column test run once (see
    ``DimensionInstance.column_test``).  The columns are written as the
    type's ``NodeRows`` directly, the table ``node_table_of`` builds from the
    same nodes.  An empty node set is left to the report, which refuses it.
    """
    try:
        if not rows or not _ROWS.issuperset(map(type, rows)):
            return None
        positions = _typed(rows)
        if not (_STR.issuperset(map(type, positions)) and column_tests.keys() >= positions.keys()):
            return None
        table = {}
        for kind, at in positions.items():
            tests = column_tests[kind]
            kind_rows = rows if at is None else map(rows.__getitem__, at)
            _, *columns = zip(*sorted(kind_rows, key=_ID), strict=True)
            if len(columns) != len(tests) or not _INT.issuperset(map(type, columns[0])):
                return None
            if not all(test(column) for test, column in zip(tests, columns)):
                return None
            table[kind] = NodeRows(columns[0], tuple(columns))
        if len(set(chain.from_iterable(typed_rows.ids for typed_rows in table.values()))) != len(rows):
            return None
    except (LookupError, TypeError, ValueError):
        return None
    return dict(sorted(table.items(), key=lambda item: item[1].ids[0]))


def _report_node_rows(
    rows: list,
    ntypes: Mapping[str, NodeTypeDecl],
    node_tests: Mapping[str, tuple],
    level_map: Mapping[tuple[str, int], str],
    problems: list[str],
) -> dict[str, NodeRows]:
    """Check the node rows one at a time, appending each problem to
    ``problems`` in row order, the one place that words a node row's
    problems; a row may be a ``Node``.  The node table of the rows when
    none fails; raises ``GraphoidBuildError`` with the report otherwise."""
    checked: dict[int, Node] = {}
    for row in rows:
        try:
            node = row if isinstance(row, Node) else Node(str(row[0]), tuple(row[1:]))
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
        if ident in checked:
            problems.append(f"node id {ident}: duplicate identifier")
            continue
        tests = node_tests[node.ntype]
        if all(map(_holds, tests, node.label)):
            checked[ident] = node
            continue
        for slot, (value, member) in enumerate(zip(node.label, tests)):
            if not _holds(member, value):
                problems.append(
                    f"node {node.label!r}: slot {slot} value {value!r} outside "
                    f"dom({decl.dims[slot]}.{level_map[(node.ntype, slot)]})"
                )
    if not checked and not problems:
        problems.append("non-empty node set required")
    if problems:
        raise GraphoidBuildError(problems)
    return node_table_of(checked.values())


def _checked_table(
    rows: list,
    column_tests: Mapping[str, tuple],
    node_ids: set[int],
    parse: Mapping[tuple[str, int], Callable[[str], object]],
) -> EdgeTable | None:
    """The edge table of ``rows`` when every row passes every check, else
    None, and ``build_graphoid`` falls back to the per-row report.

    The rows are read a column at a time, with no per-row Python step:
    - the type column: every type declared (a row's type is ``str`` of
      what it holds), and each type's row positions gathered in one pass,
      types in the order of their first row; when every row holds one
      ``str`` type, ``rows`` are that type's rows as given, and no position
      is gathered;
    - per edge type, its rows transposed once with ``zip(*rows)``, which
      checks that they share one width, the type's label width; on those
      columns each ``parse`` slot's strings are parsed once per distinct
      string, each slot's column test runs once (see
      ``DimensionInstance.column_test``), and the label columns become the
      type's slot columns;
    - per edge type, its endpoint columns: every id an integer by type (5.0
      and True equal ints, so a set cannot tell them apart), no row with
      both sets empty, and each distinct set a frozenset held once,
      numbered at its first row, a type's sources before its targets;
    - every set a set of nodes, one ``issuperset`` over the sets' ids.
    A type's rows keep their order in ``rows``.  A row that is not a list or
    tuple is read by position, as ``_report_edge_rows`` reads it.
    """
    try:
        if not _ROWS.issuperset(map(type, rows)):
            rows = list(map(_positions, rows))
        positions = _typed(rows)
        if not _STR.issuperset(map(type, positions)):
            positions = _grouped(map(str, map(_TYPE, rows)))
        if not column_tests.keys() >= positions.keys():
            return None
        # each distinct set numbered at its first row; a repeat is dropped at once
        set_ids: defaultdict[frozenset[int], int] = defaultdict(count().__next__)
        typed = {}
        for kind, at in positions.items():
            tests = column_tests[kind]
            kind_rows = rows if at is None else map(rows.__getitem__, at)
            _, source_column, target_column, *slots = zip(*kind_rows, strict=True)
            if len(slots) != len(tests):
                return None
            for slot, test in enumerate(tests):
                if parse and (read := parse.get((kind, slot))) is not None:
                    column = slots[slot]
                    parsed = {value: read(value) for value in set(column) if isinstance(value, str)}
                    slots[slot] = tuple(map(parsed.get, column, column))
                if not test(slots[slot]):
                    return None
            if not (
                _INT.issuperset(map(type, chain.from_iterable(source_column)))
                and _INT.issuperset(map(type, chain.from_iterable(target_column)))
            ):
                return None
            sources = list(map(set_ids.__getitem__, map(frozenset, source_column)))
            targets = list(map(set_ids.__getitem__, map(frozenset, target_column)))
            empty = set_ids.get(frozenset())
            if empty is not None and (empty, empty) in zip(sources, targets):
                return None
            typed[kind] = TypeRows(sources, targets, tuple(slots))
        if not node_ids.issuperset(chain.from_iterable(set_ids)):
            return None
    except (LookupError, TypeError, ValueError):
        return None
    return EdgeTable(typed, list(set_ids))


def _typed(rows: list) -> Mapping[object, list[int] | None]:
    """Each type's row positions in ``rows`` (a row's type is its first
    entry), types in the order of their first row.  When every row holds one
    ``str`` type, its positions are None: that type's rows are ``rows`` as
    given, and no position is gathered."""
    kinds = set(map(_TYPE, rows))
    if len(kinds) == 1 and _STR.issuperset(map(type, kinds)):
        return dict.fromkeys(kinds)
    return _grouped(map(_TYPE, rows))


def _grouped(types: Iterable[str]) -> defaultdict[str, list[int]]:
    """The positions of each type's entries in ``types``, in one pass; types
    in the order of their first entry."""
    positions: defaultdict[str, list[int]] = defaultdict(list)
    consume(map(list.append, map(positions.__getitem__, types), count()))
    return positions


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
    node_ids: set[int],
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
        for ident in sorted({ident for ident in ids if type(ident) is int and ident not in node_ids}):
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

    node_table = dict(g.node_table)
    table = g.edge_table
    moved = node_table.get(ntype)  # None when the type has no nodes
    if moved is not None:
        n = len(moved.ids)
        node_table[ntype] = with_column(moved, slot, (ALL_MEMBER,) * n)
        set_ids = dict(zip(table.sets, range(len(table.sets))))  # a table's sets are distinct
        no_source = set_ids.setdefault(frozenset(), len(set_ids))
        new_targets = [set_ids.setdefault(frozenset({ident}), len(set_ids)) for ident in moved.ids]
        # another node type's edgify of the same dimension may have made the type's rows already
        sources, targets, (values,) = table.types.get(new_type, ((), (), ((),)))
        rows = TypeRows([*sources, *[no_source] * n], [*targets, *new_targets], ((*values, *moved.columns[slot]),))
        table = EdgeTable({**table.types, new_type: rows}, list(set_ids))
    levels[(ntype, slot)] = ALL_LEVEL
    return g.derive(edge_types=etypes, node_table=node_table, edge_table=table, levels=levels)
