"""Persistence and data sources: JSON round trips, CSV ingest, synthetic calls.

Scalars are typed by the level they sit at, so dates travel as ISO strings and
come back as date objects.  Dimension instance files embed their schema to
stay self-contained.

Graph values are read into and written from their node and edge tables
(``hypergraph.NodeRows``, ``hypergraph.EdgeTable``): loading, ingesting and
generating go through ``build_graphoid``, which checks the rows and writes
the tables a column at a time, and ``graphoid_to_json`` writes the
document's rows from the tables' columns, node types merged in id order,
then one edge type after another, sorting each distinct endpoint set once
and encoding each distinct date once.  Neither builds a node or edge
object.
"""
from __future__ import annotations

import contextlib
import csv
import datetime
import heapq
import json
import os
import random
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence, TextIO

from .cubes import Cube, CubeMeasure, build_cube
from .dims import (
    ALL_LEVEL,
    DimensionCatalog,
    DimensionError,
    DimensionInstance,
    DimensionSchema,
    Level,
    all_level,
    open_dimension,
)
from .hypergraph import (
    AGGREGATES,
    EdgeTypeDecl,
    Graphoid,
    GraphoidBuildError,
    GraphoidError,
    NodeTypeDecl,
    build_graphoid,
    replaced,
)


class StoreError(GraphoidError):
    pass


def _value_to_json(value: object) -> object:
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _date_from_json(raw: object, where: str, *at: object) -> object:
    """A date for an ISO string; any other value is left for the level's test.

    ``where % at`` names the value's row (or member) and slot when the
    string is no ISO date.
    """
    if not isinstance(raw, str):
        return raw
    try:
        return datetime.date.fromisoformat(raw)
    except ValueError as exc:
        raise _not_a_date(raw, exc, where % at) from None


def _not_a_date(raw: str, exc: ValueError, where: str) -> StoreError:
    return StoreError(f"{where}: {raw!r} is not an ISO date ({exc})")


def _catalog_level(catalog: DimensionCatalog, dim: str, level: str | None) -> Level | None:
    """The declared level, or None for a dimension or level the catalog lacks."""
    if dim not in catalog or level is None or not catalog.schema(dim).has_level(level):
        return None
    return catalog.level(dim, level)


def _is_date_level(catalog: DimensionCatalog, dim: str, level: str | None) -> bool:
    lv = _catalog_level(catalog, dim, level)
    return lv is not None and lv.vtype == "date"


# ---------------------------------------------------------------------------
# dimension schemas and instances

def schema_to_json(schema: DimensionSchema) -> dict:
    return {
        "name": schema.name,
        "levels": [
            {"name": lv.name, "type": lv.vtype, "ordered": lv.ordered, "open": lv.open}
            for lv in schema.levels
        ],
        "edges": [[child, parent] for child, parent in schema.edges],
    }


def schema_from_json(raw: dict) -> DimensionSchema:
    levels = []
    for entry in raw["levels"]:
        if isinstance(entry, str):
            levels.append(all_level() if entry == ALL_LEVEL else Level(entry))
        else:
            levels.append(
                Level(
                    entry["name"],
                    entry.get("type", "string"),
                    entry.get("ordered", True),
                    entry.get("open", False),
                )
            )
    parts = (raw["name"], tuple(levels), tuple((child, parent) for child, parent in raw["edges"]))
    hash(parts)  # a name, level or edge end that is a JSON list or object is refused here, as the schema's hash would
    return DimensionSchema(*parts)


def instance_to_json(instance: DimensionInstance) -> dict:
    schema = instance.schema
    members = {
        level: [_value_to_json(m) for m in sorted(ms, key=repr)]
        for level, ms in sorted(instance.members.items())
        if level != ALL_LEVEL
    }
    parents = [
        [_value_to_json(c), cl, _value_to_json(p), pl]
        for c, cl, p, pl in instance.parent_quads
        if pl != ALL_LEVEL
    ]
    return {"schema": schema_to_json(schema), "members": members, "parents": parents}


def instance_from_json(raw: dict) -> DimensionInstance:
    declared = raw.get("schema")
    if not isinstance(declared, dict):
        raise StoreError("instance document embeds no schema")
    schema = schema_from_json(declared)
    vtypes: dict[str, str] = {}
    for lv in schema.levels:
        vtypes.setdefault(lv.name, lv.vtype)
    # the decode plan: the levels whose values are dates; every other value passes through
    dated = {name for name, vtype in vtypes.items() if vtype == "date"}
    dim = schema.name
    members = {}
    for level, values in raw.get("members", {}).items():
        if level in dated:
            values = [_date_from_json(v, "dimension %s: member of level %s", dim, level) for v in values]
        members[level] = frozenset(values)
    parents = []
    for i, (child, clv, parent, plv) in enumerate(raw.get("parents", ())):
        if clv in dated:
            child = _date_from_json(child, "dimension %s: parents[%d] child", dim, i)
        if plv in dated:
            parent = _date_from_json(parent, "dimension %s: parents[%d] parent", dim, i)
        parents.append((child, clv, parent, plv))
    return DimensionInstance.build(schema, members, tuple(parents))


# ---------------------------------------------------------------------------
# graph values

def graphoid_to_json(g: Graphoid) -> dict:
    """The JSON document of a graph value, rows in node-id and edge order:
    edge rows grouped by edge type, types in the order of their first row.

    Rows are written a column at a time (``_json_rows``): per type, each
    slot column that may hold dates is encoded once per distinct date, and
    the rows are zipped from the columns.  An edge type's columns are its
    sub-table's slot columns, and a node type's are its node table's, each
    type's rows in id order, the types' rows merged into one id order.
    """
    # the encode plan: per type, the slots whose level's own test does not rule
    # out a date (a closed level is only as typed as its members); the values of
    # an open level of another type, or of All, pass through
    encoded = {}
    for name, decl in (*g.node_types.items(), *g.edge_types.items()):
        levels = (_catalog_level(g.catalog, dim, g.levels.get((name, slot))) for slot, dim in enumerate(decl.dims))
        encoded[name] = tuple(
            slot
            for slot, lv in enumerate(levels)
            if lv is None or not (lv.name == ALL_LEVEL or (lv.open and lv.vtype != "date"))
        )
    # each node type's rows in id order, merged into one id order (ids are distinct, so no row is compared)
    nodes = [row for _, row in heapq.merge(*(
        zip(ids, _json_rows(kind, len(ids), (), columns, encoded[kind])) for kind, (ids, columns) in g.node_table.items()
    ))]
    table = g.edge_table
    # each distinct endpoint set sorted once; each row gets its own copies
    at = [sorted(ends) for ends in table.sets].__getitem__
    edges = list(chain.from_iterable(
        _json_rows(
            kind, len(sources), (list(map(list, map(at, sources))), list(map(list, map(at, targets)))), columns, encoded[kind]
        )
        for kind, (sources, targets, columns) in table.types.items()
    ))
    doc = {
        "nodeTypes": [{"name": d.name, "dims": list(d.dims)} for d in g.node_types.values()],
        "edgeTypes": [
            {
                "name": d.name,
                "dims": list(d.dims),
                "measures": [[slot, fn] for slot, fn in d.measures],
            }
            for d in g.edge_types.values()
        ],
        "levelMap": {
            name: [g.levels[(name, slot)] for slot in range(decl.arity)]
            for name, decl in list(g.node_types.items()) + list(g.edge_types.items())
        },
        "nodes": nodes,
        "edges": edges,
    }
    if g.folds:
        doc["folds"] = [[name, slot, fn] for (name, slot), fn in sorted(g.folds.items())]
    return doc


def _json_rows(
    kind: str, count: int, leads: tuple[Sequence, ...], columns: Sequence[Sequence], encoded: tuple[int, ...]
) -> Iterator[list]:
    """The document rows of ``count`` entries of type ``kind``, in order: the
    type, the entry's value in each of the ``leads`` columns, then its label
    from the slot ``columns``, with ``_value_to_json`` applied at the
    ``encoded`` slots.  Each encoded column is encoded once per distinct
    date in it, and the rows are zipped from the columns."""
    columns = list(columns)
    for slot in encoded:
        columns[slot] = _encoded_column(columns[slot])
    return map(list, zip(repeat(kind, count), *leads, *columns))


def _encoded_column(column: Sequence[object]) -> Sequence[object]:
    """``_value_to_json`` of each value, each distinct date encoded once."""
    try:
        text = {value: value.isoformat() for value in set(column) if isinstance(value, datetime.date)}
    except TypeError:  # an unhashable value: no date shares its encoding
        return list(map(_value_to_json, column))
    return list(map(text.get, column, column)) if text else column


def graphoid_from_json(raw: dict, catalog: DimensionCatalog) -> Graphoid:
    """Decode a graph document and validate it through ``build_graphoid``.

    The edge rows go to ``build_graphoid`` as they are, with the edge types'
    date slots to parse: each distinct ISO string is parsed once, inside
    the column pass that checks the rows, and ``raw``'s edge rows are left
    as read.  When that build fails, the per-row path runs: every edge
    row's date strings are replaced by dates in place (a string that is no
    ISO date is refused at its first row, before any build problem), and
    the build runs again, for its report on the decoded rows.  Node rows
    are always decoded in place, first.  Decoding ``raw`` again changes
    nothing either way.
    """
    node_types = [NodeTypeDecl(d["name"], tuple(d["dims"])) for d in raw.get("nodeTypes", ())]
    edge_types = [
        EdgeTypeDecl(
            d["name"],
            tuple(d["dims"]),
            tuple((int(slot), fn) for slot, fn in d.get("measures", ())),
        )
        for d in raw.get("edgeTypes", ())
    ]
    decls = {d.name: d for d in (*node_types, *edge_types)}
    levels: dict[tuple[str, int], str] = {}
    for name, per_slot in raw.get("levelMap", {}).items():
        for slot, level in enumerate(per_slot):
            levels[(name, slot)] = level
    # the decode plan: per type with a date slot (by the level levelMap gives
    # it), the label width and those slots; every other value passes through
    dated: dict[str, tuple[int, tuple[int, ...]]] = {}
    for name, decl in decls.items():
        slots = tuple(
            slot for slot, dim in enumerate(decl.dims) if _is_date_level(catalog, dim, levels.get((name, slot)))
        )
        if slots:
            dated[name] = (decl.arity, slots)
    nodes = raw.get("nodes", ())
    edges = raw.get("edges", ())
    if dated:
        _decode_rows(nodes, "nodes", 1, dated)
    parse_date = datetime.date.fromisoformat
    parse = {(d.name, slot): parse_date for d in edge_types if d.name in dated for slot in dated[d.name][1]}
    try:
        g = build_graphoid(catalog, node_types, edge_types, nodes, edges, levels, parse)
    except GraphoidBuildError:
        if not dated:
            raise
        # the per-row path: decode every edge row in place, so that a bad
        # string is refused at its first row before any build problem, then
        # build again for the report on the decoded rows
        _decode_rows(edges, "edges", 3, dated)
        g = build_graphoid(catalog, node_types, edge_types, nodes, edges, levels)
    folds = {}
    for name, slot, fn in raw.get("folds", ()):
        decl = g.edge_types.get(name)
        if decl is None or type(slot) is not int or slot not in dict(decl.measures) or fn not in AGGREGATES:
            raise StoreError(f"fold record [{name!r}, {slot!r}, {fn!r}] names no measure slot and aggregate")
        folds[(name, slot)] = fn
    return replaced(g, folds=folds) if folds else g


def _decode_rows(rows: list, section: str, offset: int, dated: dict[str, tuple[int, tuple[int, ...]]]) -> None:
    """Decode the date slots of each row whose type and width match a plan, in place.

    A row's label starts at ``offset``; rows that match no plan are left to
    ``build_graphoid`` to report.
    """
    # per type: the row's length and the row positions of its date slots
    plans = {name: (offset + arity, tuple(offset + slot for slot in slots)) for name, (arity, slots) in dated.items()}
    parse = datetime.date.fromisoformat
    for i, row in enumerate(rows):
        try:
            plan = plans.get(row[0])
        except (LookupError, TypeError):
            continue  # a row too short or of the wrong shape: build_graphoid reports it
        if plan is None or len(row) != plan[0]:
            continue
        for pos in plan[1]:
            value = row[pos]
            if isinstance(value, str):
                try:
                    row[pos] = parse(value)
                except ValueError as exc:
                    raise _not_a_date(value, exc, f"{section}[{i}] slot {pos - offset}") from None


# ---------------------------------------------------------------------------
# cubes

def cube_to_json(cube: Cube) -> dict:
    return {
        "dims": [{"dim": d, "level": lv} for d, lv in zip(cube.dims, cube.levels)],
        "measures": [{"name": m.name, "agg": m.agg} for m in cube.measures],
        "cells": [
            [[_value_to_json(v) for v in coord], list(values)]
            for coord, values in sorted(cube.cells.items(), key=lambda kv: repr(kv[0]))
        ],
    }


def cube_from_json(raw: dict, catalog: DimensionCatalog) -> Cube:
    dims = [(d["dim"], d["level"]) for d in raw.get("dims", ())]
    measures = [CubeMeasure(m["name"], m.get("agg", "SUM")) for m in raw.get("measures", ())]
    # the decode plan: the coordinates whose level holds dates; build_cube reports
    # unknown dimensions and levels, and coordinates of the wrong length
    dated = [j for j, (dim, level) in enumerate(dims) if _is_date_level(catalog, dim, level)]
    cells = raw.get("cells", ())
    for i, (coord, _) in enumerate(cells):
        for j in dated:
            if j < len(coord):
                coord[j] = _date_from_json(coord[j], "cells[%d] coordinate %d", i, j)
    return build_cube(catalog, dims, measures, cells)


# ---------------------------------------------------------------------------
# files

_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def dump_text(payload: object) -> str:
    """The saved text of a document: its compact JSON dump on one line and a newline.

    Every JSON writer goes through here. Compact separators and no ``indent``
    keep CPython on its C encoder; ``json.load`` reads any layout, so files
    saved indented still load.  The text equals ``json.dumps(payload,
    separators=(",", ":"))``, but without its cycle check, which records and
    forgets the id of every list and dict: each payload is a fresh tree built
    by this library's writers (``graphoid_to_json``, ``cube_to_json``,
    ``instance_to_json``, ``schema_to_json``, ``path_results_to_rows``), which
    holds no cycle.  A cyclic payload still fails, with ``RecursionError``
    from the encoder's depth guard, before ``save_json`` opens its target.
    """
    return _ENCODER.encode(payload) + "\n"


@contextlib.contextmanager
def _opened(target: str | os.PathLike | TextIO, mode: str) -> Iterator[TextIO]:
    """A stream as given, or the UTF-8 file at a path (``newline=""``, as csv needs) open for the block."""
    if not isinstance(target, (str, os.PathLike)):
        yield target
        return
    with open(target, mode, encoding="utf-8", newline="") as fh:
        yield fh


def save_json(payload: dict, target: str | TextIO) -> None:
    text = dump_text(payload)
    with _opened(target, "w") as fh:
        fh.write(text)


def load_json(source: str | TextIO) -> object:
    with _opened(source, "r") as fh:
        return json.load(fh)


def sniff_kind(raw: object) -> str:
    """Which of the four value kinds a JSON document looks like."""
    if isinstance(raw, dict):
        if "nodeTypes" in raw or "edgeTypes" in raw:
            return "graphoid"
        if "cells" in raw:
            return "cube"
        if "members" in raw or "parents" in raw:
            return "instance"
        if "levels" in raw and "edges" in raw:
            return "schema"
    raise StoreError("unrecognized document shape")


# what a caller may expect of a document, and the kinds that meet it
EXPECTED = {"dimension file": ("instance", "schema"), "graphoid": ("graphoid",)}


def decode(raw: object, catalog: DimensionCatalog | None = None, expect: str | None = None) -> tuple[str, object]:
    """A parsed document's kind and value; graphoids and cubes are checked against ``catalog``.

    ``expect`` (a key of ``EXPECTED``) refuses other kinds.  Any Python error a
    malformed shape causes becomes a ``StoreError`` naming the kind;
    ``GraphoidError`` and ``DimensionError`` pass through unchanged.
    """
    kind = sniff_kind(raw)
    if expect is not None and kind not in EXPECTED[expect]:
        raise StoreError(f"expected a {expect}, found a document of kind {kind}")
    try:
        if kind == "schema":
            return kind, schema_from_json(raw)
        if kind == "instance":
            return kind, instance_from_json(raw)
        if kind == "graphoid":
            return kind, graphoid_from_json(raw, catalog)
        return kind, cube_from_json(raw, catalog)
    except (GraphoidError, DimensionError):
        raise
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise StoreError(f"malformed {kind} document: {detail}") from exc


def load_dimension(source: str | TextIO) -> DimensionInstance:
    """A dimension file: an instance with embedded schema, or a bare schema."""
    kind, value = decode(load_json(source), expect="dimension file")
    return DimensionInstance.build(value, {}) if kind == "schema" else value


# ---------------------------------------------------------------------------
# call-record ingest

CALL_COLUMNS = ["CallId", "CallerId", "Participant", "StartTime", "EndTime", "Duration"]

PHONE_DIMENSION = "Phone"
PHONE_BOTTOM = "PhoneId"
TIME_DIMENSION = "Time"
DAY_LEVEL = "Day"
DURATION_DIMENSION = "Duration"

CALL_TYPE = "#Call"
PHONE_TYPE = "#Phone"


def call_decls() -> tuple[list[NodeTypeDecl], list[EdgeTypeDecl]]:
    node_types = [NodeTypeDecl(PHONE_TYPE, ("Id", PHONE_DIMENSION))]
    edge_types = [
        EdgeTypeDecl(CALL_TYPE, (TIME_DIMENSION, DURATION_DIMENSION), measures=((1, "SUM"),))
    ]
    return node_types, edge_types


def _parse_duration(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def ingest_calls(source: str | TextIO, catalog: DimensionCatalog) -> Graphoid:
    """One hyperedge per call (caller -> participants), one node per phone.

    Rows sharing a CallId must agree on caller, times and duration; the edge
    label is the call's day and duration.
    """
    problems: list[str] = []
    calls: dict[str, dict] = {}
    with _opened(source, "r") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CALL_COLUMNS:
            raise StoreError(f"expected columns {','.join(CALL_COLUMNS)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CALL_COLUMNS):
                problems.append(f"line {lineno}: expected {len(CALL_COLUMNS)} fields")
                continue
            call_id, caller_s, participant_s, start_s, end_s, duration_s = row
            try:
                caller = int(caller_s)
                participant = int(participant_s)
                start = datetime.datetime.fromisoformat(start_s)
                end = datetime.datetime.fromisoformat(end_s)
                duration = _parse_duration(duration_s)
            except ValueError as exc:
                problems.append(f"line {lineno}: malformed row ({exc})")
                continue
            if participant == caller:
                problems.append(f"line {lineno}: participant equals the caller")
                continue
            entry = calls.setdefault(
                call_id,
                {"caller": caller, "start": start, "end": end, "duration": duration,
                 "participants": [], "first": lineno},
            )
            if (entry["caller"], entry["start"], entry["end"], entry["duration"]) != (
                caller, start, end, duration,
            ):
                problems.append(
                    f"line {lineno}: call {call_id} disagrees with line {entry['first']}"
                )
                continue
            if participant in entry["participants"]:
                problems.append(f"line {lineno}: duplicate participant {participant} in call {call_id}")
                continue
            entry["participants"].append(participant)
    if problems:
        raise StoreError("; ".join(problems))

    phone_ids = sorted(
        {entry["caller"] for entry in calls.values()}
        | {p for entry in calls.values() for p in entry["participants"]}
    )
    return _call_graph(
        catalog,
        phone_ids,
        ((entry["caller"], entry["participants"], entry["start"].date(), entry["duration"]) for entry in calls.values()),
    )


def _call_graph(catalog: DimensionCatalog, phone_ids: Iterable[int], calls: Iterable[tuple]) -> Graphoid:
    """One node per phone and one hyperedge per (caller, participants, day, duration) call.

    The Time slot is declared at Day rather than at the Time dimension's
    bottom, so a Time file with a finer level below Day still serves.
    """
    node_types, edge_types = call_decls()
    nodes = [(PHONE_TYPE, pid, pid) for pid in phone_ids]
    edges = [
        (CALL_TYPE, frozenset({caller}), frozenset(participants), day, duration)
        for caller, participants, day, duration in calls
    ]
    return build_graphoid(catalog, node_types, edge_types, nodes, edges, {(CALL_TYPE, 0): DAY_LEVEL})


# ---------------------------------------------------------------------------
# synthetic call data

# what every generated data set draws from: the calendar its calls fall in,
# the range of a call's duration in seconds, and the phones' members
START_DATE = datetime.date(2016, 1, 1)
END_DATE = datetime.date(2016, 12, 31)
MIN_DURATION, MAX_DURATION = 1, 3600
OPERATORS = ("ATT", "Claro", "Movistar", "Vodafone")
CITIES = ("Buenos Aires", "Cordoba", "Rosario", "Salta")
COUNTRIES = ("Argentina",)


@dataclass(frozen=True)
class GeneratorConfig:
    phone_count: int = 100
    user_count: int = 50
    call_count: int = 1000
    max_group_size: int = 4
    seed: int = 7


# roughly the published sizes of the real data sets; not exercised by tests
TABLE_SCALE_D1 = GeneratorConfig(phone_count=793, user_count=500, call_count=126700, seed=1)
TABLE_SCALE_D2 = GeneratorConfig(phone_count=2940, user_count=1800, call_count=280000, seed=2)


@dataclass(frozen=True)
class CallRecord:
    call_id: str
    caller: int
    participants: tuple[int, ...]
    start: datetime.datetime
    duration: int

    @property
    def end(self) -> datetime.datetime:
        return self.start + datetime.timedelta(seconds=self.duration)

    @property
    def group(self) -> tuple[int, ...]:
        return tuple(sorted((self.caller, *self.participants)))


@dataclass(frozen=True)
class PhoneInfo:
    number: int
    customer: str
    city: str
    country: str
    operator: str


@dataclass(frozen=True)
class GeneratedData:
    config: GeneratorConfig
    catalog: DimensionCatalog = field(repr=False)
    graphoid: Graphoid = field(repr=False)
    calls: tuple[CallRecord, ...] = field(repr=False)
    phones: dict[int, PhoneInfo] = field(repr=False, default_factory=dict)


def phone_schema() -> DimensionSchema:
    return DimensionSchema(
        PHONE_DIMENSION,
        (
            Level(PHONE_BOTTOM, "int"),
            Level("Number", "int"),
            Level("Customer", "string"),
            Level("City", "string"),
            Level("Country", "string"),
            Level("Operator", "string"),
            all_level(),
        ),
        (
            (PHONE_BOTTOM, "Number"),
            ("Number", "Customer"),
            ("Customer", "City"),
            ("City", "Country"),
            ("Country", ALL_LEVEL),
            ("Number", "Operator"),
            ("Operator", ALL_LEVEL),
        ),
    )


def time_schema() -> DimensionSchema:
    return DimensionSchema(
        TIME_DIMENSION,
        (
            Level(DAY_LEVEL, "date"),
            Level("Month", "string"),
            Level("Year", "int"),
            all_level(),
        ),
        (
            (DAY_LEVEL, "Month"),
            ("Month", "Year"),
            ("Year", ALL_LEVEL),
        ),
    )


def _month_of(day: datetime.date) -> str:
    return f"{day.year:04d}-{day.month:02d}"


def time_instance(days: Iterable[datetime.date]) -> DimensionInstance:
    """A calendar over the given days: Day -> Month -> Year -> All."""
    day_set = frozenset(days)
    months = frozenset(_month_of(d) for d in day_set)
    years = frozenset(d.year for d in day_set)
    members = {DAY_LEVEL: day_set, "Month": months, "Year": years}
    parents = []
    for day in sorted(day_set):
        parents.append((day, DAY_LEVEL, _month_of(day), "Month"))
    for month in sorted(months):
        parents.append((month, "Month", int(month[:4]), "Year"))
    return DimensionInstance.build(time_schema(), members, parents)


def generate(config: GeneratorConfig) -> GeneratedData:
    """Deterministic synthetic phones and calls for the given configuration."""
    if config.max_group_size < 2:
        raise StoreError("max_group_size must be at least 2")
    if config.phone_count < config.max_group_size:
        raise StoreError("phone_count must not be below max_group_size")
    if config.user_count < 1:
        raise StoreError("user_count must be at least 1")
    if config.call_count < 0:
        raise StoreError("call_count must not be negative")
    rng = random.Random(config.seed)

    customers = [f"Customer{k + 1:03d}" for k in range(config.user_count)]
    city_country = {
        city: COUNTRIES[i % len(COUNTRIES)]
        for i, city in enumerate(CITIES)
    }
    phones: dict[int, PhoneInfo] = {}
    customer_city = {c: rng.choice(CITIES) for c in customers}
    for pid in range(1, config.phone_count + 1):
        customer = rng.choice(customers)
        city = customer_city[customer]
        phones[pid] = PhoneInfo(
            number=5_550_000 + pid,
            customer=customer,
            city=city,
            country=city_country[city],
            operator=rng.choice(OPERATORS),
        )
    phone_ids = sorted(phones)

    phone_members = {
        PHONE_BOTTOM: frozenset(phones),
        "Number": frozenset(info.number for info in phones.values()),
        "Customer": frozenset(customers),
        "City": frozenset(CITIES),
        "Country": frozenset(COUNTRIES),
        "Operator": frozenset(OPERATORS),
    }
    phone_parents = []
    for pid in phone_ids:
        info = phones[pid]
        phone_parents.append((pid, PHONE_BOTTOM, info.number, "Number"))
        phone_parents.append((info.number, "Number", info.customer, "Customer"))
        phone_parents.append((info.number, "Number", info.operator, "Operator"))
    for customer in customers:
        phone_parents.append((customer, "Customer", customer_city[customer], "City"))
    for city in CITIES:
        phone_parents.append((city, "City", city_country[city], "Country"))
    phone_dim = DimensionInstance.build(phone_schema(), phone_members, phone_parents)

    day_count = (END_DATE - START_DATE).days + 1
    calls = []
    for k in range(config.call_count):
        size = rng.randint(2, config.max_group_size)
        group = rng.sample(phone_ids, size)
        day = START_DATE + datetime.timedelta(days=rng.randrange(day_count))
        start = datetime.datetime.combine(day, datetime.time()) + datetime.timedelta(
            seconds=rng.randrange(86400)
        )
        calls.append(
            CallRecord(
                call_id=f"c{k + 1:06d}",
                caller=group[0],
                participants=tuple(group[1:]),
                start=start,
                duration=rng.randint(MIN_DURATION, MAX_DURATION),
            )
        )

    all_days = [START_DATE + datetime.timedelta(days=i) for i in range(day_count)]
    duration_dim = open_dimension(DURATION_DIMENSION, "decimal")
    catalog = DimensionCatalog.of(phone_dim, time_instance(all_days), duration_dim)
    g = _call_graph(catalog, phone_ids, ((c.caller, c.participants, c.start.date(), c.duration) for c in calls))
    return GeneratedData(config, catalog, g, tuple(calls), phones)


def write_calls_csv(calls: Iterable[CallRecord], target: str | TextIO) -> None:
    """One row per participant, matching the ingest column layout."""
    with _opened(target, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CALL_COLUMNS)
        for call in calls:
            for participant in call.participants:
                writer.writerow(
                    [
                        call.call_id,
                        call.caller,
                        participant,
                        call.start.isoformat(),
                        call.end.isoformat(),
                        call.duration,
                    ]
                )
