"""Background dimension hierarchies: level lattices, instances, roll-up.

A dimension schema is a small DAG of levels with a unique bottom level and a
unique top level ``All``; an instance populates each level with members and
connects adjacent levels with functional parent mappings.  Roll-up is the
transitive composition of those mappings, materialized per level pair when
the instance is built.  ``DimensionInstance.roller`` checks one roll-up
step once and returns a lookup over those maps; every roll-up, the
per-value ``DimensionCatalog.roll`` included, goes through it.
``DimensionCatalog.roll`` keeps each step it resolved as a ``RollupTable``:
for a closed level, a member -> parent dict filled once from the roll-up
map, so rolling value by value costs one Python frame and two dict lookups
per value; open levels and refused values go to the step's function.

Each ``DimensionSchema`` resolves its levels and edges once, at
construction, into a table (level by name, parents per level, the bottom),
and its lookups read that table instead of rescanning the declarations.
Levels and schemas are frozen and slotted, and the values every dimension
holds alike are shared: ``all_level()`` returns one All level, every All
domain is the one ``ALL_DOMAIN``, and every ``DimensionCatalog.of`` holds the
same Id dimension instance.
"""
from __future__ import annotations

import datetime
import operator
from dataclasses import dataclass, field
from typing import Callable

ALL_LEVEL = "All"
ALL_MEMBER = "all"

VALUE_TYPES = ("string", "int", "decimal", "date")


class DimensionError(ValueError):
    """Raised for malformed dimension data or bad roll-up requests."""


class UnknownMember(DimensionError):
    pass


class UnreachableLevel(DimensionError):
    pass


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_VALUE_TESTS: dict[str, Callable[[object], bool]] = {
    "string": lambda value: isinstance(value, str),
    "int": _is_int,
    "decimal": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "date": lambda value: isinstance(value, datetime.date) and not isinstance(value, datetime.datetime),
}

_COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "<": operator.lt,
    ">": operator.gt,
}


def value_test(vtype: str) -> Callable[[object], bool]:
    """The membership test of a level's value type."""
    try:
        return _VALUE_TESTS[vtype]
    except KeyError:
        raise DimensionError(f"unknown value type {vtype!r}") from None


def comparator(cmp: str) -> Callable[[object, object], bool]:
    """The binary predicate a comparison symbol stands for."""
    try:
        return _COMPARATORS[cmp]
    except KeyError:
        raise DimensionError(f"unknown comparator {cmp!r}") from None


@dataclass(frozen=True, slots=True)
class Level:
    """One granularity level of a dimension."""

    name: str
    vtype: str = "string"
    ordered: bool = True
    open: bool = False


_ALL_LEVEL = Level(ALL_LEVEL, "string", ordered=False)
# the domain of every All level
ALL_DOMAIN = frozenset({ALL_MEMBER})


def all_level() -> Level:
    """The top level every schema ends in; one shared value, since levels are frozen."""
    return _ALL_LEVEL


@dataclass(frozen=True)
class RollupStep:
    """A from-level to to-level move inside one dimension."""

    dimension: str
    from_level: str
    to_level: str


@dataclass(frozen=True, slots=True)
class DimensionSchema:
    """Level DAG of one dimension.  ``edges`` point child level -> parent level.

    Construction resolves ``levels`` and ``edges`` once into a table: each
    level by name (the first of equal names wins), the parents of each child
    level in edge order, and the bottom ``Level``, or None when no single
    level lacks a child (the table keeps the level, not its name, because a
    name read from JSON may itself be None).  ``level``, ``has_level``,
    ``parents_of``, ``bottom`` and ``reachable_from`` read that table; a
    malformed schema (duplicate names,
    dangling edges, self-edges, cycles, two bottoms) builds a table all the
    same, and ``validate_schema`` reports it.  Reachable sets are walked per
    call, not kept.
    """

    name: str
    levels: tuple[Level, ...]
    edges: tuple[tuple[str, str], ...]
    _level_of: dict[str, Level] = field(init=False, compare=False, repr=False)
    _parents: dict[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)
    _bottom: Level | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        level_of: dict[str, Level] = {}
        for lv in self.levels:
            level_of.setdefault(lv.name, lv)
        parents: dict[str, tuple[str, ...]] = {}
        for child, parent in self.edges:
            parents[child] = parents.get(child, ()) + (parent,)
        targets = {p for _, p in self.edges}
        sources = [lv for lv in self.levels if lv.name not in targets]
        object.__setattr__(self, "_level_of", level_of)
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_bottom", sources[0] if len(sources) == 1 else None)

    # a name that cannot be hashed (a JSON list, say) names no level and no child
    def level(self, name: str) -> Level:
        try:
            return self._level_of[name]
        except (KeyError, TypeError):
            raise DimensionError(f"dimension {self.name}: unknown level {name!r}") from None

    def has_level(self, name: str) -> bool:
        try:
            return name in self._level_of
        except TypeError:
            return False

    def parents_of(self, level: str) -> tuple[str, ...]:
        try:
            return self._parents.get(level, ())
        except TypeError:
            return ()

    def children_of(self, level: str) -> tuple[str, ...]:
        return tuple(c for c, p in self.edges if p == level)

    @property
    def bottom(self) -> str:
        if self._bottom is None:
            raise DimensionError(f"dimension {self.name}: no unique bottom level")
        return self._bottom.name

    def reachable_from(self, level: str) -> frozenset[str]:
        parents = self._parents
        seen = {level}
        frontier = [level]
        while frontier:
            for parent in parents.get(frontier.pop(), ()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return frozenset(seen)


def validate_schema(schema: DimensionSchema) -> list[str]:
    """Structural checks; returns a report, empty when the schema is valid."""
    problems: list[str] = []
    names = [lv.name for lv in schema.levels]
    if not names:
        return [f"dimension {schema.name}: no levels declared"]
    if len(set(names)) != len(names):
        problems.append(f"dimension {schema.name}: duplicate level names")
    for lv in schema.levels:
        if lv.vtype not in VALUE_TYPES:
            problems.append(f"dimension {schema.name}: level {lv.name}: unknown value type {lv.vtype!r}")
    if ALL_LEVEL not in names:
        problems.append(f"dimension {schema.name}: missing top level {ALL_LEVEL}")
        return problems
    known = set(names)
    for child, parent in schema.edges:
        if child not in known or parent not in known:
            problems.append(f"dimension {schema.name}: edge {child}->{parent} references unknown level")
        elif child == parent:
            problems.append(f"dimension {schema.name}: self-edge on level {child}")
    if len(set(schema.edges)) != len(schema.edges):
        problems.append(f"dimension {schema.name}: duplicate edges")
    if problems:
        return problems

    # an edge closes a cycle when its child is reachable from its parent
    if any(child in schema.reachable_from(parent) for child, parent in schema.edges):
        problems.append(f"dimension {schema.name}: level graph has a cycle")
        return problems

    sinks = [n for n in names if not schema.parents_of(n)]
    if sinks != [ALL_LEVEL]:
        problems.append(
            f"dimension {schema.name}: non-unique top: every maximal level must be {ALL_LEVEL}, got {sorted(sinks)}"
        )
    sources = [n for n in names if not schema.children_of(n)]
    if len(sources) != 1:
        problems.append(f"dimension {schema.name}: non-unique bottom: got {sorted(sources)}")
    elif sources == [ALL_LEVEL]:
        problems.append(f"dimension {schema.name}: bottom level must differ from {ALL_LEVEL}")
    if problems:
        return problems

    bottom = sources[0]
    from_bottom = schema.reachable_from(bottom)
    for name in names:
        if name not in from_bottom:
            problems.append(f"dimension {schema.name}: level {name} not reachable from bottom {bottom}")
        elif ALL_LEVEL not in schema.reachable_from(name):
            problems.append(f"dimension {schema.name}: level {name} does not reach {ALL_LEVEL}")
    for lv in schema.levels:
        if lv.open:
            bad = [p for p in schema.parents_of(lv.name) if p != ALL_LEVEL]
            if bad:
                problems.append(
                    f"dimension {schema.name}: open level {lv.name} may only roll up to {ALL_LEVEL}"
                )
    return problems


ParentQuad = tuple[object, str, object, str]


@dataclass(frozen=True)
class DimensionInstance:
    """Members per level plus functional parent mappings per schema edge.

    ``rollup_maps`` materializes the transitive composition for every
    reachable level pair and is derived at construction; it is only
    meaningful once ``validate_instance`` comes back clean.  Every roll-up
    reads these maps through ``roller``, which checks one level pair once
    and returns a function of the member, so a hot loop pays a membership
    test and one lookup per value.
    """

    schema: DimensionSchema
    members: dict[str, frozenset]
    parent_quads: tuple[ParentQuad, ...]
    rollup_maps: dict[tuple[str, str], dict] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        # one pass buckets the quads by schema edge; a child's first parent wins
        maps: dict[tuple[str, str], dict] = {edge: {} for edge in self.schema.edges}
        for child, clv, parent, plv in self.parent_quads:
            step = maps.get((clv, plv))
            if step is not None:
                step.setdefault(child, parent)
        # compose outward from every level; first computed map per pair wins
        edge_maps = dict(maps)
        for start in sorted({lv.name for lv in self.schema.levels}):
            visited = {start}
            frontier = [(start, {m: m for m in self.members.get(start, frozenset())})]
            while frontier:
                level, mapping = frontier.pop()
                for parent in sorted(self.schema.parents_of(level)):
                    edge = edge_maps[(level, parent)]
                    key = (start, parent)
                    if key not in maps:
                        maps[key] = {m: edge[v] for m, v in mapping.items() if v in edge}
                    if parent not in visited:
                        visited.add(parent)
                        frontier.append((parent, maps[key]))
        object.__setattr__(self, "rollup_maps", maps)

    @classmethod
    def build(
        cls,
        schema: DimensionSchema,
        members: dict[str, frozenset | set | list | tuple],
        parents: tuple[ParentQuad, ...] | list[ParentQuad] = (),
    ) -> DimensionInstance:
        """Normalize raw member/parent data, auto-completing the All level."""
        normalized = {lv: frozenset(ms) for lv, ms in members.items()}
        normalized.setdefault(ALL_LEVEL, ALL_DOMAIN)
        quads = list(parents)
        present = {(c, cl, p, pl) for c, cl, p, pl in quads}
        for child_level, parent_level in schema.edges:
            if parent_level != ALL_LEVEL:
                continue
            for member in sorted(normalized.get(child_level, frozenset()), key=repr):
                quad = (member, child_level, ALL_MEMBER, ALL_LEVEL)
                if quad not in present:
                    quads.append(quad)
                    present.add(quad)
        return cls(schema, normalized, tuple(quads))

    @property
    def name(self) -> str:
        return self.schema.name

    def domain(self, level: str) -> frozenset:
        lv = self.schema.level(level)
        if lv.open:
            raise DimensionError(f"dimension {self.name}: level {level} has an open domain")
        if level == ALL_LEVEL:
            return ALL_DOMAIN
        return self.members.get(level, frozenset())

    def member_test(self, level: str) -> Callable[[object], bool]:
        """Resolve membership in one level to a predicate on values."""
        lv = self.schema.level(level)
        if lv.open:
            return value_test(lv.vtype)
        if level == ALL_LEVEL:
            return lambda value: value == ALL_MEMBER
        return self.members.get(level, frozenset()).__contains__

    def roller(self, from_level: str, to_level: str) -> Callable[[object], object]:
        """Resolve the roll-up from one level to another to a function of the member.

        Unknown levels raise ``UnreachableLevel`` here.  The returned
        function raises ``UnknownMember`` for a value outside the from-level
        or without a roll-up, and ``UnreachableLevel`` for a member when the
        to-level is not above the from-level.
        """
        schema = self.schema
        dim = schema.name
        for level in (from_level, to_level):
            if not schema.has_level(level):
                raise UnreachableLevel(f"dimension {dim}: unknown level {level}")
        is_member = self.member_test(from_level)
        # rollup_maps holds a map for exactly the level pairs one can climb
        mapping = self.rollup_maps.get((from_level, to_level))
        reachable = to_level in (from_level, ALL_LEVEL) or mapping is not None
        mapping = mapping or {}

        def refusal(member: object) -> DimensionError:
            if not is_member(member):
                return UnknownMember(f"dimension {dim}: {member!r} is not a member of level {from_level}")
            if not reachable:
                return UnreachableLevel(f"dimension {dim}: level {to_level} not reachable from {from_level}")
            return UnknownMember(f"dimension {dim}: no roll-up for {member!r} from {from_level} to {to_level}")

        if to_level == from_level:
            def roll(member):
                if is_member(member):
                    return member
                raise refusal(member)
        elif to_level == ALL_LEVEL:
            def roll(member):
                if is_member(member):
                    return ALL_MEMBER
                raise refusal(member)
        else:
            def roll(member):
                if is_member(member) and member in mapping:
                    return mapping[member]
                raise refusal(member)
        return roll

    def rollup_table(self, from_level: str, to_level: str) -> RollupTable:
        """The roll-up from one level to a higher one as a ``RollupTable``:
        filled from the roll-up map when the from-level is a closed level
        below the to-level, empty otherwise."""
        table = RollupTable()
        table.roll = self.roller(from_level, to_level)
        if from_level not in (to_level, ALL_LEVEL) and not self.schema.level(from_level).open:
            members = self.members.get(from_level, frozenset())
            if to_level == ALL_LEVEL:
                table.update(dict.fromkeys(members, ALL_MEMBER))
            else:
                mapping = self.rollup_maps.get((from_level, to_level), {})
                table.update((member, mapping[member]) for member in members if member in mapping)
        return table


class RollupTable(dict):
    """One resolved roll-up step as a member -> parent dict.  A member it
    lacks (every member of an open level, and any value the step refuses) is
    handed to ``roll``, the step's ``DimensionInstance.roller`` function,
    which returns the parent or raises its refusal; the answer is not kept."""

    __slots__ = ("roll",)

    def __missing__(self, member: object) -> object:
        return self.roll(member)


def validate_instance(instance: DimensionInstance) -> list[str]:
    """Membership, typing, functionality, and path-independence checks."""
    schema = instance.schema
    problems = validate_schema(schema)
    if problems:
        return problems
    dim = schema.name

    declared = {lv.name for lv in schema.levels}
    for level, members in instance.members.items():
        if level not in declared:
            problems.append(f"dimension {dim}: members listed for unknown level {level}")
            continue
        lv = schema.level(level)
        if lv.open and members:
            problems.append(f"dimension {dim}: open level {level} must not enumerate members")
            continue
        is_typed = value_test(lv.vtype)
        for member in members:
            if not is_typed(member):
                problems.append(f"dimension {dim}: member {member!r} is not a {lv.vtype} at level {level}")
    if instance.members.get(ALL_LEVEL, ALL_DOMAIN) != ALL_DOMAIN:
        problems.append(f"dimension {dim}: domain of {ALL_LEVEL} must be exactly {{{ALL_MEMBER!r}}}")

    edges = set(schema.edges)
    member_of = {level: instance.member_test(level) for level in declared}
    seen_child: dict[tuple[object, str, str], object] = {}
    for child, clv, parent, plv in instance.parent_quads:
        if (clv, plv) not in edges:
            problems.append(f"dimension {dim}: parent pair uses non-edge {clv}->{plv}")
            continue
        if not member_of[clv](child):
            problems.append(f"dimension {dim}: parent pair child {child!r} not in dom({clv})")
        if not member_of[plv](parent):
            problems.append(f"dimension {dim}: parent pair parent {parent!r} not in dom({plv})")
        key = (child, clv, plv)
        if key in seen_child and seen_child[key] != parent:
            problems.append(
                f"dimension {dim}: non-functional roll-up: {child!r} has two parents at {plv}"
            )
        seen_child[key] = parent
    if problems:
        return problems

    for child_level, parent_level in schema.edges:
        lv = schema.level(child_level)
        if lv.open:
            continue
        mapping = instance.rollup_maps[(child_level, parent_level)]
        for member in instance.members.get(child_level, frozenset()):
            if member not in mapping:
                problems.append(
                    f"dimension {dim}: member {member!r} at {child_level} has no parent at {parent_level}"
                )
    if problems:
        return problems

    # path independence, once per schema edge: a member rolled to a parent and
    # on to a level E must land where its own map to E puts it; by induction
    # down the lattice every path then agrees.  A level with one parent needs
    # no check, and a path that falls off a partial map (None) rolls nothing.
    maps = instance.rollup_maps
    for child in sorted(declared):
        parents = schema.parents_of(child)
        if len(parents) < 2 or schema.level(child).open:
            continue
        for (level, end), direct in maps.items():
            if level != child:
                continue
            onward = [(maps[(child, p)], maps[(p, end)]) for p in parents if (p, end) in maps]
            for member in instance.members.get(child, frozenset()):
                results = {direct.get(member), *(above.get(step.get(member)) for step, above in onward)}
                results.discard(None)
                if len(results) > 1:
                    problems.append(
                        f"dimension {dim}: unsound: {member!r} rolls up from {child} to {end} ambiguously {sorted(results, key=repr)}"
                    )
    return problems


ID_DIMENSION = "Id"
ID_LEVEL = "Id"


def id_dimension() -> DimensionInstance:
    """The built-in identifier dimension: open integer bottom under All."""
    schema = DimensionSchema(
        ID_DIMENSION,
        (Level(ID_LEVEL, "int", open=True), all_level()),
        ((ID_LEVEL, ALL_LEVEL),),
    )
    return DimensionInstance.build(schema, {})


# the Id dimension every catalog from ``DimensionCatalog.of`` holds; instances never change
_ID_INSTANCE = id_dimension()


def open_dimension(name: str, vtype: str = "decimal") -> DimensionInstance:
    """A two-level dimension with an open bottom, used for measures."""
    schema = DimensionSchema(
        name,
        (Level(name, vtype, open=True), all_level()),
        ((name, ALL_LEVEL),),
    )
    return DimensionInstance.build(schema, {})


@dataclass(frozen=True)
class DimensionCatalog:
    """Immutable name -> instance lookup; always carries the Id dimension."""

    instances: dict[str, DimensionInstance]
    # roll-up steps resolved by ``roll``, one per (dimension, from, to)
    _rollers: dict[tuple[str, str, str], RollupTable] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )

    @classmethod
    def of(cls, *dims: DimensionInstance) -> DimensionCatalog:
        table = {ID_DIMENSION: _ID_INSTANCE}
        for inst in dims:
            table[inst.name] = inst
        return cls(table)

    def with_dimension(self, inst: DimensionInstance) -> DimensionCatalog:
        table = dict(self.instances)
        table[inst.name] = inst
        return DimensionCatalog(table)

    def __contains__(self, name: str) -> bool:
        return name in self.instances

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.instances)

    def instance(self, name: str) -> DimensionInstance:
        try:
            return self.instances[name]
        except KeyError:
            raise DimensionError(f"unknown dimension {name!r}") from None

    def schema(self, name: str) -> DimensionSchema:
        return self.instance(name).schema

    def level(self, dim: str, level: str) -> Level:
        return self.schema(dim).level(level)

    def step_problems(self, step: RollupStep) -> list[str]:
        """Why a roll-up step is illegal here: an unknown dimension, a missing
        level, or a to-level not reachable from the from-level.  Empty when
        the step is legal; a step from a level to itself is."""
        if step.dimension not in self.instances:
            return [f"unknown dimension {step.dimension!r}"]
        schema = self.schema(step.dimension)
        for name in (step.from_level, step.to_level):
            if not schema.has_level(name):
                return [f"dimension {step.dimension} has no level {name!r}"]
        if step.from_level != step.to_level and step.to_level not in schema.reachable_from(step.from_level):
            return [f"level {step.to_level} not reachable from {step.from_level} in {step.dimension}"]
        return []

    def roller(self, dim: str, from_level: str, to_level: str) -> Callable[[object], object]:
        """One dimension's resolved roll-up step; see ``DimensionInstance.roller``."""
        return self.instance(dim).roller(from_level, to_level)

    def roll(self, dim: str, from_level: str, to_level: str, member: object):
        """Roll one member.  The step is resolved on first use and kept as a
        ``RollupTable``, so a per-value call on a closed level is one lookup
        in this catalog and one in the step's member -> parent dict."""
        key = (dim, from_level, to_level)
        step = self._rollers.get(key)
        if step is None:
            step = self._rollers[key] = self.instance(dim).rollup_table(from_level, to_level)
        try:
            return step[member]
        except TypeError:  # an unhashable member: the step's function gives the refusal
            return step.roll(member)
