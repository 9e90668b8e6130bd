"""Dimension schemas, instances, validation, and the roll-up mapping."""
from __future__ import annotations

import dataclasses
import datetime
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphoid.dims import (
    DimensionCatalog,
    DimensionError,
    DimensionInstance,
    DimensionSchema,
    Level,
    RollupStep,
    UnknownMember,
    UnreachableLevel,
    all_level,
    id_dimension,
    open_dimension,
    validate_instance,
    validate_schema,
)
from helpers import random_instance, random_schema


def linear_schema(name: str, *levels: str) -> DimensionSchema:
    chain = list(levels) + ["All"]
    return DimensionSchema(
        name,
        tuple(Level(l) for l in levels) + (Level("All", ordered=False),),
        tuple(zip(chain, chain[1:])),
    )


class TestValidateSchema:
    def test_phone_schema_with_two_hierarchies_is_valid(self, phone_dimension):
        assert validate_schema(phone_dimension.schema) == []

    def test_minimal_two_level_schema_is_valid(self):
        assert validate_schema(linear_schema("D", "Bottom")) == []

    def test_two_sinks_reported_as_non_unique_top(self):
        schema = DimensionSchema(
            "D",
            (Level("Bottom"), Level("A"), Level("All", ordered=False)),
            (("Bottom", "A"), ("Bottom", "All")),
        )
        problems = validate_schema(schema)
        assert any("non-unique top" in p for p in problems)

    def test_two_sources_reported_as_non_unique_bottom(self):
        schema = DimensionSchema(
            "D",
            (Level("B1"), Level("B2"), Level("All", ordered=False)),
            (("B1", "All"), ("B2", "All")),
        )
        problems = validate_schema(schema)
        assert any("non-unique bottom" in p for p in problems)

    def test_cycle_is_reported(self):
        schema = DimensionSchema(
            "D",
            (Level("A"), Level("B"), Level("All", ordered=False)),
            (("A", "B"), ("B", "A"), ("B", "All")),
        )
        assert validate_schema(schema)

    def test_longer_cycle_is_reported(self):
        schema = DimensionSchema(
            "D",
            (Level("A"), Level("B"), Level("C"), Level("All", ordered=False)),
            (("A", "B"), ("B", "C"), ("C", "A"), ("C", "All")),
        )
        assert validate_schema(schema) == ["dimension D: level graph has a cycle"]

    def test_self_edge_is_reported(self):
        schema = DimensionSchema(
            "D",
            (Level("A"), Level("All", ordered=False)),
            (("A", "A"), ("A", "All")),
        )
        assert any("self" in p for p in validate_schema(schema))

    def test_open_level_may_only_parent_to_all(self):
        schema = DimensionSchema(
            "D",
            (Level("B", vtype="decimal", open=True), Level("Mid"), Level("All", ordered=False)),
            (("B", "Mid"), ("Mid", "All")),
        )
        problems = validate_schema(schema)
        assert any("open level" in p for p in problems)


def flat_parents(schema: DimensionSchema, level: str) -> tuple[str, ...]:
    return tuple(p for c, p in schema.edges if c == level)


def paths_between(schema: DimensionSchema, start: str, end: str) -> tuple[tuple[str, ...], ...]:
    """All level paths start -> end following child->parent edges, read off
    ``schema.edges`` (the schema must be acyclic)."""
    if start == end:
        return ((start,),)
    out: list[tuple[str, ...]] = []
    for parent in sorted(flat_parents(schema, start)):
        for tail in paths_between(schema, parent, end):
            out.append((start,) + tail)
    return tuple(out)


def random_lattice_instance(rng: random.Random) -> DimensionInstance:
    """A chain of levels with random shortcut edges, each member wired to a
    random parent at every parent level: a complete, functional instance that
    may or may not be path independent."""
    names = [f"N{k}" for k in range(rng.randint(2, 6))]
    edges = list(zip(names, names[1:] + ["All"]))
    for i in range(len(names)):
        for j in range(i + 2, len(names)):
            if rng.random() < 0.3:
                edges.append((names[i], names[j]))
    schema = DimensionSchema("D", tuple(Level(n) for n in names) + (Level("All", ordered=False),), tuple(edges))
    members = {n: {f"{n}_m{i}" for i in range(rng.randint(1, 2))} for n in names}
    parents = [
        (m, child, rng.choice(sorted(members[parent])), parent)
        for child, parent in edges
        if parent != "All"
        for m in sorted(members[child])
    ]
    return DimensionInstance.build(schema, members, parents)


def reference_unsound(instance: DimensionInstance) -> bool:
    """Does some member roll up to some level differently along two paths?"""
    schema = instance.schema
    names = [lv.name for lv in schema.levels]
    for start in names:
        for end in names:
            paths = paths_between(schema, start, end) if start != end else ()
            for member in instance.members.get(start, frozenset()):
                results = set()
                for path in paths:
                    value = member
                    for a, b in zip(path, path[1:]):
                        value = instance.rollup_maps[(a, b)][value]
                    results.add(value)
                if len(results) > 1:
                    return True
    return False


class TestValidateInstance:
    def test_figure_phone_instance_is_valid(self, phone_dimension):
        assert validate_instance(phone_dimension) == []

    def test_member_with_two_parents_is_non_functional(self):
        schema = linear_schema("D", "Bottom", "Mid")
        instance = DimensionInstance.build(
            schema,
            members={"Bottom": {"a"}, "Mid": {"x", "y"}},
            parents=[("a", "Bottom", "x", "Mid"), ("a", "Bottom", "y", "Mid")],
        )
        problems = validate_instance(instance)
        assert any("non-functional" in p for p in problems)

    def test_diamond_with_disagreeing_paths_is_unsound(self):
        schema = DimensionSchema(
            "D",
            (Level("Bot"), Level("L"), Level("R"), Level("Top"), Level("All", ordered=False)),
            (("Bot", "L"), ("Bot", "R"), ("L", "Top"), ("R", "Top"), ("Top", "All")),
        )
        instance = DimensionInstance.build(
            schema,
            members={"Bot": {"a"}, "L": {"l"}, "R": {"r"}, "Top": {"t1", "t2"}},
            parents=[
                ("a", "Bot", "l", "L"),
                ("a", "Bot", "r", "R"),
                ("l", "L", "t1", "Top"),
                ("r", "R", "t2", "Top"),
            ],
        )
        problems = validate_instance(instance)
        assert any("unsound" in p for p in problems)

    def test_stacked_diamonds_disagreeing_two_levels_up_are_unsound(self):
        # Bot -> {L, R} -> Mid agrees; Mid -> {L2, R2} -> Top does not, so only
        # the paths from Bot that reach two levels past Mid disagree
        schema = DimensionSchema(
            "D",
            tuple(Level(n) for n in ("Bot", "L", "R", "Mid", "L2", "R2", "Top")) + (Level("All", ordered=False),),
            (("Bot", "L"), ("Bot", "R"), ("L", "Mid"), ("R", "Mid"),
             ("Mid", "L2"), ("Mid", "R2"), ("L2", "Top"), ("R2", "Top"), ("Top", "All")),
        )
        members = {"Bot": {"a"}, "L": {"l"}, "R": {"r"}, "Mid": {"m"}, "L2": {"l2"}, "R2": {"r2"}, "Top": {"t1", "t2"}}
        parents = [
            ("a", "Bot", "l", "L"), ("a", "Bot", "r", "R"), ("l", "L", "m", "Mid"), ("r", "R", "m", "Mid"),
            ("m", "Mid", "l2", "L2"), ("m", "Mid", "r2", "R2"), ("l2", "L2", "t1", "Top"),
        ]
        sound = DimensionInstance.build(schema, members, parents + [("r2", "R2", "t1", "Top")])
        assert validate_instance(sound) == []
        unsound = DimensionInstance.build(schema, members, parents + [("r2", "R2", "t2", "Top")])
        problems = validate_instance(unsound)
        assert problems and all("unsound" in p and "to Top ambiguously ['t1', 't2']" in p for p in problems)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_unsound_exactly_when_two_paths_disagree(self, seed):
        rng = random.Random(seed)
        instance = random_lattice_instance(rng)
        assert validate_schema(instance.schema) == []
        unsound = [p for p in validate_instance(instance) if "unsound" in p]
        assert bool(unsound) == reference_unsound(instance)
        assert len(unsound) == len(validate_instance(instance))

    def test_missing_parent_is_reported(self):
        schema = linear_schema("D", "Bottom", "Mid")
        instance = DimensionInstance.build(
            schema,
            members={"Bottom": {"a", "b"}, "Mid": {"x"}},
            parents=[("a", "Bottom", "x", "Mid")],
        )
        problems = validate_instance(instance)
        assert any("no parent" in p for p in problems)

    def test_member_outside_declared_type_is_reported(self):
        schema = DimensionSchema(
            "D",
            (Level("Bottom", vtype="int"), Level("All", ordered=False)),
            (("Bottom", "All"),),
        )
        instance = DimensionInstance.build(schema, members={"Bottom": {"oops"}})
        problems = validate_instance(instance)
        assert any("is not a int" in p for p in problems)


class TestRollup:
    def test_ph3_rolls_to_movistar(self, phone_dimension):
        assert phone_dimension.roller("Phone", "Operator")("Ph3") == "Movistar"

    def test_rollup_to_all_is_constant(self, phone_dimension):
        roll = phone_dimension.roller("Phone", "All")
        for member in sorted(phone_dimension.domain("Phone")):
            assert roll(member) == "all"

    def test_day_to_year_composes_through_month(self, time_dimension):
        assert time_dimension.roller("Day", "Year")(datetime.date(2016, 10, 10)) == 2016

    def test_identity_step(self, phone_dimension):
        assert phone_dimension.roller("Phone", "Phone")("Ph1") == "Ph1"

    def test_unknown_member_raises(self, phone_dimension):
        roll = phone_dimension.roller("Phone", "Operator")
        with pytest.raises(UnknownMember):
            roll("Ph99")

    def test_unreachable_level_raises(self, phone_dimension):
        # Operator and City sit on different hierarchies
        roll = phone_dimension.roller("Operator", "City")
        with pytest.raises(UnreachableLevel):
            roll("ATT")


class TestRollupProperties:
    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_two_step_composition_equals_direct(self, seed):
        rng = random.Random(seed)
        schema = random_schema(rng, "D")
        instance = random_instance(rng, schema)
        for start in instance.members:
            for mid in sorted(schema.reachable_from(start)):
                for end in sorted(schema.reachable_from(mid)):
                    if start == mid or mid == end:
                        continue
                    for m in sorted(instance.domain(start), key=repr):
                        via = instance.roller(mid, end)(instance.roller(start, mid)(m))
                        direct = instance.roller(start, end)(m)
                        assert via == direct

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_all_absorption(self, seed):
        rng = random.Random(seed)
        schema = random_schema(rng, "D")
        instance = random_instance(rng, schema)
        for level in instance.members:
            for m in sorted(instance.domain(level), key=repr):
                assert instance.roller(level, "All")(m) == "all"

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_generated_instances_always_validate(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng, random_schema(rng, "D"))
        assert validate_instance(instance) == []


class TestOpenDimensions:
    def test_open_domain_is_type_checked(self):
        duration = open_dimension("Duration")
        is_member = duration.member_test("Duration")
        assert is_member(42)
        assert is_member(4.5)
        assert not is_member("4")

    def test_open_level_rolls_only_to_all(self):
        duration = open_dimension("Duration")
        assert duration.roller("Duration", "All")(42) == "all"


# level names a drawn schema may use; None is a name a JSON dimension file can
# hold, and "Gone" is never declared, so edges to or from it dangle
SCHEMA_NAMES = ("A", "B", "C", "All", None, "Gone")

drawn_levels = st.lists(
    st.builds(Level, st.sampled_from(SCHEMA_NAMES[:5]), st.sampled_from(("string", "int")), st.booleans(), st.booleans()),
    max_size=6,
)
drawn_edges = st.lists(st.tuples(st.sampled_from(SCHEMA_NAMES), st.sampled_from(SCHEMA_NAMES)), max_size=8)
# malformed schemas by construction: duplicate names, dangling edges,
# self-edges, cycles and several bottoms all come up
drawn_schemas = st.builds(lambda levels, edges: DimensionSchema("D", tuple(levels), tuple(edges)), drawn_levels, drawn_edges)
valid_schemas = st.builds(lambda seed, name: random_schema(random.Random(seed), name), st.integers(0, 10**9), st.just("D"))


def flat_level(schema: DimensionSchema, name: str) -> Level:
    for lv in schema.levels:
        if lv.name == name:
            return lv
    raise DimensionError(f"dimension {schema.name}: unknown level {name!r}")


def flat_bottom(schema: DimensionSchema) -> str:
    targets = [p for _, p in schema.edges]
    sources = [lv.name for lv in schema.levels if lv.name not in targets]
    if len(sources) != 1:
        raise DimensionError(f"dimension {schema.name}: no unique bottom level")
    return sources[0]


def flat_reachable(schema: DimensionSchema, level: str) -> frozenset[str]:
    """The closure of ``{level}`` under the edges, grown until it stops changing."""
    seen = {level}
    while True:
        grown = seen | {p for c, p in schema.edges if c in seen}
        if grown == seen:
            return frozenset(seen)
        seen = grown


class TestResolvedSchemaTable:
    """The table a schema resolves at construction answers like a scan of
    ``levels`` and ``edges``, on malformed schemas too."""

    @given(st.one_of(drawn_schemas, valid_schemas))
    @settings(max_examples=200, deadline=None)
    def test_lookups_match_a_flat_scan(self, schema):
        names = {lv.name for lv in schema.levels} | {end for edge in schema.edges for end in edge}
        for name in sorted(names | set(SCHEMA_NAMES) | {"Nowhere"}, key=repr):
            level = outcome(schema.level, name)
            assert level == outcome(flat_level, schema, name), name
            if level[0] == "value":
                assert level[1] is flat_level(schema, name), name
            assert schema.has_level(name) == any(lv.name == name for lv in schema.levels), name
            assert schema.parents_of(name) == flat_parents(schema, name), name
            assert schema.children_of(name) == tuple(c for c, p in schema.edges if p == name), name
            assert schema.reachable_from(name) == flat_reachable(schema, name), name
        assert outcome(lambda: schema.bottom) == outcome(flat_bottom, schema)

    def test_first_of_equal_names_wins(self):
        first, second = Level("A", "string"), Level("A", "int")
        schema = DimensionSchema("D", (first, second, all_level()), (("A", "All"),))
        assert schema.level("A") is first
        with pytest.raises(DimensionError, match="no unique bottom level"):
            schema.bottom

    def test_bottom_level_named_none(self):
        schema = DimensionSchema("D", (Level(None), all_level()), ((None, "All"),))
        assert schema.bottom is None
        assert schema.level(None) is schema.levels[0]
        assert schema.reachable_from(None) == frozenset({None, "All"})

    def test_unhashable_name_is_no_level(self):
        schema = linear_schema("D", "Bottom")
        assert not schema.has_level(["Bottom"])
        assert schema.parents_of(["Bottom"]) == ()
        with pytest.raises(DimensionError, match=r"unknown level \['Bottom'\]"):
            schema.level(["Bottom"])


class TestSlottedRecords:
    @pytest.mark.parametrize("value", [
        Level("Day", "date"),
        all_level(),
        linear_schema("D", "Bottom", "Mid"),
        DimensionSchema("D", (Level("A"), Level("A"), all_level()), (("A", "A"), ("Gone", "All"))),
    ], ids=["level", "all-level", "schema", "malformed-schema"])
    def test_frozen_slotted_and_pickled(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.name = "Other"
        copied = pickle.loads(pickle.dumps(value))
        assert type(copied) is type(value) and copied == value and hash(copied) == hash(value)
        if isinstance(value, DimensionSchema):
            for name in ("A", "Bottom", "Mid", "All", "Gone"):
                assert outcome(copied.level, name) == outcome(value.level, name)
                assert copied.parents_of(name) == value.parents_of(name)
            assert outcome(lambda: copied.bottom) == outcome(lambda: value.bottom)

    def test_equal_and_hash_read_only_the_declared_fields(self):
        a = linear_schema("D", "Bottom", "Mid")
        b = DimensionSchema("D", a.levels, a.edges)
        assert a == b and hash(a) == hash(b) == hash(("D", a.levels, a.edges))
        assert a != linear_schema("D", "Bottom")
        assert repr(a).startswith("DimensionSchema(name='D', levels=(Level(name='Bottom'")
        assert "_parents" not in repr(a)
        assert Level("X") == Level("X") and hash(Level("X")) == hash(("X", "string", True, False))

    def test_all_level_is_one_shared_value(self):
        assert all_level() is all_level()
        assert all_level() == Level("All", "string", ordered=False)


class TestCatalog:
    def test_id_dimension_is_implicit(self, phone_dimension):
        catalog = DimensionCatalog.of(phone_dimension)
        assert "Id" in catalog
        assert "Phone" in catalog

    def test_with_dimension_extends(self, phone_dimension, time_dimension):
        catalog = DimensionCatalog.of(phone_dimension)
        extended = catalog.with_dimension(time_dimension)
        assert "Time" not in catalog
        assert "Time" in extended

    def test_id_bottom_is_integer_typed(self):
        ident = id_dimension()
        is_member = ident.member_test("Id")
        assert is_member(7)
        assert not is_member("7")

    def test_catalogs_share_one_id_instance(self, phone_dimension, time_dimension):
        a = DimensionCatalog.of(phone_dimension)
        b = DimensionCatalog.of(time_dimension)
        assert a.instance("Id") is b.instance("Id")
        assert a.instance("Id") == id_dimension()
        assert a.with_dimension(time_dimension).instance("Id") is a.instance("Id")

    def test_roll_lookup(self, figures_catalog):
        assert figures_catalog.roll("Phone", "Phone", "Customer", "Ph4") == "C3"


def reference_roll(instance: DimensionInstance, from_level: str, to_level: str, member: object):
    """The roll-up semantics spelled out check by check, without any table."""
    schema = instance.schema
    for level in (from_level, to_level):
        if not schema.has_level(level):
            raise UnreachableLevel(f"dimension {schema.name}: unknown level {level}")
    if not instance.member_test(from_level)(member):
        raise UnknownMember(f"dimension {schema.name}: {member!r} is not a member of level {from_level}")
    if to_level == from_level:
        return member
    if to_level == "All":
        return "all"
    if to_level not in schema.reachable_from(from_level):
        raise UnreachableLevel(f"dimension {schema.name}: level {to_level} not reachable from {from_level}")
    path = paths_between(schema, from_level, to_level)[0]
    value = member
    for a, b in zip(path, path[1:]):
        step = instance.rollup_maps[(a, b)]
        if value not in step:
            raise UnknownMember(
                f"dimension {schema.name}: no roll-up for {member!r} from {from_level} to {to_level}"
            )
        value = step[value]
    return value


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the type and message are what is compared
        return (type(exc), str(exc))


def assert_resolver_matches(catalog: DimensionCatalog) -> int:
    """Every (dimension, from, to, probe) through roller, roll and the reference."""
    checked = 0
    for dim in catalog.names:
        instance = catalog.instance(dim)
        schema = instance.schema
        levels = [lv.name for lv in schema.levels] + ["NoSuchLevel"]
        for from_level in levels:
            probes = ["not-a-member", 3.5, None, datetime.date(1999, 1, 1)]
            if schema.has_level(from_level) and not schema.level(from_level).open:
                probes += sorted(instance.domain(from_level), key=repr)
            else:
                probes += [0, 42, "text"]
            for to_level in levels:
                for member in probes:
                    expected = outcome(reference_roll, instance, from_level, to_level, member)
                    resolved = outcome(lambda m: catalog.roller(dim, from_level, to_level)(m), member)
                    assert resolved == expected, (dim, from_level, to_level, member)
                    assert outcome(catalog.roll, dim, from_level, to_level, member) == expected
                    checked += 1
    return checked


class TestRoller:
    def test_matches_reference_on_generator_catalog(self):
        from graphoid.store import GeneratorConfig, generate

        data = generate(GeneratorConfig(phone_count=12, user_count=6, call_count=30, seed=5))
        assert assert_resolver_matches(data.catalog) > 0

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_on_random_cube_catalogs(self, seed):
        from graphoid.cubes import random_catalog

        assert assert_resolver_matches(random_catalog(random.Random(seed))) > 0

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_on_linear_and_diamond_schemas(self, seed):
        rng = random.Random(seed)
        assert assert_resolver_matches(DimensionCatalog.of(random_instance(rng, random_schema(rng, "D")))) > 0

    def test_matches_reference_on_a_partial_instance(self, phone_dimension):
        # a member with no parent at one level: "no roll-up" rather than "not a member"
        schema = linear_schema("D", "Low", "High")
        partial = DimensionInstance.build(schema, {"Low": {"a", "b"}, "High": {"x"}}, [("a", "Low", "x", "High")])
        catalog = DimensionCatalog.of(phone_dimension, partial)
        assert assert_resolver_matches(catalog) > 0
        with pytest.raises(UnknownMember, match="no roll-up for 'b' from Low to High"):
            catalog.roller("D", "Low", "High")("b")

    def test_roll_follows_the_roller_on_a_rejected_instance(self):
        # 'z' has a parent but is no member of Low, and 'x' rolls to "ALL":
        # a bare lookup in the roll-up maps would answer 'x' and "ALL"
        schema = linear_schema("D", "Low", "High")
        quads = [("a", "Low", "x", "High"), ("z", "Low", "x", "High"), ("x", "High", "ALL", "All")]
        rejected = DimensionInstance.build(schema, {"Low": {"a"}, "High": {"x"}}, quads)
        assert validate_instance(rejected)
        assert rejected.rollup_maps[("Low", "High")]["z"] == "x"
        assert rejected.rollup_maps[("High", "All")]["x"] == "ALL"
        catalog = DimensionCatalog.of(rejected)
        assert assert_resolver_matches(catalog) > 0
        with pytest.raises(UnknownMember, match="'z' is not a member of level Low"):
            catalog.roll("D", "Low", "High", "z")
        assert catalog.roll("D", "Low", "High", "a") == "x"
        assert catalog.roll("D", "High", "All", "x") == "all"

    def test_a_climb_keeps_the_instance_map(self):
        from graphoid.olap import climb
        from graphoid.store import GeneratorConfig, generate

        g = generate(GeneratorConfig(phone_count=8, user_count=4, call_count=20, seed=5)).graphoid
        climb(g, ["#Call"], RollupStep("Time", "Day", "Month"))
        mapping, roller = g.catalog._steps["Time"]["Day"]["Month"]
        assert mapping is g.catalog.instance("Time").rollup_maps[("Day", "Month")]
        day = g.edge_table.types["#Call"].columns[0][0]
        assert g.catalog.roll("Time", "Day", "Month", day) == roller(day) == mapping[day]

    @pytest.mark.parametrize(
        "from_level, to_level, member, refusal, message",
        [
            ("Phone", "Operator", "Ph99", UnknownMember, "'Ph99' is not a member of level Phone"),
            ("Phone", "Region", "Ph1", UnreachableLevel, "unknown level Region"),
        ],
    )
    def test_a_refused_roll_carries_no_lookup_error(self, phone_dimension, from_level, to_level, member, refusal, message):
        # the first call resolves the step, the second reads the kept one (or
        # resolves again, when the first was refused); neither raises from
        # inside the step table's ``except`` block
        catalog = DimensionCatalog.of(phone_dimension)
        for _ in range(2):
            with pytest.raises(refusal, match=message) as caught:
                catalog.roll("Phone", from_level, to_level, member)
            assert caught.value.__context__ is None
            assert caught.value.__cause__ is None

    def test_open_level_type_checked_on_the_way_to_all(self):
        duration = open_dimension("Duration")
        roll = duration.roller("Duration", "All")
        assert roll(42) == "all" and roll(4.5) == "all"
        with pytest.raises(UnknownMember, match="'42' is not a member of level Duration"):
            roll("42")
        with pytest.raises(UnknownMember, match="True is not a member of level Duration"):
            roll(True)

    def test_unknown_levels_refused_when_resolving(self, phone_dimension):
        with pytest.raises(UnreachableLevel, match="unknown level Nowhere"):
            phone_dimension.roller("Phone", "Nowhere")
        with pytest.raises(UnreachableLevel, match="unknown level Nowhere"):
            phone_dimension.roller("Nowhere", "Phone")

    def test_unreachable_level_checks_membership_first(self, phone_dimension):
        roll = phone_dimension.roller("Operator", "City")
        with pytest.raises(UnknownMember, match="is not a member of level Operator"):
            roll("Ph1")
        with pytest.raises(UnreachableLevel, match="level City not reachable from Operator"):
            roll("ATT")


def reference_rollup_maps(instance: DimensionInstance) -> dict:
    """Roll-up maps built one schema edge at a time: each edge rescans every
    parent quad, and a child's first parent wins; then the maps compose
    outward from each level."""
    maps: dict = {}
    for child_level, parent_level in instance.schema.edges:
        step: dict = {}
        for child, clv, parent, plv in instance.parent_quads:
            if clv == child_level and plv == parent_level and child not in step:
                step[child] = parent
        maps[(child_level, parent_level)] = step
    edge_maps = dict(maps)
    for start in sorted({lv.name for lv in instance.schema.levels}):
        visited = {start}
        frontier = [(start, {m: m for m in instance.members.get(start, frozenset())})]
        while frontier:
            level, mapping = frontier.pop()
            for parent in sorted(instance.schema.parents_of(level)):
                edge = edge_maps[(level, parent)]
                key = (start, parent)
                if key not in maps:
                    maps[key] = {m: edge[v] for m, v in mapping.items() if v in edge}
                if parent not in visited:
                    visited.add(parent)
                    frontier.append((parent, maps[key]))
    return maps


def assert_rollup_maps_match(catalog: DimensionCatalog) -> None:
    for dim in catalog.names:
        instance = catalog.instance(dim)
        expected = reference_rollup_maps(instance)
        assert instance.rollup_maps == expected, dim
        # the same insertion order as well, so iteration over a map is unchanged
        assert [list(m) for m in instance.rollup_maps.values()] == [list(m) for m in expected.values()], dim


class TestRollupMaps:
    def test_match_reference_on_generator_catalog(self):
        from graphoid.store import GeneratorConfig, generate

        data = generate(GeneratorConfig(phone_count=30, user_count=10, call_count=200, seed=5))
        assert_rollup_maps_match(data.catalog)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_match_reference_on_random_cube_catalogs(self, seed):
        from graphoid.cubes import random_catalog

        assert_rollup_maps_match(random_catalog(random.Random(seed)))

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_match_reference_on_linear_and_diamond_schemas(self, seed):
        rng = random.Random(seed)
        assert_rollup_maps_match(DimensionCatalog.of(random_instance(rng, random_schema(rng, "D"))))

    def test_first_parent_wins(self):
        schema = linear_schema("D", "Low", "High")
        quads = [("a", "Low", "x", "High"), ("a", "Low", "y", "High"), ("b", "Low", "y", "High")]
        instance = DimensionInstance.build(schema, {"Low": {"a", "b"}, "High": {"x", "y"}}, quads)
        assert instance.rollup_maps[("Low", "High")] == {"a": "x", "b": "y"}
        assert_rollup_maps_match(DimensionCatalog.of(instance))
