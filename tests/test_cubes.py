"""Cubes, the star embedding, classical operations, and the equivalence harness."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphoid.cubes import (
    Cube,
    CubeError,
    CubeMeasure,
    CubeOp,
    StarShapeError,
    build_cube,
    check_equivalence,
    cube_dice,
    cube_roll_up,
    cube_slice,
    random_catalog,
    random_cube,
    run_equivalence_trials,
    star,
    unstar,
)
from graphoid.dims import (
    DimensionCatalog,
    DimensionInstance,
    DimensionSchema,
    Level,
    open_dimension,
)
from graphoid.hypergraph import HyperEdge
from graphoid.olap import Atom, Condition

CELLS = {
    ("Lyon", "ink"): (10,),
    ("Lyon", "pen"): (20,),
    ("Rosario", "ink"): (5,),
    ("Rosario", "pen"): (3,),
    ("Salta", "pen"): (8,),
}

COUNTRY_OF = {"Lyon": "France", "Rosario": "Argentina", "Salta": "Argentina"}


@pytest.fixture(scope="module")
def sales_catalog() -> DimensionCatalog:
    geo = DimensionInstance.build(
        DimensionSchema(
            "Geo",
            (Level("City"), Level("Country"), Level("All", ordered=False)),
            (("City", "Country"), ("Country", "All")),
        ),
        {"City": set(COUNTRY_OF), "Country": set(COUNTRY_OF.values())},
        [(city, "City", country, "Country") for city, country in COUNTRY_OF.items()],
    )
    product = DimensionInstance.build(
        DimensionSchema(
            "Product", (Level("Product"), Level("All", ordered=False)), (("Product", "All"),)
        ),
        {"Product": {"ink", "pen"}},
        [],
    )
    return DimensionCatalog.of(geo, product, open_dimension("Sales"))


@pytest.fixture(scope="module")
def sales_cube(sales_catalog) -> Cube:
    return build_cube(
        sales_catalog,
        [("Geo", "City"), ("Product", "Product")],
        [CubeMeasure("Sales", "SUM")],
        CELLS,
    )


class TestBuildCube:
    def test_shape(self, sales_cube):
        assert sales_cube.dims == ("Geo", "Product")
        assert sales_cube.levels == ("City", "Product")
        assert sales_cube.cell_count == len(CELLS)

    def test_unknown_dimension(self, sales_catalog):
        with pytest.raises(CubeError, match="unknown dimension"):
            build_cube(sales_catalog, [("Region", "City")], [("Sales", "SUM")], {})

    def test_open_level_refused(self, sales_catalog):
        with pytest.raises(CubeError, match="enumerable"):
            build_cube(sales_catalog, [("Sales", "Sales")], [("Sales", "SUM")], {})

    def test_needs_a_measure(self, sales_catalog):
        with pytest.raises(CubeError, match="at least one measure"):
            build_cube(sales_catalog, [("Geo", "City")], [], {})

    def test_unknown_aggregate(self, sales_catalog):
        with pytest.raises(CubeError, match="unknown aggregate"):
            build_cube(sales_catalog, [("Geo", "City")], [("Sales", "MEDIAN")], {})

    def test_member_outside_domain(self, sales_catalog):
        with pytest.raises(CubeError, match="outside dom"):
            build_cube(
                sales_catalog,
                [("Geo", "City")],
                [("Sales", "SUM")],
                {("Paris",): (1,)},
            )

    def test_coordinate_arity_checked(self, sales_catalog):
        with pytest.raises(CubeError, match="expected 1 coordinates"):
            build_cube(
                sales_catalog,
                [("Geo", "City")],
                [("Sales", "SUM")],
                {("Lyon", "ink"): (1,)},
            )

    def test_measure_row_arity_checked(self, sales_catalog):
        with pytest.raises(CubeError, match="expected 1 measure values"):
            build_cube(
                sales_catalog,
                [("Geo", "City")],
                [("Sales", "SUM")],
                {("Lyon",): (1, 2)},
            )

    def test_non_numeric_measure_value(self, sales_catalog):
        with pytest.raises(CubeError, match="not numeric"):
            build_cube(
                sales_catalog,
                [("Geo", "City")],
                [("Sales", "SUM")],
                {("Lyon",): ("ten",)},
            )

    def test_duplicate_coordinate(self, sales_catalog):
        with pytest.raises(CubeError, match="duplicate coordinate"):
            build_cube(
                sales_catalog,
                [("Geo", "City")],
                [("Sales", "SUM")],
                [(("Lyon",), (1,)), (("Lyon",), (2,))],
            )


class TestStar:
    def test_node_layout_is_dimension_then_member_order(self, sales_cube):
        g = star(sales_cube)
        layout = [(ident, node.ntype, node.label[1]) for ident, node in sorted(g.nodes.items())]
        assert layout == [
            (11, "#Geo", "Lyon"),
            (12, "#Geo", "Rosario"),
            (13, "#Geo", "Salta"),
            (14, "#Product", "ink"),
            (15, "#Product", "pen"),
        ]

    def test_one_edge_per_cell_and_measure(self, sales_cube):
        g = star(sales_cube)
        assert len(g.edges) == len(CELLS)
        assert all(e.source == frozenset() for e in g.edges)
        by_cell = {frozenset(e.target): e.label for e in g.edges}
        assert by_cell[frozenset({11, 14})] == (10,)
        assert by_cell[frozenset({13, 15})] == (8,)

    def test_levels_follow_the_cube(self, sales_cube):
        g = star(sales_cube)
        assert g.levels[("#Geo", 1)] == "City"
        assert g.levels[("#Product", 1)] == "Product"

    def test_two_measures_mean_parallel_edges(self, sales_catalog):
        catalog = sales_catalog.with_dimension(open_dimension("Units"))
        cube = build_cube(
            catalog,
            [("Geo", "City")],
            [CubeMeasure("Sales", "SUM"), CubeMeasure("Units", "MAX")],
            {("Lyon",): (4, 2), ("Salta",): (1, 1)},
        )
        g = star(cube)
        assert len(g.edges) == 2 * len(cube.cells)
        assert sorted(g.edge_types) == ["#Sales", "#Units"]
        assert unstar(g) == cube

    def test_cube_without_cells_has_no_edges(self, sales_catalog):
        cube = build_cube(sales_catalog, [("Geo", "City")], [("Sales", "SUM")], {})
        g = star(cube)
        assert len(g.nodes) == 3 and g.edges == ()

    def test_deterministic(self, sales_cube):
        assert star(sales_cube) == star(sales_cube)


class TestUnstar:
    def test_round_trip(self, sales_cube):
        assert unstar(star(sales_cube)) == sales_cube

    def test_round_trip_keeps_empty_cube(self, sales_catalog):
        cube = build_cube(sales_catalog, [("Geo", "City")], [("Sales", "SUM")], {})
        assert unstar(star(cube)) == cube

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_round_trip_random(self, seed):
        rng = random.Random(seed)
        catalog = random_catalog(rng)
        cube = random_cube(rng, catalog)
        assert unstar(star(cube)) == cube

    def test_non_empty_source_refused(self, sales_cube):
        g = star(sales_cube)
        first = g.edges[0]
        bad = HyperEdge(first.etype, frozenset({11}), first.target, first.label, first.surrogate)
        with pytest.raises(StarShapeError, match="non-empty source"):
            unstar(g.derive(edges=(bad,) + g.edges[1:]))

    def test_missing_dimension_refused(self, sales_cube):
        g = star(sales_cube)
        first = g.edges[0]
        bad = HyperEdge(first.etype, frozenset(), frozenset({11}), first.label, first.surrogate)
        with pytest.raises(StarShapeError, match="misses a dimension"):
            unstar(g.derive(edges=(bad,) + g.edges[1:]))

    def test_doubled_dimension_refused(self, sales_cube):
        g = star(sales_cube)
        first = g.edges[0]
        bad = HyperEdge(first.etype, frozenset(), frozenset({11, 12, 14}), first.label, first.surrogate)
        with pytest.raises(StarShapeError, match="hits Geo twice"):
            unstar(g.derive(edges=(bad,) + g.edges[1:]))

    def test_duplicate_cell_refused(self, sales_cube):
        g = star(sales_cube)
        with pytest.raises(StarShapeError, match="duplicate cell"):
            unstar(g.derive(edges=g.edges + (g.edges[0],)))


class TestClassicalOps:
    def test_roll_up_to_country(self, sales_cube):
        rolled = cube_roll_up(sales_cube, "Geo", "Country")
        expected: dict[tuple, int] = {}
        for (city, product), (sales,) in CELLS.items():
            key = (COUNTRY_OF[city], product)
            expected[key] = expected.get(key, 0) + sales
        assert rolled.levels == ("Country", "Product")
        assert rolled.cells == {coord: (total,) for coord, total in expected.items()}

    def test_roll_up_unreachable_level(self, sales_cube):
        country = cube_roll_up(sales_cube, "Geo", "Country")
        with pytest.raises(CubeError, match="not reachable"):
            cube_roll_up(country, "Geo", "City")

    def test_roll_up_unknown_level(self, sales_cube):
        with pytest.raises(CubeError, match="no level"):
            cube_roll_up(sales_cube, "Geo", "Continent")

    def test_measure_override_must_cover_exactly(self, sales_cube):
        with pytest.raises(CubeError, match="cover the cube's measures exactly"):
            cube_roll_up(sales_cube, "Geo", "Country", measures=[("Revenue", "SUM")])

    def test_measure_override_must_not_repeat(self, sales_cube):
        with pytest.raises(CubeError, match="^measure Sales is listed more than once$"):
            cube_roll_up(sales_cube, "Geo", "Country", measures=[("Sales", "SUM"), ("Sales", "MAX")])

    def test_slice_drops_the_dimension(self, sales_cube):
        sliced = cube_slice(sales_cube, "Geo")
        expected: dict[tuple, int] = {}
        for (city, product), (sales,) in CELLS.items():
            expected[(product,)] = expected.get((product,), 0) + sales
        assert sliced.dims == ("Product",)
        assert sliced.levels == ("Product",)
        assert sliced.cells == {coord: (total,) for coord, total in expected.items()}

    def test_dice_on_cube_level(self, sales_cube):
        diced = cube_dice(sales_cube, Condition.of(Atom("Geo", "City", "=", "Rosario")))
        assert set(diced.cells) == {("Rosario", "ink"), ("Rosario", "pen")}

    def test_dice_rolls_atoms_up(self, sales_cube):
        diced = cube_dice(sales_cube, Condition.of(Atom("Geo", "Country", "=", "Argentina")))
        assert set(diced.cells) == {
            coord for coord in CELLS if COUNTRY_OF[coord[0]] == "Argentina"
        }

    def test_dice_on_measures(self, sales_cube):
        diced = cube_dice(sales_cube, Condition.of(Atom("Sales", None, ">", 9)))
        assert set(diced.cells) == {coord for coord, (v,) in CELLS.items() if v > 9}

    def test_dice_conjunction_is_sequential(self, sales_cube):
        a = Atom("Geo", "Country", "=", "Argentina")
        b = Atom("Sales", None, ">", 4)
        both = cube_dice(sales_cube, Condition.of(a, b))
        assert both.cells == cube_dice(cube_dice(sales_cube, Condition.of(a)), Condition.of(b)).cells

    def test_dice_negation(self, sales_cube):
        diced = cube_dice(
            sales_cube, Condition.of(Atom("Geo", "Country", "=", "Argentina", negated=True))
        )
        assert set(diced.cells) == {coord for coord in CELLS if COUNTRY_OF[coord[0]] == "France"}

    def test_dice_below_cube_level_refused(self, sales_cube):
        country = cube_roll_up(sales_cube, "Geo", "Country")
        with pytest.raises(CubeError, match="below the cube's level"):
            cube_dice(country, Condition.of(Atom("Geo", "City", "=", "Lyon")))


class TestCubeOpDescribe:
    def test_each_kind(self):
        assert CubeOp("roll_up", dim="Geo", level="Country").describe() == "roll_up Geo -> Country"
        assert (
            CubeOp("drill_down", dim="Geo", level="All", to_level="City").describe()
            == "roll_up Geo -> All, drill_down -> City"
        )
        assert CubeOp("slice", dim="Geo").describe() == "slice Geo"
        text = CubeOp(
            "dice", condition=Condition.of(Atom("Sales", None, ">", 9, negated=True))
        ).describe()
        assert text == "dice [NOT Sales > 9]"


class TestEquivalence:
    def test_roll_up_agrees(self, sales_cube):
        assert check_equivalence(sales_cube, CubeOp("roll_up", dim="Geo", level="Country")) == []

    def test_drill_down_agrees(self, sales_cube):
        op = CubeOp("drill_down", dim="Geo", level="Country", to_level="City")
        assert check_equivalence(sales_cube, op) == []

    def test_slice_agrees(self, sales_cube):
        assert check_equivalence(sales_cube, CubeOp("slice", dim="Geo")) == []
        assert check_equivalence(sales_cube, CubeOp("slice", dim="Product")) == []

    def test_dice_on_level_agrees(self, sales_cube):
        cond = Condition.of(Atom("Geo", "Country", "=", "Argentina"))
        assert check_equivalence(sales_cube, CubeOp("dice", condition=cond)) == []

    def test_dice_on_measure_agrees(self, sales_cube):
        cond = Condition.of(Atom("Sales", None, ">", 9))
        assert check_equivalence(sales_cube, CubeOp("dice", condition=cond)) == []

    def test_unknown_kind_refused(self, sales_cube):
        with pytest.raises(CubeError, match="unknown operation kind"):
            check_equivalence(sales_cube, CubeOp("pivot"))

    def test_random_trials_all_agree(self):
        results = run_equivalence_trials(30, seed=2024)
        failures = [r for r in results if not r.ok]
        assert failures == []

    def test_trials_are_deterministic(self):
        a = run_equivalence_trials(10, seed=7)
        b = run_equivalence_trials(10, seed=7)
        assert a == b

    def test_random_catalogs_share_their_measure_dimensions(self):
        rng = random.Random(3)
        first, second = random_catalog(rng), random_catalog(rng)
        assert first.instance("M1") is second.instance("M1")
        assert first.instance("M2") is second.instance("M2")
