"""One check per decision: the query checker and the API report the same problem.

Each bad roll-up step and each bad condition atom below is checked three
ways: by ``gql.check`` on a program that uses it, by the OLAP operation
(``climb`` for steps, ``dice`` for atoms) and, for atoms, by
``shortest_paths`` with the atom in a node filter.  All of them must name
the same problem; a prefix such as ``line 1: `` is ignored.
"""
from __future__ import annotations

import pytest

from graphoid import gql
from graphoid.dims import RollupStep
from graphoid.hypergraph import GraphoidError
from graphoid.metrics import NodeFilter, shortest_paths
from graphoid.olap import Atom, Condition, OlapError, climb, dice

PHONES = NodeFilter("#Phone")

BAD_STEPS = [
    (RollupStep("Size", "Small", "Big"), "unknown dimension 'Size'"),
    (RollupStep("Phone", "Phone", "Region"), "dimension Phone has no level 'Region'"),
    (RollupStep("Phone", "Region", "All"), "dimension Phone has no level 'Region'"),
    (RollupStep("Phone", "Operator", "Customer"), "level Customer not reachable from Operator in Phone"),
    (RollupStep("Time", "Year", "Day"), "level Day not reachable from Year in Time"),
]

BAD_ATOMS = [
    (Atom("Weight", "All", "=", "all"), "unknown dimension 'Weight'"),
    (Atom("Phone", "Region", "=", "x"), "dimension Phone has no level 'Region'"),
    (Atom("Phone", "City", "<", 3), "constant 3 is not a string (Phone.City)"),
    (Atom("Time", "Year", "=", "2016"), 'constant "2016" is not a int (Time.Year)'),
    (Atom("Phone", "All", "<", "all"), "level Phone.All is unordered"),
    (Atom("Phone", "All", ">", "all", negated=True), "level Phone.All is unordered"),
]


def same_problem(message: str, text: str) -> bool:
    return message == text or message.endswith(f": {text}")


def checked(program: str, catalog) -> list[str]:
    return gql.check(gql.parse(program), catalog, defined={"G"})


@pytest.mark.parametrize("step, text", BAD_STEPS, ids=[t for _, t in BAD_STEPS])
def test_step_problem_is_the_same_everywhere(step, text, base_graph, figures_catalog):
    program = f"B = CLIMB(G, {{#Phone, #Call}}, {step.dimension}: {step.from_level} -> {step.to_level});"
    (report,) = checked(program, figures_catalog)
    assert same_problem(report, text)
    assert figures_catalog.step_problems(step) == [text]
    with pytest.raises(OlapError) as info:
        climb(base_graph, ["#Phone", "#Call"], step)
    assert same_problem(str(info.value), text)


@pytest.mark.parametrize("atom, text", BAD_ATOMS, ids=[t for _, t in BAD_ATOMS])
def test_atom_problem_is_the_same_everywhere(atom, text, base_graph, figures_catalog):
    shown = gql.format_atom(atom)
    (report,) = checked(f"B = DICE(G, {shown});", figures_catalog)
    assert same_problem(report, text)
    (report,) = checked(f"P = SHORTESTPATHS(G, #Phone WHERE {shown}, #Phone);", figures_catalog)
    assert same_problem(report, text)
    with pytest.raises(OlapError) as info:
        dice(base_graph, Condition.of(atom))
    assert same_problem(str(info.value), text)
    flt = NodeFilter("#Phone", Condition.of(atom))
    for source, target in ((flt, PHONES), (PHONES, flt)):
        with pytest.raises(GraphoidError) as info:
            shortest_paths(base_graph, source, target)
        assert same_problem(str(info.value), text)


def test_filter_atom_without_a_level_is_the_same_everywhere(base_graph, figures_catalog):
    text = "filter atom Phone names no level"
    (report,) = checked('P = SHORTESTPATHS(G, #Phone, #Phone WHERE Phone = "Ph1");', figures_catalog)
    assert same_problem(report, text)
    flt = NodeFilter("#Phone", Condition.of(Atom("Phone", None, "=", "Ph1")))
    with pytest.raises(GraphoidError) as info:
        shortest_paths(base_graph, PHONES, flt)
    assert same_problem(str(info.value), text)
