"""Query language: tokens, parse trees, printing, static checks, evaluation."""
from __future__ import annotations

import datetime
import itertools
import pathlib
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphoid import olap
from graphoid.dims import DimensionCatalog, DimensionInstance, DimensionSchema, Level, RollupStep
from graphoid.gql import (
    OPS,
    AggrOp,
    BoolAnd,
    BoolAtom,
    BoolNot,
    BoolOr,
    ClimbOp,
    DiceOp,
    DrilldownOp,
    EdgifyOp,
    GqlError,
    GqlEvalError,
    GqlSyntaxError,
    GroupOp,
    Load,
    MinimizeOp,
    NdeleteOp,
    Program,
    Ref,
    RollupOp,
    SdiceOp,
    ShortestPathsOp,
    SliceOp,
    Statement,
    check,
    eval_program,
    format_condition,
    format_value,
    normalize_condition,
    parse,
    parse_condition,
    print_program,
)
from graphoid.hypergraph import NodeTypeDecl, build_graphoid
from graphoid.metrics import NodeFilter, PathResult
from graphoid.olap import Atom, Condition, TargetSet
from helpers import random_atom, random_bool_tree, random_program

ROOT = pathlib.Path(__file__).resolve().parents[1]

PIPELINE = (
    "G2 = GROUP(G, #Phone, Phone: Phone -> Operator);\n"
    "Y = ROLLUP(G2, {#Call}, Time: Day -> Year; #Call, Duration, SUM);\n"
    "OUTPUT Y;\n"
)


class TestParse:
    def test_pipeline_tree(self):
        program = parse(PIPELINE)
        assert program == Program(
            (
                Statement(
                    "G2", GroupOp(Ref("G"), "#Phone", RollupStep("Phone", "Phone", "Operator"))
                ),
                Statement(
                    "Y",
                    RollupOp(
                        Ref("G2"),
                        TargetSet.of("#Call"),
                        RollupStep("Time", "Day", "Year"),
                        "#Call",
                        (("Duration", "SUM"),),
                    ),
                ),
                Statement(None, Ref("Y")),
            )
        )

    @pytest.mark.parametrize(
        "text,expected",
        [
            (
                "CLIMB(G, *, Time: Day -> Month)",
                ClimbOp(Ref("G"), TargetSet.everything(), RollupStep("Time", "Day", "Month")),
            ),
            ("MINIMIZE(G)", MinimizeOp(Ref("G"))),
            (
                "AGGR(G, #Call, Duration, SUM)",
                AggrOp(Ref("G"), "#Call", (("Duration", "SUM"),)),
            ),
            (
                "AGGR(G, *, Duration, SUM, Cost, MAX)",
                AggrOp(Ref("G"), "*", (("Duration", "SUM"), ("Cost", "MAX"))),
            ),
            (
                "DRILLDOWN(Y, *, Time -> Day; #Call, Duration, SUM)",
                DrilldownOp(
                    Ref("Y"), TargetSet.everything(), "Time", "Day", "#Call", (("Duration", "SUM"),)
                ),
            ),
            (
                "SLICE(G, Time; Duration, SUM)",
                SliceOp(Ref("G"), "Time", (("Duration", "SUM"),)),
            ),
            (
                'DICE(G, Duration > 3 AND Phone.Operator = "Claro")',
                DiceOp(
                    Ref("G"),
                    Condition.of(
                        Atom("Duration", None, ">", 3),
                        Atom("Phone", "Operator", "=", "Claro"),
                    ),
                ),
            ),
            (
                "SDICE(G, Duration > 3)",
                SdiceOp(Ref("G"), Condition.of(Atom("Duration", None, ">", 3))),
            ),
            ("NDELETE(G, #Phone)", NdeleteOp(Ref("G"), "#Phone")),
            ("EDGIFY(G, #Phone, Phone)", EdgifyOp(Ref("G"), "#Phone", "Phone")),
            (
                'SHORTESTPATHS(G, #Phone WHERE Phone.Operator = "Claro", #Phone, {#Call})',
                ShortestPathsOp(
                    Ref("G"),
                    NodeFilter("#Phone", Condition.of(Atom("Phone", "Operator", "=", "Claro"))),
                    NodeFilter("#Phone"),
                    TargetSet.of("#Call"),
                ),
            ),
        ],
    )
    def test_each_operation(self, text, expected):
        program = parse(f"X = {text};")
        assert program.statements[0].expr == expected

    def test_shortest_paths_targets_default_to_everything(self):
        program = parse("X = SHORTESTPATHS(G, #Phone, #Phone);")
        expr = program.statements[0].expr
        assert expr == ShortestPathsOp(Ref("G"), NodeFilter("#Phone"), NodeFilter("#Phone"))
        assert expr.via == TargetSet.everything()
        assert print_program(program) == "X = SHORTESTPATHS(G, #Phone, #Phone, *);\n"

    def test_load_source(self):
        program = parse('G0 = LOAD "calls/graph.json";')
        assert program.statements[0].expr == Load("calls/graph.json")

    def test_nested_calls(self):
        program = parse('OUTPUT MINIMIZE(CLIMB(LOAD "g.json", {#Phone}, Phone: Phone -> Operator));')
        expr = program.statements[0].expr
        assert expr == MinimizeOp(
            ClimbOp(Load("g.json"), TargetSet.of("#Phone"), RollupStep("Phone", "Phone", "Operator"))
        )

    def test_statement_positions(self):
        program = parse("A = MINIMIZE(G);\nOUTPUT A;\n")
        assert [s.line for s in program.statements] == [1, 2]

    def test_date_literal(self):
        cond = parse_condition("Time.Day = 2016-10-10")
        assert cond == Condition.of(Atom("Time", "Day", "=", datetime.date(2016, 10, 10)))

    def test_number_literals(self):
        cond = parse_condition("Duration > -4 OR Duration < 2.5")
        atoms = cond.atoms()
        assert atoms[0].value == -4 and isinstance(atoms[0].value, int)
        assert atoms[1].value == 2.5 and isinstance(atoms[1].value, float)


class TestSyntaxErrors:
    def test_unknown_operation(self):
        with pytest.raises(GqlSyntaxError, match="unknown operation 'FOO'") as info:
            parse("OUTPUT FOO(G);")
        assert info.value.line == 1 and info.value.col == 8

    def test_date_literal_that_is_no_day(self):
        for day in ("2016-13-45", "2015-02-29"):
            with pytest.raises(GqlSyntaxError, match=f"no such date {day}") as info:
                parse(f"OUTPUT DICE(G,\n  Time.Day = {day});")
            assert (info.value.line, info.value.col) == (2, 14)

    def test_missing_semicolon(self):
        with pytest.raises(GqlSyntaxError, match="expected ';'"):
            parse("X = MINIMIZE(G)")

    def test_unexpected_character(self):
        with pytest.raises(GqlSyntaxError, match="unexpected character '@'"):
            parse("X = MINIMIZE(G) @;")

    def test_missing_comparator(self):
        with pytest.raises(GqlSyntaxError, match="expected a comparator"):
            parse("X = DICE(G, Duration LIKE 3);")

    def test_missing_literal(self):
        with pytest.raises(GqlSyntaxError, match="expected a literal"):
            parse("X = DICE(G, Duration > );")

    def test_position_formatting(self):
        with pytest.raises(GqlSyntaxError) as info:
            parse("A = MINIMIZE(G);\nB = MINIMIZE(;\n")
        assert str(info.value).startswith("line 2, col 14:")

    def test_trailing_condition_input(self):
        with pytest.raises(GqlSyntaxError, match="trailing input"):
            parse_condition("Duration > 3 ;")

    @pytest.mark.parametrize("escape", ["\\n", "\\t", "\\x", "\\'"])
    def test_unknown_string_escape(self, escape):
        with pytest.raises(GqlSyntaxError, match="unknown escape") as info:
            parse(f'A = MINIMIZE(G);\nX = DICE(G, Phone.City = "a\\\\{escape}");')
        assert (info.value.line, info.value.col) == (2, 30)

    def test_known_escapes_decode(self):
        cond = parse_condition('Phone.City = "\\\\n \\" \\\\"')
        assert cond.atoms()[0].value == '\\n " \\'


def D(value) -> Atom:
    return Atom("Duration", None, ">", value)


class TestConditionNormalization:
    def test_de_morgan(self):
        cond = parse_condition('NOT (Duration > 3 OR Phone.Operator = "Claro")')
        assert cond == Condition.of(
            Atom("Duration", None, ">", 3, negated=True),
            Atom("Phone", "Operator", "=", "Claro", negated=True),
        )

    def test_distribution(self):
        cond = parse_condition("Duration > 1 AND (Time.Year = 2016 OR Time.Year = 2015)")
        assert cond == Condition(
            (
                (D(1), Atom("Time", "Year", "=", 2016)),
                (D(1), Atom("Time", "Year", "=", 2015)),
            )
        )

    def test_double_negation(self):
        assert parse_condition("NOT NOT Duration > 3") == Condition.of(D(3))

    def test_not_binds_to_the_atom(self):
        cond = parse_condition("NOT Duration > 3 AND Duration < 9")
        assert cond == Condition.of(
            Atom("Duration", None, ">", 3, negated=True),
            Atom("Duration", None, "<", 9),
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_normal_form_preserves_truth_tables(self, seed):
        rng = random.Random(seed)
        atoms = [replace(random_atom(rng), dim=f"Dim{i}") for i in range(3)]
        tree = random_bool_tree(rng, atoms)
        cond = normalize_condition(tree)

        def positive(atom: Atom) -> Atom:
            return replace(atom, negated=False)

        def literal(atom: Atom, truth) -> bool:
            value = truth[positive(atom)]
            return (not value) if atom.negated else value

        def eval_tree(node, truth) -> bool:
            if isinstance(node, BoolAtom):
                return literal(node.atom, truth)
            if isinstance(node, BoolNot):
                return not eval_tree(node.item, truth)
            if isinstance(node, BoolAnd):
                return all(eval_tree(item, truth) for item in node.items)
            if isinstance(node, BoolOr):
                return any(eval_tree(item, truth) for item in node.items)
            raise AssertionError(node)

        keys = [positive(a) for a in atoms]
        for bits in itertools.product([False, True], repeat=len(keys)):
            truth = dict(zip(keys, bits))
            direct = eval_tree(tree, truth)
            via_dnf = any(all(literal(a, truth) for a in clause) for clause in cond.clauses)
            assert direct == via_dnf


class TestPrinter:
    def test_pipeline_prints_canonically(self):
        assert print_program(parse(PIPELINE)) == PIPELINE

    def test_single_clause_needs_no_parentheses(self):
        text = "Duration > 1 AND Duration < 5"
        assert format_condition(parse_condition(text)) == text

    def test_multi_clause_parenthesizes_long_clauses(self):
        text = "(Duration > 1 AND Duration < 5) OR Time.Year = 2016"
        assert format_condition(parse_condition(text)) == text

    def test_string_escaping_round_trips(self):
        cond = Condition.of(Atom("Phone", "Operator", "=", 'say "hi"\\'))
        assert parse_condition(format_condition(cond)) == cond

    def test_date_prints_bare(self):
        cond = Condition.of(Atom("Time", "Day", "=", datetime.date(2016, 10, 10)))
        assert format_condition(cond) == "Time.Day = 2016-10-10"

    @pytest.mark.parametrize(
        "value,text",
        [(0.00001, "0.00001"), (1e16, "10000000000000000.0"), (-2.5e-7, "-0.00000025"), (3.0, "3.0")],
    )
    def test_floats_print_positionally_and_round_trip(self, value, text):
        assert format_value(value) == text
        program = parse(f"X = DICE(G, Duration > {text});")
        (atom,) = program.statements[0].expr.condition.atoms()
        assert atom.value == value and isinstance(atom.value, float)
        assert print_program(program) == f"X = DICE(G, Duration > {text});\n"

    @pytest.mark.parametrize(
        "value", [float("inf"), float("-inf"), float("nan"), True, "a\nb", datetime.datetime(2016, 1, 1, 12)]
    )
    def test_unprintable_literals_refused(self, value):
        with pytest.raises(GqlError, match="cannot print literal"):
            format_value(value)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_print_parse_fixpoint(self, seed):
        rng = random.Random(seed)
        program = random_program(rng)
        text = print_program(program)
        assert parse(text) == program
        assert print_program(parse(text)) == text


class TestCheck:
    def test_clean_pipeline(self, figures_catalog):
        assert check(parse(PIPELINE), figures_catalog, defined={"G"}) == []

    def test_name_used_before_definition(self, figures_catalog):
        report = check(parse("OUTPUT MINIMIZE(G);"), figures_catalog)
        assert report == ["line 1: name 'G' used before definition"]

    def test_rebinding_reported(self, figures_catalog):
        report = check(parse("A = MINIMIZE(A2);\nA = MINIMIZE(A);\n"), figures_catalog, {"A2"})
        assert any("already bound" in line for line in report)

    def test_unknown_dimension_in_step(self, figures_catalog):
        report = check(parse("B = CLIMB(G, *, Size: Small -> Big);"), figures_catalog, {"G"})
        assert report == ["line 1: unknown dimension 'Size'"]

    def test_unreachable_step(self, figures_catalog):
        report = check(
            parse("B = CLIMB(G, *, Phone: Operator -> Customer);"), figures_catalog, {"G"}
        )
        assert report == ["line 1: level Customer not reachable from Operator in Phone"]

    def test_constant_type_mismatch(self, figures_catalog):
        report = check(parse('B = DICE(G, Time.Year = "2016");'), figures_catalog, {"G"})
        assert report == ['line 1: constant "2016" is not a int (Time.Year)']

    def test_filter_atom_without_a_level(self, figures_catalog):
        report = check(parse("P = SHORTESTPATHS(G, #Phone WHERE Phone = 3, #Phone);"), figures_catalog, {"G"})
        assert report == ["line 1: constant 3 is not a string (Phone.Phone)", "line 1: filter atom Phone names no level"]

    def test_unknown_aggregate(self, figures_catalog):
        report = check(parse("B = AGGR(G, #Call, Duration, MEDIAN);"), figures_catalog, {"G"})
        assert report == ["line 1: unknown aggregate 'MEDIAN'"]

    def test_repeated_measure(self, figures_catalog):
        report = check(parse("B = AGGR(G, #Call, Duration, SUM, Duration, MAX);"), figures_catalog, {"G"})
        assert report == ["line 1: measure Duration is listed more than once"]

    def test_problems_accumulate(self, figures_catalog):
        text = "B = CLIMB(G, *, Size: Small -> Big);\nC = AGGR(B, #Call, Duration, MEDIAN);\n"
        report = check(parse(text), figures_catalog, {"G"})
        assert len(report) == 2


class TestEval:
    def test_pipeline_matches_expected_graph(self, base_graph, year_rollup_graph, figures_catalog):
        outcome = eval_program(parse(PIPELINE), figures_catalog, bindings={"G": base_graph})
        assert outcome.outputs == [year_rollup_graph]
        assert set(outcome.bindings) == {"G", "G2", "Y"}

    def test_matches_direct_call(self, base_graph, figures_catalog):
        program = parse("OUTPUT SDICE(G, Duration > 8);")
        outcome = eval_program(program, figures_catalog, bindings={"G": base_graph})
        cond = Condition.of(Atom("Duration", None, ">", 8))
        assert outcome.outputs == [olap.s_dice(base_graph, cond)]

    def test_loader_receives_the_path(self, base_graph, figures_catalog):
        seen = []

        def loader(path: str):
            seen.append(path)
            return base_graph

        outcome = eval_program(
            parse('G0 = LOAD "calls/base.json";\nOUTPUT G0;\n'), figures_catalog, loader=loader
        )
        assert seen == ["calls/base.json"]
        assert outcome.outputs == [base_graph]

    def test_bare_atom_without_a_measure_fails_at_eval(self, base_graph, figures_catalog):
        program = parse("OUTPUT DICE(G, Time = 2016-10-10);")
        assert check(program, figures_catalog, {"G"}) == []
        with pytest.raises(GqlEvalError, match="measure Time is not declared by any edge type"):
            eval_program(program, figures_catalog, bindings={"G": base_graph})

    def test_load_without_loader_fails(self, figures_catalog):
        with pytest.raises(GqlEvalError, match="LOAD is not available"):
            eval_program(parse('G0 = LOAD "x.json";'), figures_catalog)

    def test_unbound_name_fails(self, figures_catalog):
        with pytest.raises(GqlEvalError, match="name 'G' is not bound"):
            eval_program(parse("OUTPUT MINIMIZE(G);"), figures_catalog)

    def test_error_carries_statement_position(self, base_graph, figures_catalog):
        text = "A = MINIMIZE(G);\nB = CLIMB(A, {#Call}, Phone: Phone -> Operator);\n"
        with pytest.raises(GqlEvalError, match="lacks dimension") as info:
            eval_program(parse(text), figures_catalog, bindings={"G": base_graph})
        assert info.value.line == 2

    def test_path_results_flow_through_output(self, base_graph, figures_catalog):
        program = parse('OUTPUT SHORTESTPATHS(G, #Phone WHERE Phone.Phone = "Ph1", #Phone, *);')
        outcome = eval_program(program, figures_catalog, bindings={"G": base_graph})
        (results,) = outcome.outputs
        assert isinstance(results[0], PathResult)
        assert results[0].source == 11

    def test_path_results_are_not_graphs(self, base_graph, figures_catalog):
        text = 'P = SHORTESTPATHS(G, #Phone, #Phone, *);\nOUTPUT MINIMIZE(P);\n'
        with pytest.raises(GqlEvalError, match="expects a graph value"):
            eval_program(parse(text), figures_catalog, bindings={"G": base_graph})

    def test_ndelete_of_every_node_fails_at_eval(self, base_graph, figures_catalog):
        with pytest.raises(GqlEvalError, match="deleting node type #Phone would leave no nodes"):
            eval_program(parse("OUTPUT NDELETE(G, #Phone);"), figures_catalog, bindings={"G": base_graph})

    def test_edgify_wiring(self, base_graph, figures_catalog):
        program = parse("OUTPUT EDGIFY(G, #Phone, Phone);")
        outcome = eval_program(program, figures_catalog, bindings={"G": base_graph})
        (result,) = outcome.outputs
        assert "#HasPhone" in result.edge_types
        assert len(result.edges) == len(base_graph.edges) + len(base_graph.nodes)

    def test_edgify_requires_the_dimension(self, base_graph, figures_catalog):
        program = parse("OUTPUT EDGIFY(G, #Phone, Time);")
        with pytest.raises(GqlEvalError, match="lacks dimension Time"):
            eval_program(program, figures_catalog, bindings={"G": base_graph})

    def test_dimension_error_carries_statement_position(self):
        # b has no High parent, so climbing Low -> High cannot roll it up
        schema = DimensionSchema(
            "D", (Level("Low"), Level("High"), Level("All", ordered=False)),
            (("Low", "High"), ("High", "All")),
        )
        partial = DimensionInstance.build(
            schema, {"Low": {"a", "b"}, "High": {"x"}}, [("a", "Low", "x", "High")]
        )
        catalog = DimensionCatalog.of(partial)
        g = build_graphoid(catalog, [NodeTypeDecl("#N", ("Id", "D"))], [], [("#N", 1, "a"), ("#N", 2, "b")], [])
        text = "A = MINIMIZE(G);\nOUTPUT CLIMB(A, *, D: Low -> High);\n"
        with pytest.raises(GqlEvalError, match="no roll-up for 'b' from Low to High") as info:
            eval_program(parse(text), catalog, bindings={"G": g})
        assert info.value.line == 2

    def test_operations_are_looked_up_when_called(self, base_graph, figures_catalog, monkeypatch):
        # a wrapper swapped into olap (as the benchmark's tracer does) sees GQL's calls
        calls = []
        original = olap.roll_up

        def spy(*args):
            calls.append(args[1:])
            return original(*args)

        monkeypatch.setattr(olap, "roll_up", spy)
        outcome = eval_program(parse(PIPELINE), figures_catalog, bindings={"G": base_graph})
        assert calls == [
            (TargetSet.of("#Call"), RollupStep("Time", "Day", "Year"), "#Call", (("Duration", "SUM"),))
        ]
        assert outcome.outputs == [original(outcome.bindings["G2"], *calls[0])]

    def test_rebinding_fails_at_eval_too(self, base_graph, figures_catalog):
        text = "G = MINIMIZE(G);"
        with pytest.raises(GqlEvalError, match="already bound"):
            eval_program(parse(text), figures_catalog, bindings={"G": base_graph})

    def test_caller_bindings_are_not_mutated(self, base_graph, figures_catalog):
        env = {"G": base_graph}
        outcome = eval_program(parse("G2 = MINIMIZE(G);"), figures_catalog, bindings=env)
        assert set(env) == {"G"}
        assert set(outcome.bindings) == {"G", "G2"}


class TestDocs:
    """The language reference and the shipped queries agree with the op table."""

    def reference(self) -> str:
        return (ROOT / "docs" / "query-language.md").read_text(encoding="utf-8")

    def test_ebnf_operations_match_the_op_table(self):
        (ebnf,) = re.findall(r"```ebnf\n(.*?)```", self.reference(), re.S)
        documented = set(re.findall(r'"([A-Z]+)"\s*,\s*"\("', ebnf))
        assert documented == {spec.keyword for spec in OPS}

    @pytest.mark.parametrize(
        "name", ["docs example"] + sorted(p.name for p in (ROOT / "queries").glob("*.gql"))
    )
    def test_programs_parse_and_print_to_a_fixpoint(self, name):
        if name == "docs example":
            text = re.findall(r"```\n(.*?)```", self.reference(), re.S)[0]
        else:
            text = (ROOT / "queries" / name).read_text(encoding="utf-8")
        program = parse(text)
        printed = print_program(program)
        assert parse(printed) == program
        assert print_program(parse(printed)) == printed
