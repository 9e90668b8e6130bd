"""End-to-end acceptance gate.

Seven independent checks, each printing one verdict line of the form
``ACCEPTANCE <n> PASS|FAIL (<label>)``.  Run with ``pytest -s`` to see the
lines as they happen.  Expected values are recomputed flat inside each check
(from the literal call list, brute-force enumeration, exhaustive relaxation,
or truth tables), never copied from engine output.  Tolerances: averages are
compared to 1e-9, everything else is exact.  Time budgets, where stated, are
asserted.
"""
from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import replace

import helpers
from conftest import BASE_CALLS, DAY
from graphoid import metrics, olap, store
from graphoid.cubes import run_equivalence_trials
from graphoid.dims import RollupStep
from graphoid.gql import (
    Atom,
    BoolAnd,
    BoolAtom,
    BoolNot,
    BoolOr,
    Condition,
    NodeFilter,
    normalize_condition,
    parse,
    print_program,
)
from graphoid.hypergraph import build_graphoid


def verdict(number: int, label: str, problems: list[str], elapsed: float | None = None) -> None:
    status = "PASS" if not problems else "FAIL"
    clock = f"; {elapsed:.2f}s" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} {status} ({label}{clock})")
    assert not problems, f"criterion {number}: " + " | ".join(problems[:5])


def test_1_phone_call_pipeline_goldens(
    base_graph, operator_graph, minimal_operator_graph, year_rollup_graph
):
    """Climb, minimize, and roll-up of the five-phone call graph hit the
    hand-checked goldens, and the duplicated call pair folds to one edge."""
    problems: list[str] = []
    t0 = time.perf_counter()

    climbed = olap.climb(base_graph, ["#Phone"], RollupStep("Phone", "Phone", "Operator"))
    if climbed != operator_graph:
        problems.append("climb does not reproduce the operator-labelled graph")
    if (climbed.node_count, climbed.edge_count) != (5, 6):
        problems.append(f"climb size {climbed.node_count}/{climbed.edge_count}, wanted 5/6")

    contracted = olap.minimize(climbed)
    if contracted != minimal_operator_graph:
        problems.append("minimize does not reproduce the contracted graph")
    if (contracted.node_count, contracted.edge_count) != (3, 6):
        problems.append(f"minimize size {contracted.node_count}/{contracted.edge_count}, wanted 3/6")
    if sorted(contracted.nodes) != [11, 12, 13]:
        problems.append(f"survivors {sorted(contracted.nodes)}, wanted smallest ids [11, 12, 13]")

    rolled = olap.roll_up(
        climbed, ["#Call"], RollupStep("Time", "Day", "Year"), "#Call", [("Duration", "SUM")]
    )
    if rolled != year_rollup_graph:
        problems.append("roll-up over Time Day->Year does not reproduce the yearly graph")

    # the duplicated pair: both {11}->{12} calls happen on the same day, so
    # aggregation at Day level must fold them into one edge whose duration is
    # their flat sum
    folded = olap.aggr(minimal_operator_graph, "#Call", [("Duration", "SUM")])
    flat_sum = sum(
        dur
        for s, t, d, dur in BASE_CALLS
        if (s, t, d) == ([11], [12], DAY(2016, 10, 10))
    )
    pair_edges = [
        e
        for e in folded.edges
        if e.source == frozenset({11}) and e.target == frozenset({12})
    ]
    if len(pair_edges) != 1:
        problems.append(f"duplicated pair folded to {len(pair_edges)} edges, wanted 1")
    elif pair_edges[0].label != (DAY(2016, 10, 10), flat_sum):
        problems.append(f"folded pair label {pair_edges[0].label}, wanted (2016-10-10, {flat_sum})")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"pipeline took {elapsed:.2f}s, budget 1s")
    verdict(1, "call graph pipeline goldens", problems, elapsed)


def test_2_cube_equivalence_trials():
    """200 randomized cubes and operation specs: the classical engine and the
    star-embedded pipeline agree exactly on every trial."""
    problems: list[str] = []
    t0 = time.perf_counter()
    results = run_equivalence_trials(200, seed=7)
    elapsed = time.perf_counter() - t0
    if len(results) != 200:
        problems.append(f"{len(results)} trials ran, wanted 200")
    for r in results:
        if not r.ok:
            problems.append(f"trial {r.index} ({r.description}): {r.mismatches[0]}")
    if elapsed >= 60.0:
        problems.append(f"trials took {elapsed:.2f}s, budget 60s")
    verdict(2, "classical cube equivalence, 200 trials", problems, elapsed)


def test_3_minimize_unique_and_idempotent():
    """For 100 random graphs, contracting from 50 permutations of the input
    rows lands on one bag-equal result, and contracting twice changes nothing."""
    problems: list[str] = []
    rng = random.Random(20160)
    for case in range(100):
        inputs = helpers.random_graphoid_input(rng)
        reference = olap.minimize(build_graphoid(*inputs))
        if olap.minimize(reference) != reference:
            problems.append(f"case {case}: minimize is not idempotent")
        for perm in range(50):
            variant = olap.minimize(helpers.shuffled_build(rng, *inputs))
            if variant != reference:
                problems.append(f"case {case} permutation {perm}: a second minimal form")
                break
    verdict(3, "minimize uniqueness over 100x50 permutations", problems)


def test_4_edge_cardinality_preserved():
    """Neither contraction nor level rewriting may drop or invent edges."""
    problems: list[str] = []
    rng = random.Random(20161)
    minimize_checked = climb_checked = attempts = 0
    while (minimize_checked < 100 or climb_checked < 100) and attempts < 2000:
        attempts += 1
        g = helpers.random_graphoid(rng)
        if minimize_checked < 100:
            minimize_checked += 1
            if olap.minimize(g).edge_count != g.edge_count:
                problems.append(f"minimize changed |E| on draw {attempts}")
        if climb_checked < 100:
            step = helpers.climbable_step(rng, g)
            if step is not None:
                climb_checked += 1
                if olap.climb(g, "*", step).edge_count != g.edge_count:
                    problems.append(f"climb changed |E| on draw {attempts} ({step})")
    if minimize_checked < 100 or climb_checked < 100:
        problems.append(f"only {minimize_checked}/{climb_checked} of 100 checks each ran")
    verdict(4, "|E| preserved by minimize and climb, 100 graphs each", problems)


def test_5_case_study_queries():
    """On the generated desk-scale data set (1,000 calls over 100 phones,
    fixed seed) the seven case-study queries match flat oracles: group
    averages against brute-force subset enumeration, shortest paths against
    exhaustive all-pairs relaxation, in any order on one graph value."""
    problems: list[str] = []
    t0 = time.perf_counter()
    data = store.generate(store.GeneratorConfig())
    g = data.graphoid
    pids = sorted(data.phones)

    def flat_group_average(rep_of, size: int) -> dict[tuple[int, ...], float]:
        sums: dict[tuple[int, ...], float] = {}
        counts: dict[tuple[int, ...], int] = {}
        for call in data.calls:
            members = sorted({rep_of(p) for p in call.group})
            for combo in itertools.combinations(members, size):
                sums[combo] = sums.get(combo, 0.0) + call.duration
                counts[combo] = counts.get(combo, 0) + 1
        return {combo: sums[combo] / counts[combo] for combo in sums}

    def check_averages(label: str, got: dict, want: dict) -> None:
        if set(got) != set(want):
            problems.append(f"{label}: group keys differ ({len(got)} vs {len(want)})")
            return
        worst = max((abs(got[k] - want[k]) for k in want), default=0.0)
        if worst > 1e-9:
            problems.append(f"{label}: averages drift by {worst}")

    def representative(attr: str):
        smallest: dict[str, int] = {}
        for pid in pids:
            key = getattr(data.phones[pid], attr)
            smallest[key] = min(smallest.get(key, pid), pid)
        return lambda pid: smallest[getattr(data.phones[pid], attr)]

    by_customer = olap.minimize(
        olap.climb(g, [store.PHONE_TYPE], RollupStep("Phone", store.PHONE_BOTTOM, "Customer"))
    )
    by_operator = olap.minimize(
        olap.climb(g, [store.PHONE_TYPE], RollupStep("Phone", store.PHONE_BOTTOM, "Operator"))
    )
    for size in (2, 3):
        check_averages(
            f"Q1 n={size}",
            metrics.group_average(g, [store.CALL_TYPE], size, "Duration"),
            flat_group_average(lambda pid: pid, size),
        )
        check_averages(
            f"Q2 n={size}",
            metrics.group_average(by_customer, [store.CALL_TYPE], size, "Duration"),
            flat_group_average(representative("customer"), size),
        )
        check_averages(
            f"Q3 n={size}",
            metrics.group_average(by_operator, [store.CALL_TYPE], size, "Duration"),
            flat_group_average(representative("operator"), size),
        )

    hops = helpers.floyd_warshall(
        pids, helpers.cooccurrence_pairs(call.group for call in data.calls)
    )

    def check_paths(label: str, sources, targets, results) -> None:
        got = {(r.source, r.target): r.hops for r in results}
        want = {(u, v): hops[(u, v)] for u in sources for v in targets if u != v}
        if got != want:
            off = sum(1 for k in want if got.get(k) != want[k])
            problems.append(f"{label}: {off} of {len(want)} pairs disagree with relaxation")

    def phones_where(attr: str, value: str) -> list[int]:
        return [pid for pid in pids if getattr(data.phones[pid], attr) == value]

    everyone = NodeFilter(store.PHONE_TYPE)
    claro = NodeFilter(
        store.PHONE_TYPE, Condition.of(Atom("Phone", "Operator", "=", "Claro"))
    )
    movistar = NodeFilter(
        store.PHONE_TYPE, Condition.of(Atom("Phone", "Operator", "=", "Movistar"))
    )
    from_ba = NodeFilter(
        store.PHONE_TYPE, Condition.of(Atom("Phone", "City", "=", "Buenos Aires"))
    )
    from_salta = NodeFilter(
        store.PHONE_TYPE, Condition.of(Atom("Phone", "City", "=", "Salta"))
    )
    queries = {
        "Q4": (everyone, everyone, pids, pids),
        "Q5": (claro, movistar, phones_where("operator", "Claro"), phones_where("operator", "Movistar")),
        "Q6": (from_ba, from_salta, phones_where("city", "Buenos Aires"), phones_where("city", "Salta")),
        "Q7": (from_ba, everyone, phones_where("city", "Buenos Aires"), pids),
    }

    def run(graph, label: str):
        source, target, _, _ = queries[label]
        return metrics.shortest_paths(graph, source, target, [store.CALL_TYPE])

    # one graph value answers Q4-Q7 forwards, then backwards; each also runs on a fresh value
    forwards = {label: run(g, label) for label in queries}
    backwards = {label: run(g, label) for label in reversed(queries)}
    fresh = {label: run(store.generate(store.GeneratorConfig()).graphoid, label) for label in queries}
    for label, (_, _, sources, targets) in queries.items():
        check_paths(label, sources, targets, forwards[label])
        if not forwards[label] == backwards[label] == fresh[label]:
            problems.append(f"{label}: rows depend on which queries ran before on the graph")

    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"queries took {elapsed:.2f}s, budget 120s")
    verdict(5, "case-study queries vs flat oracles", problems, elapsed)


def test_6_query_language_round_trips():
    """Printing is a fixpoint under reparsing for 500 random programs, and
    condition normalization preserves truth tables up to 10 atoms."""
    problems: list[str] = []
    rng = random.Random(20163)
    for case in range(500):
        text = print_program(helpers.random_program(rng))
        if print_program(parse(text)) != text:
            problems.append(f"program {case}: print/parse is not a fixpoint")

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
        return any(eval_tree(item, truth) for item in node.items)

    for case in range(500):
        width = rng.randint(1, 10)
        atoms = [replace(helpers.random_atom(rng), dim=f"D{i}") for i in range(width)]
        tree = helpers.random_bool_tree(rng, atoms)
        cond = normalize_condition(tree)
        keys = [positive(a) for a in atoms]
        for bits in itertools.product([False, True], repeat=width):
            truth = dict(zip(keys, bits))
            direct = eval_tree(tree, truth)
            via_dnf = any(all(literal(a, truth) for a in clause) for clause in cond.clauses)
            if direct != via_dnf:
                problems.append(f"condition {case}: truth tables diverge at {bits}")
                break
    verdict(6, "500 program round trips, 500 condition truth tables", problems)


def test_7_persistence_round_trips():
    """Save then load is the identity for 100 random schemas, instances,
    graphs, and cubes, through an actual JSON text serialization."""
    problems: list[str] = []
    rng = random.Random(20164)

    def through_text(document: dict) -> dict:
        return json.loads(json.dumps(document))

    for case in range(100):
        schema = helpers.random_schema(rng, name=f"Dim{case}")
        if store.schema_from_json(through_text(store.schema_to_json(schema))) != schema:
            problems.append(f"case {case}: schema round trip")
        instance = helpers.random_instance(rng, schema)
        if store.instance_from_json(through_text(store.instance_to_json(instance))) != instance:
            problems.append(f"case {case}: instance round trip")
        g = helpers.random_graphoid(rng)
        if store.graphoid_from_json(through_text(store.graphoid_to_json(g)), g.catalog) != g:
            problems.append(f"case {case}: graphoid round trip")
        catalog, cube = helpers.random_cube_values(rng)
        if store.cube_from_json(through_text(store.cube_to_json(cube)), catalog) != cube:
            problems.append(f"case {case}: cube round trip")
    verdict(7, "persistence round trips, 100 of each kind", problems)
