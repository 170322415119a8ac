import ast
import dataclasses
import pathlib
import random
import tracemalloc

import pytest

import ftpath

from ftpath.core import (BadEndpoint, BadParameters, DuplicateEdgeId, Edge,
                         Instance, NegativeWeight, OverflowRisk,
                         ScenarioSpaceTooLarge, UnknownEdgeId, build_instance,
                         enumerate_scenarios, infeasibility_witness,
                         is_feasible, scenario_count, validate)
from ftpath.oracle import brute_force_feasible

from conftest import has_path, random_instance, survives_every_failure


def test_validate_minimal_instance():
    inst = build_instance(False, 2, 0, 1, 0, [(0, 1, 5, False)])
    validate(inst)


def test_validate_bad_endpoint():
    inst = Instance(False, 3, (Edge(0, 0, 7, 1, False),), 0, 2, 1)
    with pytest.raises(BadEndpoint):
        validate(inst)


def test_validate_duplicate_edge_id():
    edges = (Edge(0, 0, 1, 1, False), Edge(0, 1, 2, 1, False))
    with pytest.raises(DuplicateEdgeId):
        validate(Instance(False, 3, edges, 0, 2, 1))


def test_validate_negative_weight_and_overflow():
    with pytest.raises(NegativeWeight):
        build_instance(False, 2, 0, 1, 0, [(0, 1, -3, False)])
    with pytest.raises(OverflowRisk):
        build_instance(False, 2, 0, 1, 0, [(0, 1, 2**63, False)])
    with pytest.raises(OverflowRisk):
        build_instance(False, 2, 0, 1, 0,
                       [(0, 1, 2**62, False), (0, 1, 2**62, False)])


def test_validate_bad_terminals_and_budget():
    with pytest.raises(BadEndpoint):
        build_instance(False, 2, 0, 5, 0, [(0, 1, 1, False)])
    with pytest.raises(BadParameters):
        build_instance(False, 2, 0, 1, -1, [(0, 1, 1, False)])


def test_built_edges_are_frozen_dataclasses():
    inst = build_instance(False, 3, 0, 2, 1, [(0, 1, 2, 1), (1, 2, 0, 0)])
    edge = inst.edges[0]
    assert type(edge) is Edge
    with pytest.raises(dataclasses.FrozenInstanceError):
        edge.w = 5
    assert [(f.name, f.type) for f in dataclasses.fields(edge)] == [
        ("id", "int"), ("u", "int"), ("v", "int"), ("w", "int"), ("faulty", "bool")]
    assert edge != (0, 0, 1, 2, True)
    assert edge == Edge(0, 0, 1, 2, True)
    assert hash(edge) == hash(Edge(0, 0, 1, 2, True))
    assert dataclasses.asdict(edge) == dataclasses.asdict(Edge(0, 0, 1, 2, True))
    assert not hasattr(edge, "__dict__")
    assert inst.edges[0].faulty is True
    assert inst.edges[1] == Edge(1, 1, 2, 0, False) and inst.edges[1].faulty is False


# Rows whose first violation the whole-column check must leave to the
# per-edge loop, in order.
BAD_ROWS = [
    ([(0, 1, 1, False), (0, 3, -1, False)], BadEndpoint, "edge 1 endpoint 3 is not a vertex id"),
    ([(0, 1, -1, False), (0, 3, 1, False)], NegativeWeight, "edge 0 has cost -1"),
    ([(0, 1, 2**62, False), (0, 1, 2**62, False), (0, 1, -1, False)], OverflowRisk,
     "running cost total overflows 63 bits at edge 1"),
    ([(0, 1, 1, False), (0, 1, True, False)], NegativeWeight, "edge 1 has cost True"),
    ([(0, 1, 1, False), (0, 1, 1.0, False)], NegativeWeight, "edge 1 has cost 1.0"),
    ([(0, 1, 1, False), ("0", 1, 1, False)], BadEndpoint, "edge 1 endpoint 0 is not a vertex id"),
    ([(0, -1, 1, False)], BadEndpoint, "edge 0 endpoint -1 is not a vertex id"),
    ([(0, 1, 2**63, False)], OverflowRisk, "edge 0 cost 9223372036854775808 exceeds 63 bits"),
]


@pytest.mark.parametrize("rows, error, message", BAD_ROWS)
def test_build_reports_the_first_violation(rows, error, message):
    for given in (rows, [list(row) for row in rows]):
        with pytest.raises(error) as caught:
            build_instance(False, 3, 0, 2, 1, given)
        assert str(caught.value) == message


def test_build_accepts_what_validate_accepts():
    # A bool is not a vertex id, as it is not a count or a budget: the
    # column check passes bool endpoints on to validate, which refuses them.
    with pytest.raises(BadEndpoint) as caught:
        build_instance(False, 3, 0, 2, 1, [(False, True, 0, 1), (1, 2, 2**62, 0)])
    assert str(caught.value) == "edge 0 endpoint False is not a vertex id"
    with pytest.raises(BadEndpoint) as caught:
        build_instance(False, 3, False, 2, 1, [(False, True, 1, True), (1, 2, 1, False)])
    assert str(caught.value) == "terminal s=False is not a vertex id"
    with pytest.raises(BadEndpoint) as caught:
        validate(Instance(False, 3, (Edge(0, 0, True, 1, False),), 0, 2, 1))
    assert str(caught.value) == "edge 0 endpoint True is not a vertex id"
    inst = build_instance(False, 3, 0, 2, 1, [(0, 1, 0, 1), (1, 2, 2**62, 0)])
    assert inst.edges[0] == Edge(0, 0, 1, 0, True)
    assert build_instance(False, 1, 0, 0, 0, []).edges == ()
    with pytest.raises(BadParameters):
        build_instance(False, 0, 0, 0, 0, [(0, 5, 1, False)])


def test_every_built_instance_round_trips_through_its_document():
    from ftpath.cli import parse_instance, serialize_instance
    rng = random.Random(2401)
    values = (0, 1, 2, 3, -1, 2**62, True, False, 1.0, "1", None)
    outcomes = {"accepted": 0, "refused": 0}
    for _ in range(3000):
        n = rng.choice((1, 2, 3, 4, 4, 4, True, 2.0, 0))
        rows = [(rng.choice(values[:4]) if rng.random() < 0.95 else rng.choice(values),
                 rng.choice(values[:4]) if rng.random() < 0.95 else rng.choice(values),
                 rng.choice(values[:3]) if rng.random() < 0.95 else rng.choice(values),
                 rng.choice(values))
                for _ in range(rng.randint(0, 4))]
        terminals = [rng.choice(values[:3]) if rng.random() < 0.95 else rng.choice(values)
                     for _ in range(2)]
        try:
            inst = build_instance(rng.choice((True, False, 0, 1, "yes")), n, *terminals,
                                  rng.choice((0, 1, 2, False)), rows)
        except ftpath.core.ValidationError:
            outcomes["refused"] += 1
            continue
        outcomes["accepted"] += 1
        assert parse_instance(serialize_instance(inst)) == inst
    assert min(outcomes.values()) >= 300, outcomes


@pytest.mark.parametrize("rows, message", [
    ([(0, 1, 1)], "edge row 0 has 3 fields, not 4"),
    ([(0, 1, 1, False), (1, 2, 1, False, 7)], "edge row 1 has 5 fields, not 4"),
    ([(0, 1, 1, False), ()], "edge row 1 has 0 fields, not 4"),
])
def test_build_names_a_row_without_four_fields(rows, message):
    for given in (rows, [list(row) for row in rows], [iter(row) for row in rows]):
        with pytest.raises(BadParameters) as caught:
            build_instance(False, 3, 0, 1, 0, given)
        assert str(caught.value) == message
    # Any iterable of four fields is a row.
    built = build_instance(False, 3, 0, 1, 0, [iter((0, 1, 1, 0)), range(1, 5)])
    assert built.edges == (Edge(0, 0, 1, 1, False), Edge(1, 1, 2, 3, True))


@pytest.mark.parametrize("vertex_count, k, message", [
    (2.5, 0, "vertex_count must be an int, got 2.5"),
    (True, 0, "vertex_count must be an int, got True"),
    ("3", 0, "vertex_count must be an int, got '3'"),
    (3, 1.0, "k must be an int, got 1.0"),
    (3, False, "k must be an int, got False"),
])
def test_vertex_count_and_budget_must_be_ints(vertex_count, k, message):
    rows = [(0, 1, 1, False), (1, 2, 1, False), (0, 1, 2, True)]
    edges = tuple(Edge(i, *row) for i, row in enumerate(rows))
    with pytest.raises(BadParameters) as caught:
        build_instance(False, vertex_count, 0, 1, k, rows)
    assert str(caught.value) == message
    with pytest.raises(BadParameters) as caught:
        validate(Instance(False, vertex_count, edges, 0, 1, k))
    assert str(caught.value) == message


def test_is_feasible_gap_family_pairs():
    # Four parallel faulty unit edges, one failure allowed: any two
    # edges survive, any single edge does not.
    inst = build_instance(False, 2, 0, 1, 1, [(0, 1, 1, True)] * 4)
    for a in range(4):
        assert not is_feasible(inst, {a})
        for b in range(a + 1, 4):
            assert is_feasible(inst, {a, b})
    assert is_feasible(inst, {0, 1, 2, 3})


def test_is_feasible_single_faulty_edge():
    inst = build_instance(True, 2, 0, 1, 1, [(0, 1, 4, True)])
    assert not is_feasible(inst, {0})


def test_is_feasible_unknown_edge():
    inst = build_instance(False, 2, 0, 1, 0, [(0, 1, 1, False)])
    with pytest.raises(UnknownEdgeId):
        is_feasible(inst, {3})


def test_bool_edge_ids_are_unknown():
    # True == 1 and False == 0, but a bool names no edge, as it names no terminal.
    path = build_instance(False, 3, 0, 2, 0, [(0, 1, 1, False), (1, 2, 1, False)])
    assert is_feasible(path, [0, 1])
    for candidate in ([False, True], [0, True], [False, 1]):
        with pytest.raises(UnknownEdgeId, match="unknown edge id (True|False)"):
            is_feasible(path, candidate)
    with pytest.raises(UnknownEdgeId):
        infeasibility_witness(path, {True})


def test_is_feasible_same_terminals():
    inst = build_instance(False, 2, 0, 0, 3, [(0, 1, 1, True)])
    assert is_feasible(inst, set())
    assert is_feasible(inst, {0})


def test_enumerate_scenarios_order_and_counts():
    inst = build_instance(False, 2, 0, 1, 1,
                          [(0, 1, 1, True), (0, 1, 1, True), (0, 1, 1, False)])
    scenarios = [tuple(sorted(s.failed)) for s in enumerate_scenarios(inst)]
    assert scenarios == [(), (0,), (1,)]

    empty_m = build_instance(False, 2, 0, 1, 2, [(0, 1, 1, False)])
    assert [s.failed for s in enumerate_scenarios(empty_m)] == [frozenset()]

    five = build_instance(False, 2, 0, 1, 2, [(0, 1, 1, True)] * 5)
    assert scenario_count(five) == 16  # 1 + 5 + 10
    assert len(list(enumerate_scenarios(five))) == 16


def test_enumerate_scenarios_cap():
    inst = build_instance(False, 2, 0, 1, 3, [(0, 1, 1, True)] * 12)
    with pytest.raises(ScenarioSpaceTooLarge):
        list(enumerate_scenarios(inst, cap=10))


def test_is_feasible_agrees_with_scenario_enumeration():
    # The flow-based check and the explicit scenario sweep are
    # independent implementations; they must agree everywhere.
    rng = random.Random(99)
    checked = 0
    for _ in range(150):
        inst = random_instance(rng, n_max=6, m_max=10, k=rng.randint(0, 2))
        m = len(inst.edges)
        for _ in range(8):
            size = rng.randint(0, m)
            candidate = frozenset(rng.sample(range(m), size))
            assert is_feasible(inst, candidate) == \
                brute_force_feasible(inst, candidate)
            checked += 1
    assert checked >= 1000


def test_is_feasible_agrees_on_every_subset_of_small_instances():
    # Exhaustive agreement over the whole candidate lattice.
    rng = random.Random(101)
    for _ in range(6):
        inst = random_instance(rng, n_max=6, m_max=10, k=2)
        m = len(inst.edges)
        for mask in range(2 ** m):
            candidate = frozenset(i for i in range(m) if mask >> i & 1)
            assert is_feasible(inst, candidate) == \
                brute_force_feasible(inst, candidate)


def test_is_feasible_monotone_in_candidate():
    rng = random.Random(7)
    for _ in range(100):
        inst = random_instance(rng, n_max=6, m_max=9)
        m = len(inst.edges)
        small = frozenset(rng.sample(range(m), rng.randint(0, m)))
        extras = frozenset(rng.sample(range(m), rng.randint(0, m)))
        if is_feasible(inst, small):
            assert is_feasible(inst, small | extras)


def test_is_feasible_empty_candidate_iff_same_terminals():
    rng = random.Random(21)
    for _ in range(40):
        inst = random_instance(rng, n_max=5, m_max=6)
        assert is_feasible(inst, set()) == (inst.s == inst.t)
    loop = build_instance(False, 3, 1, 1, 2, [(0, 1, 1, True)])
    assert is_feasible(loop, set())


def test_operations_are_reentrant_across_threads():
    # Instances are immutable and the solvers keep no module state, so
    # concurrent calls must all see identical results.
    from concurrent.futures import ThreadPoolExecutor
    from ftpath.bipath import solve_1ftp
    from ftpath.frac import solve_frac

    rng = random.Random(67)
    instances = [random_instance(rng, n_max=5, m_max=8, k=1,
                                 ensure_backbone=True) for _ in range(6)]

    def work(inst):
        try:
            sol = solve_1ftp(inst)
            return (sorted(sol.edges), sol.cost, solve_frac(inst).value)
        except Exception as exc:  # noqa: BLE001 - compared across runs
            return type(exc).__name__

    with ThreadPoolExecutor(max_workers=8) as pool:
        rounds = [list(pool.map(work, instances)) for _ in range(4)]
    assert all(r == rounds[0] for r in rounds[1:])


def test_is_feasible_no_faulty_edges_means_any_path():
    rng = random.Random(55)
    for _ in range(60):
        inst = random_instance(rng, n_max=6, m_max=8, faulty_prob=0.0, k=2)
        m = len(inst.edges)
        candidate = frozenset(rng.sample(range(m), rng.randint(0, m)))
        # With no faulty edges, feasibility is plain reachability.
        from ftpath.core import reachable
        connected = inst.t in reachable(inst, inst.s, candidate)
        assert is_feasible(inst, candidate) == connected


@pytest.mark.parametrize("directed", [False, True])
def test_infeasibility_witness_matches_brute_force(directed):
    rng = random.Random(113 + directed)
    infeasible = 0
    for _ in range(120):
        inst = random_instance(rng, n_max=6, m_max=9, directed=directed,
                               k=rng.randint(0, 2))
        m = len(inst.edges)
        for _ in range(4):
            candidate = frozenset(rng.sample(range(m), rng.randint(0, m)))
            scenario = infeasibility_witness(inst, candidate)
            assert (scenario is None) == survives_every_failure(inst, candidate)
            if scenario is None:
                continue
            infeasible += 1
            assert len(scenario) <= inst.k
            assert scenario <= candidate
            assert all(inst.edges[e].faulty for e in scenario)
            assert not has_path(inst, candidate - scenario)
    assert infeasible >= 100


def test_infeasibility_witness_names_the_failing_edges():
    # Two parallel faulty s-t edges and a safe detour that is cut off.
    inst = build_instance(False, 3, 0, 1, 2,
                          [(0, 1, 1, True), (0, 1, 1, True), (0, 2, 1, False)])
    assert infeasibility_witness(inst, {0, 1, 2}) == frozenset({0, 1})
    assert infeasibility_witness(inst.with_budget(1), {0, 1, 2}) is None
    with pytest.raises(UnknownEdgeId):
        infeasibility_witness(inst, {3})


@pytest.mark.parametrize("directed", [False, True])
def test_witness_memory_is_sized_by_the_candidate(directed):
    # Only the vertices the candidate touches, and s and t, are numbered,
    # so a check on a million-vertex instance allocates nothing per vertex.
    inst = build_instance(directed, 10**6, 999_999, 123_456, 1,
                          [(999_999, 5, 1, True), (5, 123_456, 1, False)])
    tracemalloc.start()
    try:
        answers = [infeasibility_witness(inst, {0, 1}), infeasibility_witness(inst, {1}),
                   infeasibility_witness(inst.with_budget(0), {0, 1}),
                   is_feasible(inst.with_budget(0), {0, 1})]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == [frozenset({0}), frozenset(), None, True]
    assert peak < 2**20


def test_no_bare_assert_in_package():
    # Output checks must survive python -O, which strips assert statements.
    package = pathlib.Path(ftpath.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
