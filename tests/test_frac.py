import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from ftpath import flow, frac, simplex
from ftpath.core import (BadParameters, Infeasible, SolverCheckFailed, build_instance,
                         enumerate_scenarios)
from ftpath.frac import (TooLargeForExactLP, fractional_max_flow, gap_family,
                         gap_report, rounding_vector, solve_frac,
                         enumerate_cut_edge_sets)
from ftpath.oracle import brute_force_opt
from ftpath.shortest import shortest_path_solution
from ftpath.simplex import LPInfeasible, solve_lp

from conftest import min_cut_by_bipartition, random_instance
from lp_reference import (EQUAL, GREATER_EQUAL, LESS_EQUAL, LPUnbounded,
                          solve_lp as reference_lp)


def test_simplex_basic():
    # min x0 + x1  s.t.  x0 + x1 >= 2, x0 - x1 == 0
    x, value = reference_lp([1, 1],
                            [({0: 1, 1: 1}, GREATER_EQUAL, 2),
                             ({0: 1, 1: -1}, EQUAL, 0)], 2)
    assert value == 2
    assert x == [Fraction(1), Fraction(1)]


def test_simplex_infeasible_and_unbounded():
    with pytest.raises(LPInfeasible):
        reference_lp([1], [({0: 1}, LESS_EQUAL, -1)], 1)
    with pytest.raises(LPUnbounded):
        reference_lp([-1], [({0: -1}, LESS_EQUAL, 0)], 1)


def test_simplex_degenerate_redundant_rows():
    x, value = reference_lp([2, 3],
                            [({0: 1, 1: 1}, EQUAL, 1),
                             ({0: 2, 1: 2}, EQUAL, 2),
                             ({0: 1}, LESS_EQUAL, 1)], 2)
    assert value == 2
    assert x == [Fraction(1), Fraction(0)]


def _satisfies(rows, x):
    if any(v < 0 for v in x):
        return False
    for coeffs, sense, b in rows:
        lhs = sum(Fraction(a) * x[j] for j, a in coeffs.items())
        if (sense == LESS_EQUAL and lhs > b or sense == GREATER_EQUAL and lhs < b
                or sense == EQUAL and lhs != b):
            return False
    return True


def _solve_square(matrix, rhs):
    """Gauss-Jordan elimination over Fractions; None when singular."""
    n = len(rhs)
    aug = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c] / aug[c][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [aug[r][n] / aug[r][r] for r in range(n)]


def _vertices(rows, num_vars):
    """Vertices of {x >= 0 : rows}: every choice of num_vars tight constraints."""
    tight = [([coeffs.get(j, 0) for j in range(num_vars)], b) for coeffs, _, b in rows]
    tight += [([int(i == j) for j in range(num_vars)], 0) for i in range(num_vars)]
    found = set()
    for chosen in combinations(tight, num_vars):
        x = _solve_square([a for a, _ in chosen], [b for _, b in chosen])
        if x is not None and _satisfies(rows, x):
            found.add(tuple(x))
    return found


def _brute_force_lp(objective, rows, num_vars):
    """Status and optimal value from all vertices and extreme rays.

    The feasible set lies in x >= 0, so it has a vertex when it is not
    empty, and the LP is unbounded exactly when an extreme ray of the
    recession cone (a vertex of the cone cut by sum(d) == 1) descends.
    """
    def cost(x):
        return sum(Fraction(objective.get(j, 0)) * x[j] for j in range(num_vars))

    points = _vertices(rows, num_vars)
    if not points:
        return "infeasible", None
    cone = [(coeffs, sense, 0) for coeffs, sense, _ in rows]
    cone.append((dict.fromkeys(range(num_vars), 1), EQUAL, 1))
    if any(cost(d) < 0 for d in _vertices(cone, num_vars)):
        return "unbounded", None
    return "optimal", min(cost(x) for x in points)


def test_simplex_matches_brute_force_over_bases():
    rng = random.Random(241)

    def q():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))

    outcomes = Counter()
    for _ in range(300):
        num_vars = rng.randint(1, 4)
        rows = [({j: q() for j in range(num_vars) if rng.random() < 0.75},
                 rng.choice((LESS_EQUAL, GREATER_EQUAL, EQUAL)), q())
                for _ in range(rng.randint(1, 4))]
        objective = {j: q() for j in range(num_vars)}
        status, value = _brute_force_lp(objective, rows, num_vars)
        outcomes[status] += 1
        if status == "infeasible":
            with pytest.raises(LPInfeasible):
                reference_lp(objective, rows, num_vars)
        elif status == "unbounded":
            with pytest.raises(LPUnbounded):
                reference_lp(objective, rows, num_vars)
        else:
            x, got = reference_lp(objective, rows, num_vars)
            assert got == value
            assert _satisfies(rows, x)
            assert sum(objective[j] * x[j] for j in range(num_vars)) == value
    assert min(outcomes[s] for s in ("infeasible", "unbounded", "optimal")) >= 30


def test_simplex_pins_vertex_among_several_optima():
    # (2,0,0,0) and (0,0,0,1) both cost 2.  Bland's rule returns the
    # first; Dantzig's rule, a last-index entering rule or ties broken
    # toward the larger basic index all return the second.
    objective = {0: 1, 1: 3, 2: 3, 3: 2}
    rows = [({0: 1, 1: 2, 2: 1, 3: 2}, GREATER_EQUAL, 2),
            ({0: 2, 1: 1, 2: 1, 3: 1}, GREATER_EQUAL, 1)]
    optima = [v for v in _vertices(rows, 4)
              if sum(objective[j] * v[j] for j in range(4)) == 2]
    assert len(optima) == 2
    assert reference_lp(objective, rows, 4) == ([Fraction(2), Fraction(0), Fraction(0),
                                                 Fraction(0)], Fraction(2))


def _lexmin_vertex(objective, rows, num_vars):
    """The lexicographically smallest optimal vertex of ``min objective . x``
    over ``coeffs . x >= rhs`` rows, by enumerating every vertex."""
    points = _vertices([(coeffs, GREATER_EQUAL, b) for coeffs, b in rows], num_vars)
    if not points:
        return None
    costs = dict(enumerate(objective))

    def cost(x):
        return sum(Fraction(costs.get(j, 0)) * x[j] for j in range(num_vars))

    best = min(cost(x) for x in points)
    return min(x for x in points if cost(x) == best), best


def test_solve_lp_matches_the_reference_and_the_lexmin_vertex():
    rng = random.Random(1501)
    outcomes = Counter()
    for _ in range(500):
        num_vars = rng.randint(1, 4)
        rows = [({j: Fraction(rng.randint(-1, 3), rng.choice((1, 1, 1, 2)))
                  for j in range(num_vars) if rng.random() < 0.7}, rng.randint(-1, 2))
                for _ in range(rng.randint(0, 4))]
        # Zero costs and repeated costs make optima that are not unique.
        objective = [rng.choice((0, 0, 1, 1, 1, Fraction(3, 2))) for _ in range(num_vars)]
        try:
            _, value = reference_lp(objective, [(c, GREATER_EQUAL, b) for c, b in rows],
                                    num_vars)
        except LPInfeasible:
            outcomes["infeasible"] += 1
            with pytest.raises(LPInfeasible):
                solve_lp(objective, rows, num_vars)
            continue
        x, got = solve_lp(objective, rows, num_vars)
        assert got == value
        assert (tuple(x), got) == _lexmin_vertex(objective, rows, num_vars)
        outcomes["optimal"] += 1
        outcomes["not unique"] += sum(
            1 for v in _vertices([(c, GREATER_EQUAL, b) for c, b in rows], num_vars)
            if sum(Fraction(objective[j]) * v[j] for j in range(num_vars)) == value) > 1
    assert min(outcomes.values()) >= 30


def test_solve_lp_edge_cases():
    assert solve_lp([1, 2], [], 2) == ([0, 0], 0)
    # A row with no coefficients and a positive rhs has no solution.
    with pytest.raises(LPInfeasible):
        solve_lp([], [({}, 1)], 0)
    assert solve_lp({}, [({}, 0)], 0) == ([], 0)
    with pytest.raises(ValueError, match="costs >= 0"):
        solve_lp({0: -1}, [({0: 1}, 1)], 1)


def _record_lp(monkeypatch):
    """Patch the simplex so that every solve_frac call records the LP it
    solves: the objective, rows and variable count."""
    seen = {}
    real = simplex.solve_lp

    def recording(objective, rows, num_vars):
        seen.update(objective=objective, rows=rows, num_vars=num_vars)
        return real(objective, rows, num_vars)

    monkeypatch.setattr(simplex, "solve_lp", recording)
    return seen


def test_frac_x_is_the_lexmin_optimum(monkeypatch):
    lp = _record_lp(monkeypatch)
    # k = 0, two shortest paths of cost 2; the lexmin x avoids edge 0.
    # Nothing can fail, so the faulty edge 0 counts in its cuts like a
    # safe one: one plain row per cut, x(C) >= 1, and no threshold block.
    two_paths = build_instance(False, 4, 0, 3, 0, [(0, 1, 1, True), (1, 3, 1, False),
                                                   (0, 2, 1, False), (2, 3, 1, False)])
    cv = solve_frac(two_paths)
    assert lp["num_vars"] == len(two_paths.edges) == 4
    assert sorted(lp["rows"], key=lambda row: sorted(row[0])) == [
        ({0: 1, 2: 1}, 1), ({0: 1, 3: 1}, 1), ({1: 1, 2: 1}, 1), ({1: 1, 3: 1}, 1)]
    assert cv.x == (0, 0, 1, 1) and cv.value == 2
    assert _lexmin_vertex(lp["objective"], lp["rows"], lp["num_vars"]) == ((0, 0, 1, 1), 2)

    rng = random.Random(1502)
    checked = 0
    while checked < 40:
        inst = random_instance(rng, n_max=4, m_max=5, k=rng.randint(0, 2), max_w=2)
        if inst.s == inst.t:
            continue
        try:
            cv = solve_frac(inst)
        except Infeasible:
            continue
        num_vars = lp["num_vars"]
        if comb(len(lp["rows"]) + num_vars, num_vars) > 3000:
            continue
        x, value = _lexmin_vertex(lp["objective"], lp["rows"], num_vars)
        assert (cv.x, cv.value) == (x[:len(inst.edges)], value)
        checked += 1


@pytest.mark.parametrize("wrong", ["row", "above one", "value"])
def test_frac_checks_the_simplex_answer(monkeypatch, wrong):
    # Edge 2 costs nothing: raising it above 1 keeps the value.
    inst = build_instance(False, 3, 0, 2, 0, [(0, 1, 1, False), (1, 2, 1, False),
                                              (0, 2, 0, False)])
    real = simplex.solve_lp

    def altered(objective, rows, num_vars):
        x, value = real(objective, rows, num_vars)
        if wrong == "row":
            return [Fraction(0)] * num_vars, Fraction(0)
        if wrong == "above one":
            return x[:2] + [Fraction(2)], value
        return x, value + 1

    monkeypatch.setattr(simplex, "solve_lp", altered)
    with pytest.raises(SolverCheckFailed):
        solve_frac(inst)


def test_frac_value_of_a_large_cut_lp(tmp_path, capsys):
    # 8 vertices and 21 edges at k = 2: this LP took 42 s through the
    # two-phase simplex, which gave the same value.
    from ftpath.cli import main, parse_instance
    out = tmp_path / "gen"
    assert main(["gen", "--kind", "random", "--seed", "8", "--n", "8", "--edges", "21",
                 "--k", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    cv = solve_frac(parse_instance((out / "random_000.ftp").read_text()))
    assert cv.value == 20


def test_gap_family_values_exact():
    cv = solve_frac(gap_family(4, 1))
    assert cv.value == Fraction(4, 3)
    assert cv.x == (Fraction(1, 3),) * 4

    assert solve_frac(gap_family(2, 1)).value == Fraction(2)
    assert solve_frac(gap_family(10, 2)).value == Fraction(10, 8)


def test_gap_family_parameters():
    with pytest.raises(BadParameters):
        gap_family(1, 1)
    with pytest.raises(BadParameters):
        gap_family(3, -1)
    inst = gap_family(2, 1)
    assert len(inst.edges) == 2 and all(e.faulty for e in inst.edges)


def test_no_faulty_edges_reduces_to_shortest_path():
    inst = build_instance(False, 4, 0, 3, 2,
                          [(0, 1, 2, False), (1, 3, 2, False), (0, 3, 7, False),
                           (1, 2, 1, False), (2, 3, 5, False)])
    cv = solve_frac(inst)
    sp = shortest_path_solution(inst)
    assert cv.value == sp.cost
    assert all(x in (0, 1) for x in cv.x)
    assert frozenset(e.id for e in inst.edges if cv.x[e.id] == 1) == sp.edges


def test_solution_feasible_per_scenario():
    rng = random.Random(211)
    for _ in range(50):
        inst = random_instance(rng, n_max=5, m_max=8, k=rng.randint(0, 2))
        try:
            cv = solve_frac(inst)
        except Infeasible:
            continue
        for scenario in enumerate_scenarios(inst):
            assert fractional_max_flow(inst, cv.x, scenario.failed) >= 1


def test_fractional_max_flow_equals_bipartition_min_cut():
    # Non-positive capacities, banned edges and self-loops carry nothing;
    # the reference sees them as zero-capacity arcs.
    rng = random.Random(227)
    checked = 0
    for _ in range(300):
        inst = random_instance(rng, n_max=6, m_max=10)
        m = len(inst.edges)
        caps = [Fraction(rng.randint(-2, 6), rng.randint(1, 4)) for _ in range(m)]
        banned = frozenset(e for e in range(m) if rng.random() < 0.2)
        arcs = []
        for e in inst.edges:
            cap = 0 if e.id in banned else max(caps[e.id], 0)
            arcs.append((e.u, e.v, cap))
            if not inst.directed:
                arcs.append((e.v, e.u, cap))
        expected = min_cut_by_bipartition(inst.vertex_count, arcs, inst.s, inst.t, 0)
        value = fractional_max_flow(inst, caps, banned)
        assert isinstance(value, Fraction)
        assert value == expected
        checked += value > 0
    assert checked > 100
    # Parallel edges and a self-loop at a terminal, undirected.
    inst = build_instance(False, 3, 0, 2, 1, [(0, 1, 1, True), (0, 1, 1, False),
                                              (1, 2, 1, True), (0, 0, 1, False)])
    caps = [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(5)]
    assert fractional_max_flow(inst, caps) == Fraction(5, 6)
    assert fractional_max_flow(inst, caps, frozenset({1})) == Fraction(1, 3)
    with pytest.raises(ValueError, match="terminals must differ"):
        fractional_max_flow(build_instance(False, 2, 0, 0, 0, [(0, 1, 1, False)]),
                            [1])



def test_fractional_max_flow_network_matches_reference(monkeypatch):
    # The hand-built arcs of an earlier fractional_max_flow, kept as a
    # reference: the network handed to max_flow has the same arcs in the
    # same order, the same cap and the same value.
    rng = random.Random(1302)
    real = flow.max_flow
    seen = []

    def recording(net, s, t, cap_at):
        seen.append(([(a.tail, a.head, a.capacity) for a in net.arcs], cap_at))
        return real(net, s, t, cap_at)

    monkeypatch.setattr(flow, "max_flow", recording)
    for _ in range(300):
        inst = random_instance(rng, n_max=6, m_max=10)
        m = len(inst.edges)
        caps = [Fraction(rng.randint(-2, 6), rng.randint(1, 4)) for _ in range(m)]
        banned = frozenset(e for e in range(m) if rng.random() < 0.2)
        arcs = []
        for e in inst.edges:
            if e.id in banned or e.u == e.v:
                continue
            cap = Fraction(caps[e.id])
            if cap <= 0:
                continue
            arcs.append((e.u, e.v, cap))
            if not inst.directed:
                arcs.append((e.v, e.u, cap))
        total = sum(cap for _, _, cap in arcs)
        net = flow.FlowNetwork(inst.vertex_count,
                               tuple(flow.Arc(u, v, cap) for u, v, cap in arcs))
        expected = real(net, inst.s, inst.t, total).value
        seen.clear()
        assert fractional_max_flow(inst, caps, banned) == expected
        assert seen == [(arcs, total)]

def test_sandwich_against_integral_optimum():
    rng = random.Random(223)
    checked = 0
    for _ in range(120):
        inst = random_instance(rng, n_max=5, m_max=8, k=rng.randint(0, 2))
        result = brute_force_opt(inst)
        if result.best is None:
            with pytest.raises(Infeasible):
                solve_frac(inst)
            continue
        cv = solve_frac(inst)
        assert cv.value <= result.best.cost
        assert (inst.k + 1) * cv.value >= result.best.cost
        checked += 1
    assert checked >= 50


def test_rounding_vector_gap_family():
    inst = gap_family(4, 1)
    cv = solve_frac(inst)
    y = rounding_vector(cv, inst)
    assert y == (Fraction(2, 3),) * 4
    assert sum(y) >= 2  # the only cut carries at least k+1


def test_rounding_vector_integral_input():
    inst = build_instance(False, 3, 0, 2, 2,
                          [(0, 1, 1, False), (1, 2, 1, True), (0, 2, 1, True)])
    from ftpath.frac import CapacityVector
    x = CapacityVector((Fraction(1), Fraction(0), Fraction(1)), Fraction(2))
    y = rounding_vector(x, inst)
    assert y == (Fraction(3), Fraction(0), Fraction(1))


def test_rounded_cuts_carry_k_plus_one():
    rng = random.Random(227)
    checked = 0
    for _ in range(160):
        inst = random_instance(rng, n_max=5, m_max=8, k=rng.randint(0, 2))
        try:
            cv = solve_frac(inst)
        except Infeasible:
            continue
        y = rounding_vector(cv, inst)
        for cut in enumerate_cut_edge_sets(inst):
            assert sum(y[e] for e in cut) >= inst.k + 1
            checked += 1
    assert checked >= 60


def test_zero_budget_family_and_degenerate_terminals():
    zero = gap_family(5, 0)
    assert solve_frac(zero).value == 1
    same = build_instance(False, 2, 0, 0, 2, [(0, 1, 3, True)])
    assert solve_frac(same).value == 0


def test_gap_report_known_points():
    r = gap_report(2, 1)
    assert (r.integral_opt, r.fractional_opt, r.ratio) == (2, Fraction(2), Fraction(1))
    r = gap_report(4, 1)
    assert (r.integral_opt, r.fractional_opt, r.ratio) == \
        (2, Fraction(4, 3), Fraction(3, 2))
    r = gap_report(10, 2)
    assert (r.integral_opt, r.fractional_opt, r.ratio) == \
        (3, Fraction(5, 4), Fraction(12, 5))


def test_gap_ratio_closed_form_and_monotone():
    previous = None
    for d in (3, 5, 8, 12):
        k = 2
        r = gap_report(d, k)
        assert r.ratio == Fraction((k + 1) * (d - k), d)
        assert 1 <= r.ratio <= k + 1
        if previous is not None:
            assert r.ratio > previous
        previous = r.ratio


def _scenario_flow_lp_value(inst):
    """Independent formulation: one unit-value flow per failure scenario.

    Variables are the capacities x plus per-scenario arc flows bounded
    by x; minimizes the same objective.  Exponential in the scenario
    count, so only for tiny instances.
    """
    m = len(inst.edges)
    arcs = []
    for e in inst.edges:
        if e.u == e.v:
            continue
        arcs.append((e.u, e.v, e.id))
        if not inst.directed:
            arcs.append((e.v, e.u, e.id))
    rows = []
    num_vars = m
    for e in inst.edges:
        rows.append(({e.id: 1}, LESS_EQUAL, 1))
    for scenario in enumerate_scenarios(inst):
        flow_var = {}
        for a, (u, v, eid) in enumerate(arcs):
            if eid in scenario.failed:
                continue
            flow_var[a] = num_vars
            num_vars += 1
            rows.append(({flow_var[a]: 1, eid: -1}, LESS_EQUAL, 0))
        for vertex in range(inst.vertex_count):
            if vertex == inst.t:
                continue
            balance = {}
            for a, (u, v, eid) in enumerate(arcs):
                if a not in flow_var:
                    continue
                if u == vertex:
                    balance[flow_var[a]] = balance.get(flow_var[a], 0) + 1
                if v == vertex:
                    balance[flow_var[a]] = balance.get(flow_var[a], 0) - 1
            rows.append((balance, EQUAL, 1 if vertex == inst.s else 0))
    objective = {e.id: e.w for e in inst.edges}
    x, value = reference_lp(objective, rows, num_vars)
    return value


def test_cut_formulation_matches_scenario_flow_formulation():
    rng = random.Random(229)
    agreed = 0
    while agreed < 25:
        inst = random_instance(rng, n_max=4, m_max=6, k=rng.randint(0, 2))
        if len(inst.faulty_ids) > 4 or inst.s == inst.t:
            continue
        try:
            cv = solve_frac(inst)
        except Infeasible:
            continue
        assert cv.value == _scenario_flow_lp_value(inst)
        agreed += 1


def test_infeasible_instance():
    inst = build_instance(True, 2, 0, 1, 1, [(0, 1, 1, True)])
    with pytest.raises(Infeasible):
        solve_frac(inst)


def test_tableau_cap_names_the_size(monkeypatch):
    # gap_family(30, 2): one cut of 30 faulty edges, so 31 rows and 61
    # variables, and a dual tableau of 61 x (31 + 61 + 1) entries.
    monkeypatch.setattr(frac, "TABLEAU_CAP", 5672)
    with pytest.raises(TooLargeForExactLP,
                       match=r"^LP tableau of 61 rows x 93 columns exceeds the cap of 5672 "):
        solve_frac(gap_family(30, 2))
    monkeypatch.setattr(frac, "TABLEAU_CAP", 5673)
    assert solve_frac(gap_family(30, 2)).value == Fraction(15, 14)


def test_tableau_cap_stops_a_valid_document_before_the_simplex(tmp_path, capsys):
    # 126 minimal cuts, each with more than k faulty edges: a dense
    # tableau of 2.1e6 entries, refused before the simplex starts.
    from ftpath.cli import main
    out = tmp_path / "gen"
    assert main(["gen", "--kind", "srp", "--seed", "4", "--edges", "30", "--k", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["solve", str(out / "srp_009.ftp"), "--algorithm", "frac"])
    assert (code, capsys.readouterr().err) == (
        4, "caps exceeded: LP tableau of 1035 rows x 2041 columns exceeds "
           "the cap of 1000000 entries\n")


def test_frac_values_of_documents_with_many_side_cuts(tmp_path, capsys):
    # 14 to 17 vertices, 4,096 to 32,768 s-sides, 20 to 90 minimal cuts.
    from ftpath.cli import main
    out = tmp_path / "gen"
    assert main(["gen", "--kind", "srp", "--seed", "4", "--edges", "30", "--k", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    for name, value in [("srp_002", 16), ("srp_003", 3), ("srp_004", 0), ("srp_005", 42)]:
        code = main(["solve", str(out / f"{name}.ftp"), "--algorithm", "frac"])
        assert (code, capsys.readouterr().out.splitlines()[2]) == (0, f"value: {value}")


def _side_cuts(instance):
    """The edge set leaving every s-side, deduplicated."""
    n = instance.vertex_count
    s, t = instance.s, instance.t
    others = [v for v in range(n) if v not in (s, t)]
    cuts: set[tuple[int, ...]] = set()
    for mask in range(2 ** len(others)):
        side = {s}
        for i, v in enumerate(others):
            if mask >> i & 1:
                side.add(v)
        crossing = []
        for e in instance.edges:
            if e.u == e.v:
                continue
            if instance.directed:
                if e.u in side and e.v not in side:
                    crossing.append(e.id)
            elif (e.u in side) != (e.v in side):
                crossing.append(e.id)
        cuts.add(tuple(sorted(crossing)))
    return cuts


def _pairwise_minimal_cuts(instance):
    """Reference enumeration: the side cuts, less any that contains another
    by a quadratic filter, which is skipped past 4,000 cuts."""
    cuts = _side_cuts(instance)
    if len(cuts) > 4000:
        return sorted(cuts)
    as_sets = {c: frozenset(c) for c in cuts}
    minimal = [c for c in cuts
               if not any(other != c and as_sets[other] < as_sets[c] for other in cuts)]
    return sorted(minimal)


def _joined(instance, removed) -> bool:
    """Whether t is reachable from s once the edges ``removed`` are gone."""
    adj: dict[int, list[int]] = {}
    for e in instance.edges:
        if e.id not in removed:
            adj.setdefault(e.u, []).append(e.v)
            if not instance.directed:
                adj.setdefault(e.v, []).append(e.u)
    seen, stack = {instance.s}, [instance.s]
    while stack:
        for v in adj.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return instance.t in seen


def test_cut_enumeration_matches_the_pairwise_filter():
    rng = random.Random(1901)
    shapes = Counter()
    for _ in range(5000):
        n = rng.randint(1, 8)
        edges = []
        for _ in range(rng.randint(0, 14)):
            u = rng.randrange(n)
            v = u if rng.random() < 0.1 else rng.randrange(n)
            edges.append((u, v, 1, rng.random() < 0.5))
            if rng.random() < 0.1:
                edges.append(edges[-1])
        s = rng.randrange(n)
        t = s if rng.random() < 0.1 else rng.randrange(n)
        inst = build_instance(rng.random() < 0.5, n, s, t, 1, edges)
        assert enumerate_cut_edge_sets(inst) == _pairwise_minimal_cuts(inst)
        ends = Counter((e.u, e.v) if inst.directed else frozenset((e.u, e.v))
                       for e in inst.edges)
        touched = {x for e in inst.edges for x in (e.u, e.v)}
        shapes.update({"directed": inst.directed, "s = t": s == t,
                       "loop": any(e.u == e.v for e in inst.edges),
                       "parallel": max(ends.values(), default=0) > 1,
                       "isolated": len(touched) < n})
    assert min(shapes.values()) >= 400, shapes


def _many_side_cuts(rng, n, m, directed, k, faulty_prob):
    """A seeded instance on n vertices with a random spanning tree, a loop,
    parallel edges and more than 4,000 distinct side cuts."""
    while True:
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(m - n - 1)]
        pairs += [pairs[-1], (1, 1)]
        rng.shuffle(pairs)
        inst = build_instance(directed, n, 0, n - 1, k,
                              [(u, v, rng.randint(1, 9), rng.random() < faulty_prob)
                               for u, v in pairs])
        cuts = _side_cuts(inst)
        if len(cuts) > 4000 and _joined(inst, ()):
            return inst, cuts


def test_minimal_cuts_past_four_thousand_side_cuts():
    rng = random.Random(1902)
    for n, directed in [(14, False), (15, True), (15, False), (16, True)]:
        inst, side_cuts = _many_side_cuts(rng, n, 30, directed, 2, 0.5)
        minimal = enumerate_cut_edge_sets(inst)
        assert minimal == sorted(set(minimal))
        for cut in minimal:
            # A cut, and each of its edges is needed.
            assert not _joined(inst, set(cut))
            assert all(_joined(inst, set(cut) - {e}) for e in cut)
        # Each side cut contains one of the returned cuts, so no minimal
        # side cut is missing.
        returned = [sum(1 << e for e in cut) for cut in minimal]
        for cut in side_cuts:
            mask = sum(1 << e for e in cut)
            assert any(r & ~mask == 0 for r in returned)


@pytest.mark.parametrize("k, faulty_prob", [(1, 0.0), (20, 0.5)], ids=["all safe", "k >= |M|"])
def test_frac_with_every_side_cut_gives_the_same_lp_answer(monkeypatch, k, faulty_prob):
    # Past 4,000 side cuts the rows of non-minimal cuts are dropped; they
    # are implied by the minimal cuts, so x and the value stay.
    inst, side_cuts = _many_side_cuts(random.Random(1903), 14, 18, False, k, faulty_prob)
    expected = solve_frac(inst)
    monkeypatch.setattr(frac, "enumerate_cut_edge_sets", lambda _: sorted(side_cuts))
    assert solve_frac(inst) == expected
