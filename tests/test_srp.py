import heapq
import random
import re
from collections import Counter

import pytest

from ftpath.core import (BadParameters, Infeasible, Solution, SolverCheckFailed,
                         build_instance, is_feasible)
from ftpath.frac import gap_family
from ftpath.oracle import brute_force_opt
from ftpath.shortest import shortest_path_solution
from ftpath import srp
from ftpath.srp import (Leaf, NotSeriesParallel, Parallel, Series,
                        TreeMismatch, decompose_srp, format_decomposition,
                        parse_decomposition, solve_ftp_srp, solve_srp)

from conftest import random_srp_instance


def tree_leaves(node):
    """All leaves, left to right, without recursion."""
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Leaf):
            yield cur
        else:
            stack += (cur.right, cur.left)


def test_single_edge_is_leaf():
    inst = build_instance(False, 2, 0, 1, 1, [(0, 1, 3, True)])
    tree = decompose_srp(inst)
    assert tree == Leaf(0, 0, 1)


def test_two_parallel_edges():
    inst = build_instance(False, 2, 0, 1, 1, [(0, 1, 1, True), (0, 1, 2, False)])
    tree = decompose_srp(inst)
    assert isinstance(tree, Parallel)
    assert isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf)
    assert (tree.u, tree.v) == (0, 1)


def test_series_chain_orientation():
    inst = build_instance(False, 3, 0, 2, 1, [(1, 2, 1, False), (1, 0, 1, False)])
    tree = decompose_srp(inst)
    assert isinstance(tree, Series)
    assert (tree.u, tree.v) == (0, 2)
    assert (tree.left.u, tree.left.v) == (0, 1)
    assert (tree.right.u, tree.right.v) == (1, 2)


def test_k4_is_not_series_parallel():
    edges = [(u, v, 1, False) for u in range(4) for v in range(u + 1, 4)]
    inst = build_instance(False, 4, 0, 3, 1, edges)
    with pytest.raises(NotSeriesParallel) as err:
        decompose_srp(inst)
    assert err.value.remainder  # the irreducible graph is reported



def test_directed_instance_is_not_series_parallel():
    inst = build_instance(True, 2, 0, 1, 1, [(0, 1, 1, False)])
    with pytest.raises(NotSeriesParallel, match="requires an undirected instance") as err:
        decompose_srp(inst)
    assert err.value.remainder == ()

# The reduction merges parallel pairs first (smallest pair, two smallest
# keys), then contracts the smallest contractible vertex.  The tree fixes
# the table's tie-breaks, so these outputs are pinned.
@pytest.mark.parametrize("n, s, t, ends, expected", [
    # Contracting vertex 0 before merging 2-1 gives P(S(e2,e0),P(e1,e3)).
    (3, 2, 1, [(1, 0), (1, 2), (0, 2), (2, 1)], "P(P(e1,e3),S(e2,e0))"),
    # Contracting vertex 3 before vertex 0 gives S(S(e0,e1),e2).
    (4, 1, 2, [(1, 3), (0, 3), (2, 0)], "S(e0,S(e1,e2))"),
    (7, 5, 3, [(6, 0), (5, 3), (1, 3), (5, 6), (4, 6), (0, 1), (4, 5),
               (2, 5), (2, 3), (3, 1)],
     "P(P(e1,S(e7,e8)),S(P(e3,S(e6,e4)),S(S(e0,e5),P(e2,e9))))"),
])
def test_reduction_order_pins_the_tree(n, s, t, ends, expected):
    inst = build_instance(False, n, s, t, 1, [(u, v, 1, False) for u, v in ends])
    assert format_decomposition(decompose_srp(inst)) == expected


@pytest.mark.parametrize("n, s, t, ends, remainder", [
    (4, 0, 3, [(u, v) for u in range(4) for v in range(u + 1, 4)],
     ((0, 1, (0,)), (0, 2, (1,)), (0, 3, (2,)), (1, 2, (3,)), (1, 3, (4,)),
      (2, 3, (5,)))),
    # The path 1-2-3 dangles off the terminal edge.
    (4, 0, 1, [(0, 1), (1, 2), (2, 3)], ((0, 1, (0,)), (1, 3, (1, 2)))),
    # Pairs merge smallest first, so the 0-1 merge takes the smaller key.
    (4, 0, 3, [(0, 1), (0, 1), (0, 2), (2, 0)],
     ((0, 1, (0, 1)), (0, 2, (2, 3)))),
], ids=["k4", "dangling", "two-pairs"])
def test_not_series_parallel_remainder_is_pinned(n, s, t, ends, remainder):
    inst = build_instance(False, n, s, t, 1, [(u, v, 1, False) for u, v in ends])
    with pytest.raises(NotSeriesParallel) as err:
        decompose_srp(inst)
    assert err.value.remainder == remainder


def test_wrong_terminals_rejected():
    # A cycle through 0-1-2 is series-parallel for terminals on the
    # cycle, but the reduction must land on (s, t) specifically.
    inst = build_instance(False, 4, 0, 3, 1,
                          [(0, 1, 1, False), (1, 2, 1, False),
                           (2, 0, 1, False), (2, 3, 1, False)])
    # Vertex 3 hangs off the cycle: 0-3 is reachable only through 2.
    tree = decompose_srp(inst)  # 0-3 via series over the cycle: fine
    assert (tree.u, tree.v) == (0, 3)

    dangling = build_instance(False, 4, 0, 1, 1,
                              [(0, 1, 1, False), (1, 2, 1, False),
                               (2, 3, 1, False)])
    with pytest.raises(NotSeriesParallel):
        decompose_srp(dangling)


def test_faulty_leaf_table():
    inst = build_instance(False, 2, 0, 1, 2, [(0, 1, 5, True)])
    table = solve_ftp_srp(inst, decompose_srp(inst))
    assert table.entries[0] == (frozenset({0}), 5)
    assert table.entries[1] is None
    assert table.entries[2] is None


def test_table_solution_raises_at_an_infeasible_budget():
    inst = build_instance(False, 2, 0, 1, 2, [(0, 1, 5, True)])
    table = solve_ftp_srp(inst, decompose_srp(inst))
    assert table.solution(0) == Solution(frozenset({0}), 5)
    for budget in (1, 2):
        with pytest.raises(Infeasible, match=f"^no solution survives {budget} failures$"):
            table.solution(budget)


def test_safe_leaf_table():
    inst = build_instance(False, 2, 0, 1, 2, [(0, 1, 5, False)])
    table = solve_ftp_srp(inst, decompose_srp(inst))
    assert all(entry == (frozenset({0}), 5) for entry in table.entries)


def test_budget_above_faulty_count_repeats_the_last_entry():
    # Rows stop at budget |M| = 2; larger budgets repeat that entry, and a
    # budget of 10**11 answers as |M| does.
    edges = [(0, 1, 2, False), (0, 1, 1, True), (0, 2, 0, True), (2, 1, 0, False)]
    inst = build_instance(False, 3, 0, 1, 6, edges)
    table = solve_ftp_srp(inst, decompose_srp(inst))
    at_m = solve_ftp_srp(inst.with_budget(2), decompose_srp(inst))
    assert table.entries == at_m.entries + at_m.entries[-1:] * 4
    assert solve_srp(inst.with_budget(10**11)) == solve_srp(inst.with_budget(2))


def test_table_refuses_huge_budgets():
    # The table holds one entry per budget 0..k, so a huge k is refused
    # before any is built; solve_srp still answers at that budget.
    inst = build_instance(False, 2, 0, 1, 10**11, [(0, 1, 5, False)])
    with pytest.raises(BadParameters, match=r"k=100000000000 needs 100000000001 "
                                            r"entries, above the bound of 1000000"):
        solve_ftp_srp(inst, decompose_srp(inst))
    assert len(solve_ftp_srp(inst.with_budget(999_999), decompose_srp(inst)).entries) == 10**6
    assert solve_srp(inst).edges == {0}


def test_gap_family_table():
    inst = gap_family(4, 1)
    table = solve_ftp_srp(inst, decompose_srp(inst))
    assert table.cost(0) == 1
    assert table.cost(1) == 2


def test_table_matches_oracle_per_budget():
    rng = random.Random(83)
    checked = 0
    for _ in range(80):
        k = rng.randint(1, 3)
        inst = random_srp_instance(rng, leaves=rng.randint(1, 8), k=k)
        tree = decompose_srp(inst)
        table = solve_ftp_srp(inst, tree)
        for budget in range(k + 1):
            result = brute_force_opt(inst.with_budget(budget))
            if result.best is None:
                assert table.entries[budget] is None
            else:
                assert table.cost(budget) == result.best.cost
                assert is_feasible(inst.with_budget(budget),
                                   table.entries[budget][0])
                checked += 1
    assert checked >= 100


def test_entry_zero_is_shortest_path():
    rng = random.Random(89)
    for _ in range(40):
        inst = random_srp_instance(rng, leaves=rng.randint(1, 10), k=2)
        table = solve_ftp_srp(inst, decompose_srp(inst))
        assert table.cost(0) == shortest_path_solution(inst).cost


def test_costs_monotone_and_bottom_threshold():
    rng = random.Random(97)
    for _ in range(60):
        k = 3
        inst = random_srp_instance(rng, leaves=rng.randint(1, 8), k=k)
        table = solve_ftp_srp(inst, decompose_srp(inst))
        previous = None
        for budget in range(k + 1):
            entry = table.entries[budget]
            # Bottom exactly when even the whole edge set fails.
            assert (entry is None) == (not is_feasible(
                inst.with_budget(budget), range(len(inst.edges))))
            if entry is None:
                assert all(e is None for e in table.entries[budget:])
                break
            if previous is not None:
                assert entry[1] >= previous
            previous = entry[1]


# Weights 0-1 give many equal-cost choices; the first minimal split of
# each parallel node wins, and these edge sets are what the CLI prints.
@pytest.mark.parametrize("seed, entries", [
    (1, [((3, 5), 0), ((3, 4, 5), 0), ((3, 4, 5), 0)]),
    (13, [((1, 2, 6), 0), ((0, 1, 2, 3, 6), 0), ((0, 1, 2, 3, 5, 6), 1)]),
    (28, [((0,), 0), ((0, 1, 2), 1), ((0, 1, 2, 5, 6), 3)]),
    (39, [((0, 1, 2), 1), ((0, 1, 2, 6), 1), ((0, 1, 2, 3, 4, 6), 2)]),
])
def test_table_ties_are_pinned(seed, entries):
    inst = random_srp_instance(random.Random(seed), leaves=7, k=2, max_w=1)
    table = solve_ftp_srp(inst, decompose_srp(inst))
    assert [(tuple(sorted(e[0])), e[1]) for e in table.entries] == entries


def test_parse_and_format_decomposition():
    # Both parallel edges faulty, so surviving one failure needs both.
    inst = build_instance(False, 3, 0, 2, 1,
                          [(0, 1, 1, False), (1, 2, 2, True), (1, 2, 3, True)])
    tree = parse_decomposition("S(e0, P(e1, e2))", inst)
    assert isinstance(tree, Series)
    assert (tree.u, tree.v) == (0, 2)
    assert format_decomposition(tree) == "S(e0,P(e1,e2))"
    table = solve_ftp_srp(inst, tree)
    assert table.cost(0) == 1 + 2
    assert table.cost(1) == 1 + 2 + 3

    same = parse_decomposition(format_decomposition(tree), inst)
    assert same == tree


def test_parse_decomposition_rejects_bad_trees():
    inst = build_instance(False, 3, 0, 2, 1,
                          [(0, 1, 1, False), (1, 2, 2, True)])
    with pytest.raises(TreeMismatch):
        parse_decomposition("S(e0, e0)", inst)  # edge twice
    with pytest.raises(TreeMismatch):
        parse_decomposition("e0", inst)  # edge 1 missing
    with pytest.raises(TreeMismatch):
        parse_decomposition("P(e0, e1)", inst)  # cannot compose in parallel
    with pytest.raises(TreeMismatch):
        parse_decomposition("S(e0", inst)
    with pytest.raises(TreeMismatch):
        parse_decomposition("S(e1, e0)", inst)  # wrong order for terminals


@pytest.mark.parametrize("text, message", [
    ("S(e0; e1)", "bad decomposition syntax at offset 4"),
    ("S(e0, e1, e0)", "unexpected ','"),
    ("S(e0)", "unexpected ')'"),
    ("e0)", "unexpected ')'"),
    ("S(,e0, e1)", "unexpected token ','"),
    ("S(e0 e1)", "unexpected token 'e1'"),
    ("S(e0, e9)", "leaf references unknown edge e9"),
], ids=["bad character", "extra comma", "one-child node", "extra paren",
        "missing left child", "missing comma", "unknown leaf"])
def test_parse_decomposition_names_the_fault(text, message):
    inst = build_instance(False, 3, 0, 2, 1, [(0, 1, 1, False), (1, 2, 2, True)])
    with pytest.raises(TreeMismatch, match=f"^{re.escape(message)}$"):
        parse_decomposition(text, inst)


@pytest.mark.parametrize("inst, tree, message", [
    (gap_family(2, 1), Parallel(Leaf(0, 0, 1), Leaf(0, 0, 1), 0, 1),
     "tree leaves do not partition the edge set"),
    (build_instance(False, 3, 0, 2, 1, [(0, 1, 1, False), (0, 1, 1, False)]),
     Parallel(Leaf(0, 0, 1), Leaf(1, 0, 1), 0, 1),
     "root terminals differ from the instance terminals"),
    # A series node must join two vertices, as parse_decomposition requires.
    (build_instance(False, 2, 1, 1, 0, [(1, 0, 1, False), (0, 1, 1, False)]),
     Series(Leaf(0, 1, 0), Leaf(1, 0, 1), 1, 1), "Series node 1-1 does not fit its children"),
    (build_instance(False, 3, 0, 2, 0, [(0, 1, 1, False), (1, 0, 1, False), (0, 2, 1, False)]),
     Series(Series(Leaf(0, 0, 1), Leaf(1, 1, 0), 0, 0), Leaf(2, 0, 2), 0, 2),
     "Series node 0-0 does not fit its children"),
], ids=["leaf twice", "root off the terminals", "cycle at s = t", "cycle below the root"])
def test_given_tree_names_the_fault(inst, tree, message):
    with pytest.raises(TreeMismatch, match=f"^{message}$"):
        solve_ftp_srp(inst, tree)


@pytest.mark.parametrize("k, loop_faulty", [(0, False), (1, True)],
                         ids=["safe loop", "faulty loop"])
def test_loop_leaf_is_a_mismatch(k, loop_faulty):
    # A self-loop joins no two vertices, so no series or parallel node can
    # hold it; the optimum here is edge 0 alone, at every budget.
    inst = build_instance(False, 2, 0, 1, k, [(0, 1, 1, False), (1, 1, 5, loop_faulty)])
    tree = Series(Leaf(0, 0, 1), Leaf(1, 1, 1), 0, 1)
    for solve in (solve_ftp_srp, solve_srp):
        with pytest.raises(TreeMismatch, match="^leaf e1 is a self-loop at vertex 1$"):
            solve(inst, tree)


def test_reduction_leaves_self_loops_out():
    # solve_srp answers without the loops; a tree must hold every edge,
    # so decompose_srp and parse_decomposition refuse and name the loop.
    inst = build_instance(False, 3, 0, 2, 2, [(1, 1, 0, False), (0, 1, 1, False),
                                              (1, 2, 1, False), (2, 2, 4, True)])
    solution = solve_srp(inst)
    assert (solution.edges, solution.cost) == ({1, 2}, 2)
    with pytest.raises(NotSeriesParallel, match="^edge e0 is a self-loop at vertex 1$") as err:
        decompose_srp(inst)
    assert err.value.remainder == ((1, 1, (0,)),)
    with pytest.raises(TreeMismatch, match="^leaf e0 is a self-loop at vertex 1$"):
        parse_decomposition("S(P(e0, e1), P(e2, e3))", inst)
    only_loops = build_instance(False, 2, 0, 1, 1, [(0, 0, 1, False), (1, 1, 1, False)])
    for solve in (solve_srp, decompose_srp):
        with pytest.raises(NotSeriesParallel, match="^graph has only self-loops$"):
            solve(only_loops)


def test_stuck_reduction_counts_no_loops():
    # K4 with a loop: six edges stay unreduced, and the loop is not one.
    edges = [(u, v, 1, False) for u in range(4) for v in range(u + 1, 4)]
    inst = build_instance(False, 4, 0, 3, 1, edges + [(2, 2, 1, True)])
    with pytest.raises(NotSeriesParallel, match="^reduction stuck with 6 edges left$") as err:
        solve_srp(inst)
    assert len(err.value.remainder) == 6


def test_solve_srp_wrapper_accepts_explicit_tree():
    inst = gap_family(2, 1)
    tree = parse_decomposition("P(e0, e1)", inst)
    assert solve_srp(inst, tree).cost == 2
    assert solve_srp(inst).cost == 2


def test_tree_mismatch_against_foreign_instance():
    inst = build_instance(False, 2, 0, 1, 1, [(0, 1, 1, True), (0, 1, 1, True)])
    other = build_instance(False, 2, 0, 1, 1, [(0, 1, 1, True)])
    tree = decompose_srp(inst)
    with pytest.raises(TreeMismatch):
        solve_ftp_srp(other, tree)


_APART = build_instance(False, 4, 0, 3, 1, [(0, 1, 1, False), (2, 3, 1, False)])
_PATH = build_instance(False, 3, 0, 2, 1, [(0, 1, 1, False), (1, 2, 1, False)])


@pytest.mark.parametrize("inst, tree", [
    # Two disjoint edges glued in series at no common vertex.
    (_APART, Series(Leaf(0, 0, 1), Leaf(1, 2, 3), 0, 3)),
    # Leaves claiming 0-2 for the path edges 0-1 and 1-2.
    (_PATH, Parallel(Leaf(0, 0, 2), Leaf(1, 0, 2), 0, 2)),
    (_PATH, Series(Leaf(0, 0, 1), Leaf(1, 2, 1), 0, 2)),
    # An inner series node claiming 0-5 for the path 0-1-2.
    (build_instance(False, 6, 0, 3, 1,
                    [(0, 1, 1, False), (1, 2, 1, False), (5, 3, 1, False)]),
     Series(Series(Leaf(0, 0, 1), Leaf(1, 1, 2), 0, 5), Leaf(2, 5, 3), 0, 3)),
    (gap_family(2, 1), Parallel(Leaf(0, 0, 1), Leaf(1, 1, 0), 0, 1)),
], ids=["series-apart", "parallel-leaves", "series-gap", "series-ends",
        "parallel-reversed"])
def test_inconsistent_tree_is_a_mismatch(inst, tree):
    with pytest.raises(TreeMismatch):
        solve_ftp_srp(inst, tree)
    with pytest.raises(TreeMismatch):
        solve_srp(inst, tree)


def test_entry_points_give_equal_tables():
    # solve_srp without a tree solves over the flat reduction; a tree
    # from decompose_srp or from its text form must give the same table.
    rng = random.Random(101)
    for _ in range(150):
        k = rng.randint(0, 3)
        inst = random_srp_instance(rng, leaves=rng.randint(1, 30), k=k,
                                   max_w=rng.choice([0, 2, 10]))
        tree = decompose_srp(inst)
        table = srp._table(inst, srp._reduce(inst))
        assert solve_ftp_srp(inst, tree) == table
        parsed = parse_decomposition(format_decomposition(tree), inst)
        assert solve_ftp_srp(inst, parsed) == table
        if table.entries[k] is not None:
            assert solve_srp(inst) == table.solution(k)


@pytest.mark.parametrize("shape", ["chain", "bundle"])
def test_large_chain_and_bundle(shape):
    m = 2 ** 15
    if shape == "chain":
        inst = build_instance(False, m + 1, 0, m, 1,
                              [(i, i + 1, 1, i % 2 == 0) for i in range(m)])
    else:
        inst = build_instance(False, 2, 0, 1, 1,
                              [(i % 2, 1 - i % 2, 1, True) for i in range(m)])
    tree = decompose_srp(inst)
    assert sorted(leaf.edge for leaf in tree_leaves(tree)) == list(range(m))
    table = solve_ftp_srp(inst, tree)
    assert srp._table(inst, srp._reduce(inst)) == table
    if shape == "chain":
        assert table.cost(0) == m and table.entries[1] is None
    else:
        assert table.cost(1) == 2 and len(table.entries[1][0]) == 2


def test_parse_handles_deep_nesting():
    n = 4000
    inst = build_instance(False, n + 1, 0, n,  2,
                          [(i, i + 1, 1, False) for i in range(n)])
    text = "".join(f"S(e{i}," for i in range(n - 1)) + f"e{n - 1}" + ")" * (n - 1)
    tree = parse_decomposition(text, inst)
    assert solve_ftp_srp(inst, tree).cost(2) == n


def test_deep_chain_is_iterative_safe():
    # A 4096-edge path: recursion-free decomposition, solve, flatten.
    n = 4096
    inst = build_instance(False, n + 1, 0, n, 1,
                          [(i, i + 1, 1, False) for i in range(n)])
    tree = decompose_srp(inst)
    assert len(list(tree_leaves(tree))) == n
    table = solve_ftp_srp(inst, tree)
    assert table.cost(1) == n
    assert len(table.entries[1][0]) == n


def _nested_pair_table(instance, flat):
    # The table as it was first written: every entry carries its edge set
    # as nested pairs, flattened at the root.  A reference for the table
    # of costs and splits.
    width = instance.k + 2
    inf = float("inf")
    costs, sets = [], []
    for e in instance.edges:
        costs.append([0, e.w] + [inf if e.faulty else e.w] * (width - 2))
        sets.append([None] + [e.id] * (width - 1))
    for i in range(len(costs), len(flat.kind)):
        ca, cb = costs[flat.left[i] >> 1], costs[flat.right[i] >> 1]
        sa, sb = sets[flat.left[i] >> 1], sets[flat.right[i] >> 1]
        if flat.kind[i] == srp._SERIES:
            costs.append([x + y for x, y in zip(ca, cb)])
            sets.append([None] + [(sa[j], sb[j]) for j in range(1, width)])
            continue
        cost, chosen = [0], [None]
        for j in range(1, width):
            best, split = inf, 0
            for x in range(j + 1):
                if ca[x] + cb[j - x] < best:
                    best, split = ca[x] + cb[j - x], x
            cost.append(best)
            chosen.append((sa[split], sb[j - split]))
        costs.append(cost)
        sets.append(chosen)
    entries = []
    for j in range(1, width):
        if costs[-1][j] == inf:
            entries.append(None)
            continue
        ids, stack = [], [sets[-1][j]]
        while stack:
            item = stack.pop()
            if type(item) is tuple:
                stack += item
            elif item is not None:
                ids.append(item)
        entries.append((frozenset(ids), costs[-1][j]))
    return tuple(entries)


def test_split_table_matches_nested_pairs():
    rng = random.Random(211)
    for _ in range(300):
        k = rng.randint(0, 3)
        inst = random_srp_instance(rng, leaves=rng.randint(1, 40), k=k,
                                   max_w=rng.choice([0, 1, 2, 10]),
                                   faulty_prob=rng.choice([0.2, 0.55, 0.9]))
        flat = srp._reduce(inst)
        reference = _nested_pair_table(inst, flat)
        assert srp._table(inst, flat).entries == reference
        assert solve_ftp_srp(inst, decompose_srp(inst)).entries == reference
        if reference[k] is None:
            with pytest.raises(Infeasible, match=f"no solution survives {k} failures"):
                solve_srp(inst)
        else:
            assert solve_srp(inst) == Solution(*reference[k])


def test_corrupted_split_fails_the_check(monkeypatch):
    # P(e0, e1) at k = 0: the left child, e0 of weight 1, carries the unit.
    inst = build_instance(False, 2, 0, 1, 0, [(0, 1, 1, False), (0, 1, 5, False)])
    real = srp._costs

    def corrupted(instance, flat):
        cost, splits = real(instance, flat)
        assert splits[-1][1] == 1
        splits[-1][1] = 0
        return cost, splits

    assert solve_srp(inst).edges == {0}
    monkeypatch.setattr(srp, "_costs", corrupted)
    with pytest.raises(SolverCheckFailed, match="weighs 5, its table entry 1"):
        solve_srp(inst)
    with pytest.raises(SolverCheckFailed):
        solve_ftp_srp(inst, decompose_srp(inst))


def _reference_reduce(instance):
    # The reduction as it was before incident sets were built from the
    # merged pairs: every edge is added and each parallel group removed
    # again, and both ends of a contraction are updated in one loop.  A
    # reference for the arrays, the errors and the remainders.
    if instance.directed:
        raise NotSeriesParallel(
            "series-parallel decomposition requires an undirected instance")
    s, t, n = instance.s, instance.t, instance.vertex_count
    if s == t:
        raise NotSeriesParallel("terminals coincide", ())
    if not instance.edges:
        raise NotSeriesParallel("graph has no edges", ())
    m = len(instance.edges)
    kind, left, right = [srp._LEAF] * m, [0] * m, [0] * m
    nu = [e.u for e in instance.edges]
    nv = [e.v for e in instance.edges]
    by_pair, groups = {}, {}
    incident = [set() for _ in range(n)]
    loops = 0
    for i, (u, v) in enumerate(zip(nu, nv)):
        if u != v:
            p = u * n + v if u < v else v * n + u
            if p in by_pair:
                groups.setdefault(p, [by_pair[p]]).append(i)
            by_pair[p] = i
            incident[u].add(i)
            incident[v].add(i)
        else:
            loops += 1
    if loops == m:
        raise NotSeriesParallel("graph has only self-loops", ())
    for p in sorted(groups):
        a, b = divmod(p, n)
        queue = groups[p]
        for j in range(0, 2 * len(queue) - 2, 2):
            c1, c2 = queue[j], queue[j + 1]
            queue.append(len(kind))
            kind.append(srp._PARALLEL)
            left.append(c1 * 2 + (nu[c1] != a))
            right.append(c2 * 2 + (nu[c2] != a))
            nu.append(a)
            nv.append(b)
        by_pair[p] = queue[-1]
        for x in (a, b):
            incident[x].difference_update(queue)
            incident[x].add(queue[-1])
    vert_heap = [x for x in range(n) if len(incident[x]) == 2 and x != s and x != t]
    while vert_heap:
        x = heapq.heappop(vert_heap)
        if len(incident[x]) != 2:
            continue
        c1, c2 = incident[x]
        if c1 > c2:
            c1, c2 = c2, c1
        incident[x].clear()
        a = nv[c1] if nu[c1] == x else nu[c1]
        b = nv[c2] if nu[c2] == x else nu[c2]
        node = len(kind)
        kind.append(srp._SERIES)
        left.append(c1 * 2 + (nu[c1] == x))
        right.append(c2 * 2 + (nu[c2] != x))
        nu.append(a)
        nv.append(b)
        p = a * n + b if a < b else b * n + a
        other = by_pair.get(p)
        if other is not None:
            low = p // n
            kind.append(srp._PARALLEL)
            left.append(other * 2 + (nu[other] != low))
            right.append(node * 2 + (a != low))
            nu.append(low)
            nv.append(p - low * n)
        by_pair[p] = top = len(kind) - 1
        for y, c in ((a, c1), (b, c2)):
            at = incident[y]
            at.discard(c)
            at.discard(other)
            at.add(top)
            if other is not None and len(at) == 2 and y != s and y != t:
                heapq.heappush(vert_heap, y)
    u, v = nu[-1], nv[-1]
    left_over = 2 * m - loops - len(kind)
    if left_over != 1 or {u, v} != {s, t}:
        raise NotSeriesParallel(
            f"reduction stuck with {left_over} edges left" if left_over != 1
            else f"graph reduces to a single {u}-{v} edge, not to the terminals",
            srp._remainder(m, left, right, nu, nv))
    return srp._Flat(kind, left, right, int(u != s))


def _reference_costs(instance, flat):
    # The table as it was before each budget's entry pairs were made once
    # per call: the inner scan computes j - y per pair.
    inf = float("inf")
    keys = [~e.w if e.faulty else e.w for e in instance.edges]
    width = min(instance.k, sum(key < 0 for key in keys)) + 2
    rows = {key: [0, ~key] + [inf] * (width - 2) if key < 0 else [0] + [key] * (width - 1)
            for key in set(keys)}
    costs = list(map(rows.__getitem__, keys))
    kind, left, right = flat.kind, flat.left, flat.right
    splits = [None] * len(kind)
    for i in range(len(costs), len(kind)):
        a, b = left[i] >> 1, right[i] >> 1
        ca, cb = costs[a], costs[b]
        costs[a] = costs[b] = None
        if kind[i] == srp._SERIES:
            costs.append([x + y for x, y in zip(ca, cb)])
            continue
        cost, split = [0], [0]
        for j in range(1, width):
            best, x = cb[j], 0
            for y in range(1, j + 1):
                c = ca[y] + cb[j - y]
                if c < best:
                    best, x = c, y
            cost.append(best)
            split.append(x)
        costs.append(cost)
        splits[i] = split
    return costs[-1], splits


def _seeded_multigraph(rng):
    # Half random multigraphs on at most 9 vertices, half series-parallel
    # compositions; both relabelled and shuffled, with loops and parallel
    # edges mixed in.
    k = rng.randint(0, 4)
    if rng.random() < 0.5:
        n = rng.randint(1, 9)
        s, t = rng.randrange(n), rng.randrange(n)
        ends = []
        for _ in range(rng.randint(0, 14)):
            u = rng.randrange(n)
            ends.append((u, u if rng.random() < 0.1 else rng.randrange(n)))
            if rng.random() < 0.15:
                ends.append(ends[-1][::-1])
    else:
        comp = random_srp_instance(rng, leaves=rng.randint(1, 14), k=k)
        n = comp.vertex_count
        label = list(range(n))
        rng.shuffle(label)
        s, t = label[0], label[1]
        ends = [(label[e.u], label[e.v])[::rng.choice((1, -1))] for e in comp.edges]
        if rng.random() < 0.3:
            u = rng.randrange(n)
            ends.append((u, u))
        if rng.random() < 0.2:
            ends.append((rng.randrange(n), rng.randrange(n)))
        rng.shuffle(ends)
    edges = [(u, v, rng.randint(0, 5), rng.random() < 0.5) for u, v in ends]
    return build_instance(rng.random() < 0.05, n, s, t, k, edges)


def _outcome(function, *args):
    try:
        return function(*args)
    except NotSeriesParallel as exc:
        return type(exc), str(exc), exc.remainder


def test_reduction_and_table_match_their_references():
    rng = random.Random(2301)
    shapes = Counter()
    for _ in range(6000):
        inst = _seeded_multigraph(rng)
        flat = _outcome(srp._reduce, inst)
        assert flat == _outcome(_reference_reduce, inst)
        shapes[re.sub(r"\d+", "#", flat[1]) if type(flat[0]) is type else "reduced"] += 1
        if type(flat[0]) is not type:
            assert srp._costs(inst, flat) == _reference_costs(inst, flat)
            shapes["parallel"] += srp._PARALLEL in flat.kind
            shapes["loop"] += any(e.u == e.v for e in inst.edges)
    assert min(shapes.values()) >= 50, shapes
