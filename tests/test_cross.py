"""Exact solvers agree where their domains overlap.

The oracle caps out at a few dozen edges, so past that size an exact
solver's optimality is checked against another exact solver instead
(differential testing, McKeeman 1998).  At k = 1, ``bipath`` is exact on
every instance, ``srp`` on series-parallel ones and ``dag`` on DAGs, and
``approx_k`` is exact at k = 1 as well (its ratio bound is k).  Each
family draws seeded instances past the oracle's reach and requires the
three solvers to give one cost, or all three to raise ``Infeasible``.
The fractional relaxation ``frac`` sandwiches the DAG costs as well: it
is at most ``dag``'s optimum, and k+1 times it is at least
``approx_kplus1``'s cost.
"""

import random

import pytest

from ftpath.approx import approx_k, approx_kplus1
from ftpath.bipath import solve_1ftp
from ftpath.core import Infeasible
from ftpath.dag import solve_kftp_dag
from ftpath.frac import solve_frac
from ftpath.srp import solve_srp

from conftest import random_dag_instance, random_srp_instance


def _cost(solver, instance):
    try:
        return solver(instance).cost
    except Infeasible:
        return None


def _disagreements(instances, exact):
    # (index, costs) of every instance where the three solvers differ,
    # and the number all three find infeasible.
    mismatches, infeasible = [], 0
    for i, inst in enumerate(instances):
        costs = [_cost(solver, inst) for solver in (exact, solve_1ftp, approx_k)]
        if len(set(costs)) > 1:
            mismatches.append((i, costs))
        infeasible += costs[0] is None
    return mismatches, infeasible


def _srp_instances():
    rng = random.Random(20250601)
    return [random_srp_instance(rng, leaves=rng.randint(20, 60), k=1) for _ in range(300)]


def _dag_instances():
    rng = random.Random(20250602)
    return [random_dag_instance(rng, n_max=12, m_max=40, k=1) for _ in range(300)]


FAMILIES = {"srp": (_srp_instances, solve_srp), "dag": (_dag_instances, solve_kftp_dag)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_exact_solvers_agree_at_k_1(family):
    instances, exact = FAMILIES[family]
    drawn = instances()
    mismatches, infeasible = _disagreements(drawn, exact)
    assert mismatches == []
    # Both outcomes occur often: agreement on costs and on Infeasible.
    assert 30 <= infeasible <= len(drawn) - 100, family


@pytest.mark.parametrize("k", [2, 3])
def test_lp_sandwich_on_dags(k):
    """frac <= dag <= approx_kplus1 <= (k+1)·frac, and Infeasible agrees.

    ``frac`` is the LP relaxation, so it is at most every exact cost, and
    ``approx_kplus1`` is a feasible answer, so it is at least ``dag``'s
    optimum.  The last bound is stronger than the ratio k+1 over OPT.
    Proof sketch: scale an LP-feasible ``x`` by k+1 and cap faulty edges
    at 1.  Take any cut C.  If it has k+1 faulty edges with
    ``(k+1)x_e >= 1``, it carries k+1.  If not, call those faulty edges S;
    the row ``x(C - S) >= 1`` gives k+1.  So a (k+1)-unit flow of cost at
    most (k+1)·``c·x`` fits ``approx_kplus1``'s network, and its support
    costs no more.
    """
    rng = random.Random(20250603 + k)
    checked, infeasible = 0, 0
    for _ in range(120):
        inst = random_dag_instance(rng, n_max=8, m_max=18, k=k)
        try:
            lp = solve_frac(inst).value
        except Infeasible:
            for solver in (solve_kftp_dag, approx_kplus1):
                with pytest.raises(Infeasible):
                    solver(inst)
            infeasible += 1
            continue
        exact, rounded = solve_kftp_dag(inst).cost, approx_kplus1(inst).cost
        assert lp <= exact <= rounded <= (k + 1) * lp, (inst, lp, exact, rounded)
        checked += 1
    assert checked >= 40 and infeasible >= 20, (checked, infeasible)
