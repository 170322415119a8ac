"""Exact solvers agree where their domains overlap.

The oracle caps out at a few dozen edges, so past that size an exact
solver's optimality is checked against another exact solver instead
(differential testing, McKeeman 1998).  At k = 1, ``bipath`` is exact on
every instance, ``srp`` on series-parallel ones and ``dag`` on DAGs, and
``approx_k`` is exact at k = 1 as well (its ratio bound is k).  Each
family draws seeded instances past the oracle's reach and requires the
three solvers to give one cost, or all three to raise ``Infeasible``.
"""

import random

import pytest

from ftpath.approx import approx_k
from ftpath.bipath import solve_1ftp
from ftpath.core import Infeasible
from ftpath.dag import solve_kftp_dag
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
