"""Solvers for minimum-cost s-t connection under bounded faulty-edge failures.

Given a weighted multigraph, terminals s and t, a designated set of
faulty edges, and a budget k, the task is a cheapest edge set that keeps
s connected to t after *any* failure of at most k faulty edges.  The
package provides exact solvers for k = 1, for directed acyclic graphs
with fixed k, and for series-parallel graphs; (k+1)- and k-ratio
approximations for general instances; an exact-rational fractional
relaxation; and a brute-force oracle for validation.
"""

from .core import (Edge, Instance, Scenario, Solution, OPTIMAL, RATIO_BOUNDED,
                   HEURISTIC, FTPError, ValidationError, NotApplicable,
                   CapExceeded, DuplicateEdgeId, BadEndpoint, NegativeWeight,
                   OverflowRisk, UnknownEdgeId, BadParameters,
                   ScenarioSpaceTooLarge, Infeasible, build_instance,
                   validate, is_feasible, enumerate_scenarios, scenario_count)
from .flow import Arc, FlowNetwork, FlowResult, max_flow, min_cost_flow
from .bipath import WrongBudget, LinkLengths, link_lengths, solve_1ftp
from .dag import (NotADag, ConfigurationSpaceTooLarge, LayeredInstance,
                  Configuration, Link, layerize, enumerate_configurations,
                  link_cost, solve_kftp_dag)
from .srp import (NotSeriesParallel, TreeMismatch, Leaf, Series, Parallel,
                  SolutionTable, decompose_srp, parse_decomposition,
                  solve_ftp_srp, solve_srp)
from .approx import (NotFeasible, InducedFlow, SegmentDecomposition,
                     approx_kplus1, approx_k, induced_flow,
                     segment_decomposition)
from .frac import (TooLargeForExactLP, CapacityVector, GapReport, solve_frac,
                   gap_family, rounding_vector, gap_report)
from .oracle import (InstanceTooLargeForOracle, OracleResult,
                     brute_force_feasible, brute_force_opt)
from .shortest import shortest_path_solution

__version__ = "0.1.0"

__all__ = [
    "Edge", "Instance", "Scenario", "Solution",
    "OPTIMAL", "RATIO_BOUNDED", "HEURISTIC",
    "FTPError", "ValidationError", "NotApplicable", "CapExceeded",
    "DuplicateEdgeId", "BadEndpoint",
    "NegativeWeight", "OverflowRisk", "UnknownEdgeId", "BadParameters",
    "ScenarioSpaceTooLarge", "Infeasible", "WrongBudget", "NotADag",
    "ConfigurationSpaceTooLarge", "NotSeriesParallel", "TreeMismatch",
    "NotFeasible", "TooLargeForExactLP", "InstanceTooLargeForOracle",
    "build_instance", "validate", "is_feasible", "enumerate_scenarios",
    "scenario_count",
    "Arc", "FlowNetwork", "FlowResult", "max_flow", "min_cost_flow",
    "LinkLengths", "link_lengths", "solve_1ftp",
    "LayeredInstance", "Configuration", "Link", "layerize",
    "enumerate_configurations", "link_cost", "solve_kftp_dag",
    "Leaf", "Series", "Parallel", "SolutionTable", "decompose_srp",
    "parse_decomposition", "solve_ftp_srp", "solve_srp",
    "InducedFlow", "SegmentDecomposition", "approx_kplus1", "approx_k",
    "induced_flow", "segment_decomposition",
    "CapacityVector", "GapReport", "solve_frac", "gap_family",
    "rounding_vector", "gap_report",
    "OracleResult", "brute_force_feasible", "brute_force_opt",
    "shortest_path_solution",
]
