"""Answer checks for one ``ftp solve`` operation, run outside the timed region.

An operation fails when it raises or exits with a code other than 0 or
2, when exit 2 disagrees with ``is_feasible`` on the full edge set, when
a returned edge set is infeasible or its ``cost:`` is not the sum of its
weights, when a fractional answer is not a feasible capacity vector of
the stated value or exceeds the ``(k+1)``-approximation's cost, or when
the cost or value differs from the recorded reference.  Equal answers
whose stdout bytes differ from the reference are reported separately.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction

INFEASIBLE = "infeasible"
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


@dataclass(frozen=True)
class Verdict:
    failure: str | None     # why the operation failed, or None
    outcome: str            # cost, fractional value or "infeasible"
    digest: str             # stdout digest
    stdout_changed: bool    # stdout differs from the reference, answer equal


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def load_references() -> dict:
    with open(REFERENCES, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _fields(lines: list[str], header: str) -> dict[str, str]:
    if not lines or lines[0] != header:
        raise ValueError(f"missing {header!r} header")
    fields = {}
    for line in lines[1:]:
        key, sep, value = line.partition(":")
        if sep and " " not in key:
            fields[key] = value.strip()
    return fields


def _check_solution(modules, instance, stdout: str) -> str:
    fields = _fields(stdout.splitlines(), "ftp-solution v1")
    cost = int(fields["cost"])
    edges = [int(x) for x in fields["edges"].split()]
    if len(set(edges)) != len(edges) or not all(0 <= e < len(instance.edges) for e in edges):
        raise ValueError("edge list repeats an id or names an unknown edge")
    if sum(instance.edges[e].w for e in edges) != cost:
        raise ValueError("cost is not the sum of the listed edge weights")
    if not modules["core"].is_feasible(instance, edges):
        raise ValueError("returned edge set is infeasible")
    return str(cost)


def _check_fractional(modules, instance, stdout: str) -> str:
    lines = stdout.splitlines()
    fields = _fields([line for line in lines if not line.startswith("x ")],
                     "ftp-fractional v1")
    value = Fraction(fields["value"])
    x = {}
    for line in lines:
        if line.startswith("x "):
            _, eid, xe = line.split()
            x[int(eid)] = Fraction(xe)
    if sorted(x) != list(range(len(instance.edges))):
        raise ValueError("x lines do not cover every edge exactly once")
    if any(not 0 <= xe <= 1 for xe in x.values()):
        raise ValueError("a capacity lies outside [0, 1]")
    if sum(e.w * x[e.id] for e in instance.edges) != value:
        raise ValueError("value is not the cost of x")
    for scenario in modules["core"].enumerate_scenarios(instance):
        flow = modules["frac"].fractional_max_flow(instance, x, scenario.failed)
        if flow < 1:
            raise ValueError(f"x carries {flow} < 1 after failing "
                             f"{sorted(scenario.failed)}")
    if value > modules["approx"].approx_kplus1(instance).cost:
        raise ValueError("value exceeds the (k+1)-approximation's cost")
    return str(value)


def check(modules, instance, fractional: bool, code, stdout: str,
          reference: list | None) -> Verdict:
    """Judge one operation; ``code`` is the exit code or the exception raised.

    ``reference`` is ``[outcome, digest]`` recorded for this document, or
    None where no reference exists.
    """
    stdout_digest = digest(stdout)
    if not isinstance(code, int):
        return Verdict(f"raised {code!r}", "", stdout_digest, False)
    if code not in (0, 2):
        return Verdict(f"exit code {code}", "", stdout_digest, False)
    feasible = modules["core"].is_feasible(instance, range(len(instance.edges)))
    if code == 2:
        outcome = INFEASIBLE
        failure = "exit 2 on a feasible instance" if feasible else None
    elif not feasible:
        outcome, failure = "", "exit 0 on an infeasible instance"
    else:
        try:
            outcome = (_check_fractional if fractional else _check_solution)(
                modules, instance, stdout)
            failure = None
        except (ValueError, KeyError) as exc:
            outcome, failure = "", f"bad answer: {exc}"
    changed = False
    if failure is None and reference is not None:
        if outcome != reference[0]:
            failure = f"answer {outcome} differs from reference {reference[0]}"
        else:
            changed = stdout_digest != reference[1]
    return Verdict(failure, outcome, stdout_digest, changed)
