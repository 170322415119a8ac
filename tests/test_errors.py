"""Each package error derives from one kind, and the front end reads only the kind."""

import importlib
import inspect

import pytest

from ftpath import approx, bipath, dag, frac, simplex, srp
from ftpath.cli import (EXIT_CAPS, EXIT_EMPTY, EXIT_INFEASIBLE, EXIT_INTERNAL,
                        EXIT_INVALID, EXIT_OK, main, serialize_instance)
from ftpath.core import (CapExceeded, FTPError, Infeasible, NotApplicable,
                         SolverCheckFailed, ValidationError, build_instance)

KINDS = (Infeasible, CapExceeded, NotApplicable, ValidationError, SolverCheckFailed)
MODULES = ("core", "flow", "shortest", "bipath", "approx", "dag", "srp", "frac",
           "simplex", "oracle", "cli")


def _package_errors() -> set[type]:
    errors = set()
    for name in MODULES:
        module = importlib.import_module(f"ftpath.{name}")
        errors.update(cls for _, cls in inspect.getmembers(module, inspect.isclass)
                      if issubclass(cls, FTPError) and cls is not FTPError)
    return errors


def test_every_error_derives_from_one_kind():
    errors = _package_errors()
    assert {cls.__name__ for cls in errors} >= {
        "WrongBudget", "NotADag", "NotSeriesParallel", "ScenarioSpaceTooLarge",
        "ConfigurationSpaceTooLarge", "TooLargeForExactLP", "InstanceTooLargeForOracle",
        "ParseError", "TreeMismatch", "NotFeasible"}
    for cls in errors:
        assert sum(issubclass(cls, kind) for kind in KINDS) == 1, cls
    # simplex.LPInfeasible stays a plain Exception: solve_frac checks
    # feasibility before the LP, so reaching it is a bug, and exit 5 is right.
    assert not issubclass(simplex.LPInfeasible, FTPError)


@pytest.fixture()
def path_k1(tmp_path):
    path = tmp_path / "one.ftp"
    path.write_text(serialize_instance(build_instance(False, 2, 0, 1, 1,
                                                      [(0, 1, 1, False)])))
    return str(path)


def _raising(error):
    def solver(*args):
        raise error
    return solver


@pytest.mark.parametrize("module, attribute, algorithm, error, code, err", [
    (bipath, "solve_1ftp", "bipath", Infeasible("no route"), EXIT_INFEASIBLE,
     "infeasible: no route"),
    (frac, "solve_frac", "frac", frac.TooLargeForExactLP("too big"), EXIT_CAPS,
     "caps exceeded: too big"),
    (dag, "solve_kftp_dag", "dag", dag.NotADag("cyclic"), EXIT_INVALID,
     "invalid input: cyclic"),
    (srp, "solve_srp", "srp", srp.TreeMismatch("bad tree"), EXIT_INVALID,
     "invalid input: bad tree"),
    (approx, "approx_k", "approx-k", SolverCheckFailed("wrong"), EXIT_INTERNAL,
     "internal error: SolverCheckFailed('wrong')"),
], ids=["infeasible", "cap", "not-applicable", "validation", "check-failed"])
def test_solve_exit_code_follows_the_kind(path_k1, capsys, monkeypatch, module,
                                          attribute, algorithm, error, code, err):
    monkeypatch.setattr(module, attribute, _raising(error))
    assert main(["solve", path_k1, "--algorithm", algorithm]) == code
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", err + "\n")


@pytest.mark.parametrize("error", [srp.NotSeriesParallel("k4"),
                                   frac.TooLargeForExactLP("too big"),
                                   srp.TreeMismatch("bad tree")],
                         ids=["not-applicable", "cap", "validation"])
def test_auto_falls_back_on_kind(tmp_path, capsys, monkeypatch, error):
    path = tmp_path / "k2.ftp"
    path.write_text(serialize_instance(build_instance(False, 2, 0, 1, 2,
                                                      [(0, 1, 1, False)])))
    monkeypatch.setattr(srp, "solve_srp", _raising(error))
    code = main(["solve", str(path)])
    out = capsys.readouterr()
    if isinstance(error, ValidationError):
        assert (code, out.err) == (EXIT_INVALID, "invalid input: bad tree\n")
    else:
        assert (code, out.err) == (EXIT_OK, "")
        assert out.out.startswith("ftp-solution v1\nalgorithm: approx-k\n")


def test_bench_rows_follow_the_kind(tmp_path, capsys):
    # Directed with a cycle (dag does not apply), and one faulty s-t arc
    # at k = 1 (infeasible); a scenario cap of 0 refuses the oracle.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.ftp").write_text(serialize_instance(build_instance(
        True, 3, 0, 1, 1, [(0, 1, 1, True), (1, 2, 1, False), (2, 1, 1, False)])))
    code = main(["bench", str(corpus), str(tmp_path / "t.txt"), "--cap-scenarios", "0"])
    rows = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
    assert code == EXIT_EMPTY
    assert rows[1:] == [
        "a.ftp oracle SKIPPED(caps: scenario space has 1 members, cap is 0)",
        "a.ftp bipath INFEASIBLE",
        "a.ftp dag NOT-APPLICABLE",
        "a.ftp approx-k1 INFEASIBLE",
        "a.ftp approx-k INFEASIBLE",
        "a.ftp frac INFEASIBLE",
    ]
