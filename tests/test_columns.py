"""The columnar ``Instance``: columns always, edges built on first read.

The parsers and ``build_instance`` store u, v, w and faulty columns and
build ``edges`` only when it is read; an instance made with ``edges``
derives its columns at construction.  Both forms must compare, hash,
print, copy and pickle alike, and no solver's path from a document to an
answer, nor ``check``'s, nor any library call in the package, may build
the edges at all.
"""

import copy
import dataclasses
import pickle
import random
import sys
import threading

import pytest

from ftpath import approx, core, frac, oracle, srp
from ftpath.cli import (EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, main, parse_dimacs,
                        parse_instance, serialize_instance)
from ftpath.core import Edge, Instance, build_instance, is_feasible

from conftest import random_dag_instance, random_instance, random_srp_instance

def _seeded(count, seed):
    rng = random.Random(seed)
    return [random_instance(rng, n_max=6, m_max=14) for _ in range(count)]


def _dimacs(inst):
    return "".join([f"p ftp {inst.vertex_count} {len(inst.edges)} {int(inst.directed)} {inst.k}\n",
                    f"n s {inst.s + 1}\nn t {inst.t + 1}\n"]
                   + [f"a {e.u + 1} {e.v + 1} {e.w} {int(e.faulty)}\n" for e in inst.edges])


def _makers(inst):
    # Each maker gives a fresh instance equal to ``inst``, nothing read yet.
    text, dimacs = serialize_instance(inst), _dimacs(inst)
    rows = [(e.u, e.v, e.w, e.faulty) for e in inst.edges]
    edges = tuple(Edge(e.id, e.u, e.v, e.w, e.faulty) for e in inst.edges)
    return [
        lambda: parse_instance(text),
        lambda: parse_dimacs(dimacs),
        lambda: build_instance(inst.directed, inst.vertex_count, inst.s, inst.t, inst.k, rows),
        lambda: Instance(inst.directed, inst.vertex_count, edges, inst.s, inst.t, inst.k),
    ]


def _columns(inst):
    return tuple(getattr(inst, name) for name in core._COLUMNS)


def _built(text):
    inst = parse_instance(text)
    inst.edges  # noqa: B018 - builds and caches the edges
    return inst


def _answer(solve, inst):
    try:
        return solve(inst)
    except core.Infeasible:
        return None


def test_every_builder_gives_equal_columns_and_edges_in_either_order():
    for inst in _seeded(40, 2601):
        expected_edges = tuple(inst.edges)
        expected_columns = (tuple(e.u for e in expected_edges), tuple(e.v for e in expected_edges),
                            tuple(e.w for e in expected_edges),
                            tuple(e.faulty for e in expected_edges))
        for make in _makers(inst):
            edges_first = make()
            assert edges_first.edges == expected_edges
            assert _columns(edges_first) == expected_columns
            columns_first = make()
            assert _columns(columns_first) == expected_columns
            assert columns_first.edges == expected_edges
            assert all(type(e) is Edge for e in columns_first.edges)
            assert [e.id for e in columns_first.edges] == list(range(len(expected_edges)))
            assert all(type(f) is bool for f in columns_first._faulty)


def test_never_built_behaves_as_built():
    for inst in _seeded(15, 2602):
        text = serialize_instance(inst)
        built = _built(text)

        def fresh():
            other = parse_instance(text)
            assert "edges" not in vars(other)
            return other

        assert fresh() == built and built == fresh()
        assert hash(fresh()) == hash(built)
        assert repr(fresh()) == repr(built)
        assert dataclasses.replace(fresh(), k=inst.k + 1) == dataclasses.replace(built, k=inst.k + 1)
        assert dataclasses.replace(fresh()) == built
        copies = [copy.copy(fresh()), copy.deepcopy(fresh())]
        copies += [pickle.loads(pickle.dumps(fresh(), protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert "edges" not in vars(other)
            assert _columns(other) == _columns(built)
            assert other == built and hash(other) == hash(built)
        for other in (fresh().with_budget(inst.k + 2), fresh().with_terminals(inst.t, inst.s)):
            assert "edges" not in vars(other)
            assert other.edges == built.edges
        assert fresh().with_budget(inst.k + 2) == built.with_budget(inst.k + 2)
        assert fresh().with_terminals(inst.t, inst.s) == built.with_terminals(inst.t, inst.s)
        assert fresh().faulty_ids == built.faulty_ids


def test_srp_and_frac_paths_build_no_edges():
    rng = random.Random(2603)
    texts = [serialize_instance(random_srp_instance(rng, leaves=rng.randint(1, 14), k=2))
             for _ in range(20)]
    texts += [serialize_instance(inst) for inst in _seeded(20, 2604)]
    answered = 0
    for i, text in enumerate(texts):
        solvers = [frac.solve_frac] + [srp.solve_srp] * (i < 20)
        for solve in solvers:
            inst = parse_instance(text)
            answer = _answer(solve, inst)
            feasible = is_feasible(inst, range(len(inst._u)))
            assert serialize_instance(inst) == text
            assert "edges" not in vars(inst)
            built = _built(text)
            assert (answer, feasible) == (_answer(solve, built),
                                          is_feasible(built, range(len(built.edges))))
            answered += answer is not None
    assert answered > 20


def test_cli_solves_srp_and_frac_without_edges(tmp_path, monkeypatch, capsys):
    rng = random.Random(2605)
    paths = []
    for i in range(6):
        path = tmp_path / f"srp_{i}.ftp"
        path.write_text(serialize_instance(random_srp_instance(rng, leaves=6 + 3 * i, k=2)))
        paths.append(str(path))
    argvs = [["solve", path, *extra] for path in paths
             for extra in ([], ["--algorithm", "srp"], ["--algorithm", "frac"])]
    expected = []
    for argv in argvs:
        expected.append((main(argv), capsys.readouterr()))

    def refuse(*columns):
        raise AssertionError("an Edge was built")

    monkeypatch.setattr(core, "_edges_from", refuse)
    for argv, (code, out) in zip(argvs, expected):
        assert (main(argv), capsys.readouterr()) == (code, out), argv
    assert {code for code, _ in expected} <= {EXIT_OK, EXIT_INFEASIBLE}
    assert EXIT_OK in {code for code, _ in expected}


def test_cli_solves_and_checks_general_and_dag_without_edges(tmp_path, monkeypatch, capsys):
    # bipath, approx-k, approx-k1 and dag, and auto, which runs shortest at
    # k = 0, bipath at k = 1 and dag or srp, else approx-k, above; then
    # check on every integral answer.
    rng = random.Random(2806)
    insts = [random_instance(rng, n_max=7, m_max=14, k=k, ensure_backbone=True,
                             faulty_prob=0.3) for k in (0, 1, 1, 1, 1, 1, 1, 2, 2, 2)]
    insts += [random_dag_instance(rng, n_max=7, m_max=14, k=k, faulty_prob=0.3)
              for k in (1, 2, 2, 2, 2, 3)]
    argvs = []
    for i, inst in enumerate(insts):
        path = tmp_path / f"doc_{i}.ftp"
        path.write_text(serialize_instance(inst))
        algorithms = ["auto", "approx-k1"] + ["bipath"] * (inst.k == 1)
        algorithms += ["approx-k"] * (inst.k >= 1) + ["dag"] * inst.directed
        argvs += [["solve", str(path), "--algorithm", name] for name in algorithms]
    expected, solved = [], set()
    for argv in argvs:
        code, out = main(argv), capsys.readouterr()
        expected.append((argv, code, out))
        if code == EXIT_OK:
            solution = tmp_path / f"answer_{len(expected)}.sol"
            solution.write_text(out.out)
            check = ["check", argv[1], str(solution)]
            expected.append((check, main(check), capsys.readouterr()))
            assert expected[-1][2].out == "feasible\n", argv
            solved.add((argv[3], out.out.split("algorithm: ")[1].split()[0]))

    def refuse(*columns):
        raise AssertionError("an Edge was built")

    monkeypatch.setattr(core, "_edges_from", refuse)
    for argv, code, out in expected:
        assert (main(argv), capsys.readouterr()) == (code, out), argv
    # dag refuses a cyclic document with exit 3, after layerize has read it.
    assert {code for _, code, _ in expected} == {EXIT_OK, EXIT_INFEASIBLE, EXIT_INVALID}
    assert {("auto", "shortest"), ("auto", "bipath"), ("auto", "dag"), ("bipath", "bipath"),
            ("approx-k", "approx-k"), ("approx-k1", "approx-k1"), ("dag", "dag")} <= solved


def test_threads_read_equal_edges_with_shared_ids():
    # More threads than cores and a short switch interval, while other
    # threads grow the shared ids: every reader must see ids 0..m-1.
    big_m = len(core._IDS) + 300
    big = build_instance(False, 2, 0, 1, 1, [(0, 1, 1, False)] * big_m)
    assert [e.id for e in big.edges] == list(range(big_m))
    assert len(core._IDS) >= big_m
    m = big_m - 100
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(5):
            inst = build_instance(False, 3, 0, 2, 1, [(i % 3, (i + 1) % 3, i, i % 2 == 0)
                                                       for i in range(m)])
            growers = [build_instance(False, 2, 0, 1, 0, [(0, 1, 0, True)] * (big_m + 50 * j))
                       for j in range(1, 3)]
            barrier = threading.Barrier(6)
            seen = []

            def read(target):
                barrier.wait()
                seen.append((target, target.edges))

            threads = [threading.Thread(target=read, args=(target,))
                       for target in [inst] * 4 + growers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 6
            for target, edges in seen:
                assert [e.id for e in edges] == list(range(len(target._u)))
            ours = [edges for target, edges in seen if target is inst]
            assert len(ours) == 4 and all(edges == ours[0] for edges in ours)
            # Ids are shared with the larger instance, not made per instance.
            assert all(a.id is b.id for a, b in zip(ours[0], big.edges)), round_
    finally:
        sys.setswitchinterval(interval)


def _outcome(call, inst):
    # ``(True, result)``, or ``(False, (error type, message))``.
    try:
        return True, call(inst)
    except (core.FTPError, ValueError) as exc:
        return False, (type(exc), str(exc))


def _library_calls(built):
    # Each in-package reader that works on the columns, with the inputs
    # it needs taken from the instance with edges built.
    calls = {
        "validate": core.validate,
        "brute_force_opt": oracle.brute_force_opt,
        "brute_force_feasible":
            lambda inst: oracle.brute_force_feasible(inst, range(0, len(inst._u), 2)),
        "decompose_srp": srp.decompose_srp,
    }
    ok, tree = _outcome(srp.decompose_srp, built)
    if ok:
        text = srp.format_decomposition(tree)
        calls["parse_decomposition"] = lambda inst: srp.parse_decomposition(text, inst)
        calls["solve_ftp_srp"] = lambda inst: srp.solve_ftp_srp(inst, tree)
    ok, x = _outcome(frac.solve_frac, built)
    if ok:
        calls["rounding_vector"] = lambda inst: frac.rounding_vector(x, inst)
        calls["fractional_max_flow"] = lambda inst: frac.fractional_max_flow(
            inst, x.x, frozenset(sorted(inst.faulty_ids)[:inst.k]))
    best = oracle.brute_force_opt(built).best
    answer = range(len(built._u)) if best is None else best.edges
    calls["induced_flow"] = lambda inst: approx.induced_flow(inst, answer)
    calls["segment_decomposition"] = lambda inst: approx.segment_decomposition(inst, answer)
    return calls


def test_library_calls_read_the_columns_only(monkeypatch):
    rng = random.Random(3001)
    insts = [random_srp_instance(rng, leaves=rng.randint(1, 9), k=rng.randint(0, 2))
             for _ in range(14)]
    insts += [random_instance(rng, n_max=5, m_max=9, ensure_backbone=True) for _ in range(14)]
    cases = []
    for inst in insts:
        text = serialize_instance(inst)
        built = _built(text)
        cases += [(text, name, call, _outcome(call, built))
                  for name, call in _library_calls(built).items()]

    def refuse(*columns):
        raise AssertionError("an Edge was built")

    monkeypatch.setattr(core, "_edges_from", refuse)
    answered = dict.fromkeys((name for _, name, _, _ in cases), 0)
    for text, name, call, expected in cases:
        inst = parse_instance(text)
        assert _outcome(call, inst) == expected, (name, text)
        assert "edges" not in vars(inst), name
        answered[name] += expected[0]
    assert len(answered) == 10
    assert min(answered.values()) >= 3, answered


def test_misnumbered_ids_raise_at_construction():
    edges = (Edge(0, 0, 1, 1, False), Edge(2, 1, 2, 1, True), Edge(1, 1, 2, 1, False))
    with pytest.raises(core.DuplicateEdgeId) as caught:
        Instance(False, 3, edges, 0, 2, 1)
    assert str(caught.value) == "edge at position 1 has id 2; ids must be 0..m-1 in order"
    # The id check comes first, before any other field is looked at.
    with pytest.raises(core.DuplicateEdgeId):
        Instance(False, -1, (Edge(1, 0, 9, -1, False),), 0, 2, 1)
    inst = Instance(False, 3, edges[:1], 0, 2, 1)
    assert "edges" in vars(inst) and _columns(inst) == ((0,), (1,), (1,), (False,))


def test_edge_builds_one_edge_from_the_columns():
    rng = random.Random(3011)
    for inst in _seeded(30, 3011):
        m = len(inst.edges)
        for parsed in (parse_instance(serialize_instance(inst)), parse_dimacs(_dimacs(inst))):
            for i in [*range(m), -1, -m]:
                got = parsed.edge(i)
                assert "edges" not in vars(parsed)
                assert type(got) is Edge and got == parsed.edges[i]
                del parsed.__dict__["edges"]
            for i in (m, -m - 1, m + rng.randint(1, 5)):
                with pytest.raises(IndexError):
                    parsed.edge(i)
        # An instance made with edges answers from its columns alike.
        made = Instance(inst.directed, inst.vertex_count, inst.edges, inst.s, inst.t, inst.k)
        assert [made.edge(i) for i in range(-m, m)] == [*inst.edges, *inst.edges]
