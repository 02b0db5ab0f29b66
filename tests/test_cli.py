"""Command-line reports: payloads, determinism, exit codes."""

import json
import time
import tracemalloc

import pytest

from momentkit import cli, gkm, linalg, localization, polar, polytopes
from momentkit.errors import quoted
from momentkit.gkm import facet_class, gkm_class_to_json, moment_graph
from momentkit.polytopes import (
    catalog_specs,
    from_halfspaces,
    from_spec,
    polytope_to_json,
    simplex,
)
from test_cli_golden import COMMANDS, _write_classes


def run_json(argv):
    report, code = cli.run(argv + ["--json"])
    return report, code


def test_validate_builder_spec():
    report, code = run_json(["validate", "simplex:2:1"])
    assert code == 0
    assert report["result"] == {"simple": True, "rational": True, "smooth": True}
    assert report["polytope"] == {"dim": 2, "vertices": 3, "edges": 3, "facets": 3}


def test_validate_non_smooth_triangle(tmp_path):
    T = from_halfspaces(2, [((1, 0), 0), ((0, 1), 0), ((-2, -1), -2)])
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(polytope_to_json(T)))
    report, code = run_json(["validate", str(path)])
    assert code == 0
    assert report["result"]["smooth"] is False
    assert report["result"]["vertex"] == ["1", "0"]
    assert report["result"]["det"] == "2"


def test_validate_non_simple_pyramid(tmp_path):
    pyramid = {
        "dim": 3,
        "halfspaces": [
            {"normal": ["0", "0", "1"], "offset": "0"},
            {"normal": ["-1", "0", "-1"], "offset": "-1"},
            {"normal": ["1", "0", "-1"], "offset": "-1"},
            {"normal": ["0", "-1", "-1"], "offset": "-1"},
            {"normal": ["0", "1", "-1"], "offset": "-1"},
        ],
    }
    path = tmp_path / "pyramid.json"
    path.write_text(json.dumps(pyramid))
    report, code = run_json(["validate", str(path)])
    assert code == 0
    assert report["result"]["simple"] is False
    assert report["result"]["reason"] == "not simple"


def test_count_reports_oracle_agreement():
    report, code = run_json(["count", "hirzebruch:1"])
    assert code == 0
    assert report["result"]["count"] == report["oracle"]["count"] == 5
    assert report["status"] == "ok"


def test_count_explicit_box():
    report, code = run_json(["count", "cube:2:2", "--box=-1..3,-1..3"])
    assert code == 0
    assert report["result"]["count"] == 9


def test_volume_with_explicit_xi():
    report, code = run_json(["volume", "simplex:2:1", "--xi", "3,5"])
    assert code == 0
    assert report["result"]["volume"] == "1/2"
    assert report["oracle"]["volume"] == "1/2"


def test_volume_retries_non_generic_xi():
    report, code = run_json(["volume", "simplex:2:1", "--xi", "1,1"])
    assert code == 0
    assert report["result"]["xi_retried"] is True
    assert report["result"]["volume"] == "1/2"


def test_decompose_payload_shape():
    report, code = run_json(["decompose", "simplex:2:1", "--xi", "1,2"])
    assert code == 0
    cones = report["result"]["cones"]
    assert len(cones) == 3
    for cone in cones:
        assert set(cone) == {"apex", "generators", "open_flags", "sign"}
        assert cone["sign"] in (1, -1)
        assert cone["sign"] == (-1) ** sum(cone["open_flags"])
    assert report["oracle"]["agree"] is True


def test_betti_profile():
    report, code = run_json(["betti", "cube:3:1"])
    assert code == 0
    assert report["result"]["profile"] == [1, 3, 3, 1]
    assert report["oracle"]["stable"] is True


def test_gkm_check_command(tmp_path):
    P = simplex(2, 1)
    G = moment_graph(P)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(gkm_class_to_json(G, facet_class(P, G, 0))))
    report, code = run_json(["gkm-check", "simplex:2:1", "--class", str(good)])
    assert code == 0
    assert report["result"] == {"ok": True, "failures": []}

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"v0": {"0,0": "1"}, "v1": {}, "v2": {}}))
    report, code = run_json(["gkm-check", "simplex:2:1", "--class", str(bad)])
    assert code == 0
    assert report["result"]["ok"] is False
    assert report["result"]["failures"]


def test_gkm_dim_command():
    report, code = run_json(["gkm-dim", "hirzebruch:1", "--k", "1"])
    assert code == 0
    assert report["result"] == {"k": 1, "dimension": 4}


def test_integrate_command(tmp_path):
    P = simplex(2, 1)
    G = moment_graph(P)
    euler0 = localization.euler_class_at(G, 0)
    delta = tuple(euler0 if v == 0 else {} for v in range(3))
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(gkm_class_to_json(G, delta)))
    report, code = run_json(["integrate", "simplex:2:1", "--class", str(path)])
    assert code == 0
    assert report["result"]["value"] == "1"
    assert report["oracle"]["consistent"] is True


def test_catalog_command():
    report, code = run_json(["catalog"])
    assert code == 0
    assert report["polytope"] is None
    assert len(report["result"]["specs"]) == 21


def test_seeded_direction_choosers_agree():
    # every command's default direction comes from one chooser
    for spec in catalog_specs():
        P = from_spec(spec)
        G = moment_graph(P)
        for seed in range(4):
            xi = polar.choose_polarizing_vector(P, seed=seed)
            assert gkm.choose_generic_direction(G, seed=seed) == xi


def test_deterministic_output(capsys):
    outputs = []
    for _ in range(2):
        assert cli.main(["count", "simplex:2:2", "--json", "--seed", "9"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    for _ in range(2):
        assert cli.main(["betti", "hirzebruch:2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]


def test_text_output_has_status_line(capsys):
    assert cli.main(["validate", "cube:2:1"]) == 0
    out = capsys.readouterr().out
    assert "status: ok" in out
    assert "polytope: dim=2 vertices=4 edges=4 facets=4" in out


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main(["validate", "octahedron:3"]) == 2
    assert cli.main(["volume", "simplex:2:1", "--xi", "1"]) == 2
    assert cli.main(["volume", "simplex:2:1", "--xi", "a,b"]) == 2
    assert cli.main(["count", "cube:2:1", "--box", "1,2"]) == 2
    assert cli.main(["validate", "no_such_file.json"]) == 2
    assert cli.main(["gkm-dim", "simplex:2:1", "--k", "-1"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(json.JSONDecodeError) as decode:
        json.loads("{")
    seed = "--seed must fit in an unsigned 64-bit integer"
    for argv, message in [
            (["count", "cube:2:1", "--box", "0..1"],
             "--box has 1 ranges, polytope has dimension 2"),
            (["validate", "cube:2:1", "--seed", str(2**64)], seed),
            (["validate", "cube:2:1", "--seed", "-1"], seed),
            (["validate", str(bad)], f"polytope file {quoted(str(bad))} "
                                     f"is not valid JSON: {decode.value}")]:
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"


def test_domain_errors_exit_3(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({
        "dim": 1,
        "halfspaces": [
            {"normal": ["1"], "offset": "0"},
            {"normal": ["-1"], "offset": "1"},
        ],
    }))
    assert cli.main(["validate", str(empty)]) == 3

    unbounded = tmp_path / "unbounded.json"
    unbounded.write_text(json.dumps({
        "dim": 2,
        "halfspaces": [
            {"normal": ["1", "0"], "offset": "0"},
            {"normal": ["0", "1"], "offset": "0"},
        ],
    }))
    assert cli.main(["betti", str(unbounded)]) == 3

    non_delzant = tmp_path / "triangle.json"
    non_delzant.write_text(json.dumps({
        "dim": 2,
        "halfspaces": [
            {"normal": ["1", "0"], "offset": "0"},
            {"normal": ["0", "1"], "offset": "0"},
            {"normal": ["-2", "-1"], "offset": "-2"},
        ],
    }))
    assert cli.main(["betti", str(non_delzant)]) == 3
    assert cli.main(["betti", "simplex:2:1", "--xi", "1,1"]) == 3
    capsys.readouterr()


def test_zero_direction_errors_print_rationals(tmp_path, capsys):
    G = moment_graph(simplex(2, 1))
    delta = tuple(localization.euler_class_at(G, 0) if v == 0 else {}
                  for v in range(3))
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(gkm_class_to_json(G, delta)))
    capsys.readouterr()
    cone = "error: direction pairs to zero with edge vector ['0', '1']\n"
    for argv, expected in (
            (["decompose", "simplex:2:1"], cone),
            (["count", "simplex:2:1"], cone),
            (["integrate", "simplex:2:1", "--class", str(path)],
             "error: weight ['0', '1'] vanishes at evaluation point ['0', '0']\n")):
        assert cli.main(argv + ["--xi", "0,0"]) == 3
        err = capsys.readouterr().err
        assert "Fraction(" not in err
        assert err == expected


def test_degree_over_the_limit_exits_3(capsys):
    assert cli.main(["gkm-dim", "simplex:2:1", "--k", "100000"]) == 3
    assert "over the limit" in capsys.readouterr().err


def test_count_over_the_work_limit_exits_3(capsys):
    # the oracle would scan 1001^3 box points; refused before any scan
    start = time.process_time()
    assert cli.main(["count", "cube:3:1000"]) == 3
    assert time.process_time() - start < 1.0
    assert "over the limit" in capsys.readouterr().err


def test_count_at_the_box_limit_holds_no_points(capsys):
    # 1,000,000 box points, all inside: one tuple per point takes about 88 MB
    tracemalloc.start()
    try:
        assert cli.main(["count", "cube:2:999", "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert report["oracle"]["count"] == polytopes.MAX_BOX_POINTS
    assert peak < 2_000_000


def test_constraint_subsets_over_the_limit_exit_3(tmp_path, monkeypatch, capsys):
    # cube:3 in a file: C(6, 3) + C(6, 2) = 35 constraint subsets
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(polytope_to_json(from_spec("cube:3:1"))))
    monkeypatch.setattr(polytopes, "MAX_CONSTRAINT_SUBSETS", 35)
    assert cli.main(["validate", str(path)]) == 0
    monkeypatch.setattr(polytopes, "MAX_CONSTRAINT_SUBSETS", 34)
    assert cli.main(["validate", str(path)]) == 3
    assert "over the limit of 34" in capsys.readouterr().err
    monkeypatch.undo()
    # dim 12 with 60 half-spaces: refused before any of its C(60, 12) solves
    rows = [{"normal": [str(s * int(j == i)) for j in range(12)], "offset": "-1"}
            for i in range(12) for s in (1, -1)]
    rows += [{"normal": [str((i * j) % 7 - 3) for j in range(12)], "offset": "-9"}
             for i in range(1, 37)]
    path.write_text(json.dumps({"dim": 12, "halfspaces": rows}))
    start = time.process_time()
    assert cli.main(["validate", str(path)]) == 3
    assert time.process_time() - start < 1.0
    assert "over the limit" in capsys.readouterr().err


def test_dimension_over_the_limit_exits_3(monkeypatch, capsys):
    made = []
    init = polytopes.HalfSpace.__init__
    monkeypatch.setattr(polytopes.HalfSpace, "__init__",
                        lambda self, *a: made.append(1) or init(self, *a))
    for spec in ("simplex:17:1", "simplex:2000:1", "cube:17:1"):
        assert cli.main(["validate", spec]) == 3
        assert "over the limit of 16" in capsys.readouterr().err
    assert made == []


@pytest.mark.parametrize("command", ["gkm-check", "integrate"])
def test_class_degree_over_the_limit_exits_3(command, tmp_path, monkeypatch, capsys):
    # x^(10^9) at every vertex: refused before any divisibility test or
    # evaluation
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({f"v{i}": {"1000000000,0": "1"} for i in range(3)}))
    for module, name in ((gkm, "gkm_check"), (localization, "pushforward")):
        monkeypatch.setattr(module, name, None)
    start = time.process_time()
    assert cli.main([command, "simplex:2:1", "--class", str(path)]) == 3
    assert time.process_time() - start < 1.0
    assert "class has degree 1000000000, over the limit of 50000" in \
        capsys.readouterr().err


def test_class_evaluation_work_over_the_limit_exits_3(tmp_path, capsys):
    # x^i y^(4999-i), i < 5000, at every vertex of hirzebruch:2: each term
    # is far under the degree limit, and evaluating the class took 28 s
    path = tmp_path / "wide.json"
    wide = {f"{i},{4999 - i}": "1" for i in range(5000)}
    path.write_text(json.dumps({f"v{i}": wide for i in range(4)}))
    start = time.process_time()
    assert cli.main(["integrate", "hirzebruch:2", "--class", str(path)]) == 3
    assert time.process_time() - start < 1.0
    assert capsys.readouterr().err == (
        "error: class value at v0 needs evaluation work 124950005000 (its "
        "squared monomial degrees, each at least 1000, summed), over the "
        "limit of 2500000000\n")
    # gkm-check evaluates nothing, and its verdict stands
    assert cli.main(["gkm-check", "hirzebruch:2", "--class", str(path)]) == 0
    capsys.readouterr()


def test_restriction_over_the_limit_exits_3(tmp_path, capsys):
    # the image of cube:3:1 under x -> [[1,0,0],[1,1,0],[1,0,1]] x has the
    # edge weight (1,1,1) at v0 = 0, on which x^3200 restricts to 3201 terms
    P = from_halfspaces(3, [((1, 0, 0), 0), ((-1, 0, 0), -1),
                            ((-1, 1, 0), 0), ((1, -1, 0), -1),
                            ((-1, 0, 1), 0), ((1, 0, -1), -1)])
    poly, cls = tmp_path / "gl3.json", tmp_path / "class.json"
    poly.write_text(json.dumps(polytope_to_json(P)))
    cls.write_text(json.dumps({f"v{i}": {"3200,0,0": "1"} if i == 0 else {}
                               for i in range(8)}))
    start = time.process_time()
    assert cli.main(["gkm-check", str(poly), "--class", str(cls)]) == 3
    assert time.process_time() - start < 1.0
    assert "expands to 3201 terms, over the limit of 650" in capsys.readouterr().err
    # catalog weights have at most two nonzero entries, so no restriction
    # there expands, even at the degree limit
    for spec in catalog_specs():
        G = moment_graph(from_spec(spec))
        mono = ",".join([str(gkm.MAX_CLASS_DEGREE)] + ["0"] * (G.dim - 1))
        cls.write_text(json.dumps({label: {mono: "1"} if label == "v0" else {}
                                   for label in G.labels}))
        assert cli.main(["gkm-check", spec, "--class", str(cls)]) == 0
    capsys.readouterr()


def test_restriction_over_the_size_limit_exits_3(tmp_path, capsys):
    # the image of cube:3:1 under x -> [[1,0,0],[100,1,0],[101,0,1]] x has
    # the edge weight (1,100,101) at v0 = 0, on which z^649 restricts to 650
    # terms, at the term limit, but with 101^649 in every denominator
    P = from_halfspaces(3, [((1, 0, 0), 0), ((-1, 0, 0), -1),
                            ((-100, 1, 0), 0), ((100, -1, 0), -1),
                            ((-101, 0, 1), 0), ((101, 0, -1), -1)])
    poly, cls = tmp_path / "gl3.json", tmp_path / "class.json"
    poly.write_text(json.dumps(polytope_to_json(P)))
    for degree, code in ((649, 3), (150, 0)):
        cls.write_text(json.dumps({f"v{i}": {f"0,0,{degree}": "1"} if i == 0
                                   else {} for i in range(8)}))
        start = time.process_time()
        assert cli.main(["gkm-check", str(poly), "--class", str(cls)]) == code
        if code == 3:
            assert time.process_time() - start < 1.0
            assert "over the limit of 843700" in capsys.readouterr().err
    capsys.readouterr()


def test_rational_over_the_digit_limit_exits_3(tmp_path, capsys):
    # the volume of cube:3:10^1500 is 10^4500; the pushforward of x^10000
    # at v0 and 2x^10000 at v1 has about 30,000 digits
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"v0": {"10000": "1"}, "v1": {"10000": "2"}}))
    for argv in (["volume", f"cube:3:1{'0' * 1500}"],
                 ["integrate", "cube:1:1", "--class", str(path)]):
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "digits for printing" in err
        assert "set_int_max_str_digits" not in err


def test_input_over_the_digit_limit_exits_3(tmp_path, capsys):
    # parse_rat refuses these by length; Python's own int conversion limit
    # would name set_int_max_str_digits, and the spec error would echo them
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"v0": {"0": "1" + "0" * 4400}, "v1": {}}))
    key = tmp_path / "key.json"
    key.write_text(json.dumps({"v0": {"1" + "0" * 4400: "1"}, "v1": {}}))
    for argv, digits in (
            (["gkm-check", "cube:1:1", "--class", str(path)], 4401),
            # an exponent key, which poly_from_json reads with int()
            (["gkm-check", "cube:1:1", "--class", str(key)], 4401),
            (["validate", "cube:2:1" + "0" * 4400], 4401),
            # the dimension of a spec, which from_spec reads with int()
            (["validate", "cube:1" + "0" * 4400 + ":1"], 4401),
            (["volume", "cube:2:1", "--xi", "1," + "3" * 4301], 4301)):
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err == (f"error: a number written with {digits} digits is over "
                       "the limit of 4300 digits\n")
    # at the limit the number is parsed as before
    assert cli.main(["validate", "cube:1:1" + "0" * 4299]) == 0
    capsys.readouterr()


def test_long_malformed_spec_is_not_echoed(capsys):
    # the spec and the parse error it wraps each held the whole part, about
    # 200,000 bytes for the first; a long spec is named by a prefix and its
    # length, a short one in full
    for spec in ("cube:2:" + "x" * 100_000, "octahedron:" + "7" * 4000):
        assert cli.main(["validate", spec]) == 2
        err = capsys.readouterr().err
        assert len(err) < 300
        assert f"({len(spec)} characters)" in err
    assert cli.main(["validate", "cube:2:x"]) == 2
    assert capsys.readouterr().err == (
        "error: malformed builder spec 'cube:2:x': Invalid literal for "
        "Fraction: 'x'\n")


def test_long_arguments_are_not_echoed(capsys):
    # each was quoted in full, and a path twice (its OSError repeats it):
    # 100,049 to 200,071 bytes on stderr
    for argv in (["validate", "p" * 100_000],
                 ["volume", "cube:2:1", "--xi", "a" * 100_000],
                 ["gkm-check", "cube:1:1", "--class", "c" * 50_000],
                 ["count", "cube:2:1", "--box", "z" * 100_000]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert len(err) < 400
        assert f"({len(argv[-1])} characters)" in err
    assert cli.main(["count", "cube:2:1", "--box", "0..1,0..x"]) == 2
    assert capsys.readouterr().err == (
        "error: malformed --box range '0..x': invalid literal for int() "
        "with base 10: 'x'\n")
    assert cli.main(["validate", "no_such_file.json"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot read polytope file 'no_such_file.json': "
        "No such file or directory\n")


def test_malformed_polytope_files_are_not_echoed(tmp_path, monkeypatch,
                                                capsys):
    # each value was quoted in full: 100,087 to 250,099 bytes on stderr
    monkeypatch.chdir(tmp_path)
    long = "x" * 100_000
    for obj in ({"dim": long, "halfspaces": []},
                {"dim": 1, "halfspaces": long},
                {"dim": 1, "halfspaces": [long]},
                {"dim": 1, "halfspaces": [{"normal": [1] * 50_000}]},
                {"dim": 1, "halfspaces": [{"normal": ["1"] * 50_000,
                                           "offset": "0"}]},
                {"dim": 1, "halfspaces": [{"normal": long, "offset": "0"}]},
                {"dim": 1, "halfspaces": [{"normal": ["1"], "offset": long}]},
                {"dim": 1, "halfspaces": [{"normal": ["1"],
                                           "offset": [1] * 50_000}]}):
        (tmp_path / "bad.json").write_text(json.dumps(obj))
        assert cli.main(["validate", "bad.json"]) == 2
        err = capsys.readouterr().err
        assert len(err) < 400
        assert " characters)" in err
    # short values keep their messages byte for byte
    for obj, message in (
            ({"dim": 1.5, "halfspaces": []},
             "'dim' must be an integer, got 1.5"),
            ({"dim": 1, "halfspaces": "abc"},
             "'halfspaces' must be a list, got 'abc'"),
            ({"dim": 1, "halfspaces": [3]},
             "half-space entry must be an object with 'normal' and 'offset', "
             "got 3"),
            ({"dim": 1, "halfspaces": [{"normal": ["1", "2"], "offset": "0"}]},
             "normal ['1', '2'] has 2 entries, expected 1"),
            ({"dim": 1, "halfspaces": [{"normal": "ab", "offset": "0"}]},
             "expected list of rational strings, got 'ab'"),
            ({"dim": 1, "halfspaces": [{"normal": ["1"], "offset": "x"}]},
             "Invalid literal for Fraction: 'x'"),
            ({"dim": 1, "halfspaces": [{"normal": ["1"], "offset": [1]}]},
             "expected rational string, got [1]")):
        (tmp_path / "bad.json").write_text(json.dumps(obj))
        assert cli.main(["validate", "bad.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: bad polytope file 'bad.json': {message}\n")


def test_malformed_class_files_are_not_echoed(tmp_path, monkeypatch, capsys):
    # each value was quoted in full: 4,063 to 100,101 bytes on stderr
    monkeypatch.chdir(tmp_path)
    long = "x" * 100_000
    empty = {f"v{i}": {} for i in range(4)}
    for obj in ({long: {}},
                {**empty, "v0": {long: "1"}},
                {**empty, "v0": long},
                {**empty, "v0": {"-" + "1" * 3999 + ",0": "1"}}):
        (tmp_path / "bad.json").write_text(json.dumps(obj))
        assert cli.main(["gkm-check", "cube:2:1", "--class", "bad.json"]) == 2
        err = capsys.readouterr().err
        assert len(err) < 400
        assert " characters)" in err
    # short values keep their messages byte for byte
    for obj, message in (
            ({"v0": {}}, "class labels ['v0'] do not match graph labels "
                         "['v0', 'v1', 'v2', 'v3']"),
            ({**empty, "v0": {"1": "1"}},
             "exponent key '1' does not have 2 entries"),
            ({**empty, "v0": "x"}, "expected monomial/coefficient map, got 'x'"),
            ({**empty, "v0": {"-1,0": "1"}}, "negative exponent in key '-1,0'"),
            (["v0", "v1", "v2", "v3"],
             "class JSON must map vertex labels to polynomials"),
            # "01,0" names the monomial of "1,0"; the later key silently
            # replaced its term, and integrate pushed forward another class
            ({**empty, "v0": {"1,0": "1", "01,0": "2"}},
             "exponent key '01,0' repeats the monomial of an earlier key")):
        (tmp_path / "bad.json").write_text(json.dumps(obj))
        assert cli.main(["gkm-check", "cube:2:1", "--class", "bad.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: bad class file 'bad.json': {message}\n")


def test_long_int_options_are_not_echoed(capsys):
    # argparse quoted them in full: 50,130 bytes on stderr
    for argv in (["gkm-dim", "cube:2:1", "--k"],
                 ["validate", "cube:2:1", "--seed"]):
        for value in ("9" * 50_000, "x" * 50_000):
            with pytest.raises(SystemExit) as exit_:
                cli.main(argv + [value])
            assert exit_.value.code == 2
            err = capsys.readouterr().err
            assert len(err) < 400
            assert "(50000 characters)" in err
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv + ["abc"])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {argv[-1]}: invalid int value: 'abc'\n")


def test_exponent_over_the_digit_limit_exits_3(tmp_path, capsys):
    # Fraction("1e10000000") would expand the power in full, about 10 s,
    # and a negative exponent makes the same power its denominator
    path = tmp_path / "long.json"
    for exponent in ("10000000", "-10000000", "+4301", "-4301", "4_301"):
        path.write_text(json.dumps({"v0": {"0": f"1e{exponent}"}, "v1": {}}))
        for argv in (["validate", f"cube:2:1e{exponent}"],
                     ["volume", "cube:2:1", "--xi", f"1,3E{exponent}"],
                     ["gkm-check", "cube:1:1", "--class", str(path)]):
            start = time.process_time()
            assert cli.main(argv) == 3
            assert time.process_time() - start < 1.0
            assert capsys.readouterr().err == (
                "error: a number written with an exponent over 4300 in "
                "absolute value is over the limit of 4300 digits\n")
    assert cli.main(["validate", "cube:2:1e50"]) == 0
    capsys.readouterr()


def test_volume_of_cube_7_runs_in_bounded_time(capsys):
    # the oracle computes each of the 3^7 faces once; rebuilding each facet
    # once per ordering of the facets above it took about 7 s
    start = time.process_time()
    assert cli.main(["volume", "cube:7:1", "--json"]) == 0
    assert time.process_time() - start < 4.0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert report["result"]["volume"] == report["oracle"]["volume"] == "1"


def test_abbreviated_json_flag_prints_json(capsys):
    assert cli.main(["validate", "simplex:2:1", "--js"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["smooth"] is True


def test_boolean_dim_exits_2(tmp_path, capsys):
    path = tmp_path / "bool_dim.json"
    path.write_text(json.dumps({
        "dim": True,
        "halfspaces": [
            {"normal": ["1"], "offset": "0"},
            {"normal": ["-1"], "offset": "-1"},
        ],
    }))
    assert cli.main(["validate", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, content", [
    (["validate"],
     {"dim": 1, "halfspaces": [{"normal": ["1"], "offset": "1/0"},
                               {"normal": ["-1"], "offset": "-1"}]}),
    (["gkm-check", "simplex:1:1", "--class"], {"v0": {"1": "1/0"}, "v1": {}}),
    (["validate"],
     {"dim": 1, "halfspaces": [{"normal": ["1"]},
                               {"normal": ["-1"], "offset": "-1"}]}),
    (["validate"], {"dim": 1, "halfspaces": 5}),
    (["validate"], {"dim": 2, "halfspaces": [{"normal": ["1"], "offset": "0"}]}),
], ids=["zero-denominator-offset", "zero-denominator-coefficient",
        "missing-offset", "non-list-halfspaces", "short-normal"])
def test_malformed_file_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert cli.main(command + [str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_threads_env_validation(monkeypatch, capsys):
    monkeypatch.setenv("MOMENTKIT_THREADS", "4")
    assert cli.main(["validate", "simplex:2:1"]) == 0
    monkeypatch.setenv("MOMENTKIT_THREADS", "zero")
    assert cli.main(["validate", "simplex:2:1"]) == 2
    monkeypatch.setenv("MOMENTKIT_THREADS", "0")
    assert cli.main(["validate", "simplex:2:1"]) == 2
    capsys.readouterr()


def test_oracle_mismatch_exits_4(monkeypatch, capsys):
    # force a wrong localization volume; the report must carry both values
    monkeypatch.setattr(cli.localization, "volume_localization",
                        lambda P, xi: 99)
    assert cli.main(["volume", "simplex:2:1", "--json"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "oracle-mismatch"
    assert report["result"]["volume"] == "99"
    assert report["oracle"]["volume"] == "1/2"


def test_catalog_commands_take_no_rank(tmp_path, monkeypatch):
    # facets come from the tight vertex sets, edge directions and pairings
    # from ints, and volume_oracle's full-dimension verdict from the rows
    # tight at every vertex: on full-dimensional input every command but
    # gkm-dim, whose answer is the rank of its degree system, reaches no
    # rank; writing the class files of the golden digests reaches none
    monkeypatch.chdir(tmp_path)
    ranks = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank",
                        lambda *a, **k: ranks.append(1) or rank(*a, **k))
    for spec in catalog_specs():
        _write_classes(spec)
        for command, *options in COMMANDS:
            if command == "gkm-dim":
                continue
            report, code = run_json([command, spec, *options])
            assert code == 0, (command, spec)
            assert report["polytope"]["facets"] == len(from_spec(spec).halfspaces)
    assert ranks == []
    # the patch is live: a flat square's facets take one rank, that of the
    # normals of its two rows tight at every vertex
    flat = from_halfspaces(3, [((0, 0, 1), 0), ((0, 0, -1), 0), ((1, 0, 0), 0),
                               ((-1, 0, 0), -1), ((0, 1, 0), 0),
                               ((0, -1, 0), -1)])
    assert flat.facets == (0, 1) and ranks == [1]
