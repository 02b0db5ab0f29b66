"""Self-tests of the benchmark: ``python3 -m pytest bench``."""

from __future__ import annotations

import importlib
import json
import random
import re
import sys
from fractions import Fraction
from math import comb

import pytest

import gate
import run
import spans
import speed
import workloads

sys.path.insert(0, str(run.SRC))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Trimmed job lists, one pass per run: a smoke pass, not a measurement."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    monkeypatch.setattr(run, "SETUP_ROUNDS", 1)
    monkeypatch.setattr(workloads, "DILATIONS", ("2", "7/2"))
    monkeypatch.setattr(workloads, "SMALL_DILATIONS", ("3",))
    monkeypatch.setattr(workloads, "GKM_SPECS", ("cube:2:1", "simplex:3:1"))
    monkeypatch.setattr(workloads, "LADDER_SPECS", ("cube:3:1", "simplex:3:1"))
    monkeypatch.setattr(workloads, "RANDOM_SIZES", (20,))


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# smoke passes


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_pass(workload, small, capsys):
    assert run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0", "--trace", "0"]) == 0
    out = _last_json(capsys)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(run.END_TO_END_UNITS)
    for name, m in out["metrics"].items():
        assert m["unit"] == run.END_TO_END_UNITS[name]
        assert m["value"] > 0, name


def test_traced_smoke_pass(small, capsys):
    assert run.main(["--workload", "gkm-degree", "--seed", "3",
                     "--seconds", "0", "--trace", "1"]) == 0
    out = _last_json(capsys)
    assert out["correct"]
    assert set(out["metrics"]) == set(spans.per_layer_units())
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["gkm.rank_s"] > 0 and metrics["gkm.matrix_nnz"] > 0
    assert metrics["trace.overhead_ratio"] > 0


def test_speed_factor_scales_every_job_metric():
    results = [run.Result(workloads.Job("j", (), {}), took, took / 4, 0, "",
                          factor=2.0)
               for took in (0.01, 0.02, 0.03, 0.04)]
    passes = [results[:2], results[2:]]
    plain = run.job_metrics(passes, 0.5, scaled=False)
    scaled = run.job_metrics(passes, 0.5)
    assert scaled["setup_s"] == plain["setup_s"]
    for name, value in plain.items():
        if name != "setup_s":
            want = value / 2 if name == "jobs_per_s" else value * 2
            assert scaled[name] == pytest.approx(want), name


def test_local_factor_follows_nearby_samples():
    probe = speed.SpeedProbe()
    fast, slow = speed.REFERENCE_S / 2, speed.REFERENCE_S * 2
    probe.took = [fast] * 50 + [slow] * 50
    assert probe.factor_at(20) == pytest.approx(2 ** speed.ELASTICITY)
    assert probe.factor_at(80) == pytest.approx(0.5 ** speed.ELASTICITY)


def test_speed_probe_samples_per_measured_second():
    probe = speed.SpeedProbe()
    probe.after(speed.SAMPLE_EVERY_S * 2.5)
    probe.after(speed.SAMPLE_EVERY_S * 0.7)
    assert len(probe.took) == 3
    assert probe.factor() > 0
    assert speed.kernel() == speed.kernel()


def test_exits_nonzero_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "catalog-sweep", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# schema


def test_benchmark_json_schema():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    seen = set(names)
    for section, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", spans.per_layer_units())):
        assert {m["name"]: m["unit"] for m in spec[section]} == units
        for m in spec[section]:
            assert NAME.match(m["name"]) and UNIT.match(m["unit"])
            assert m["name"] not in seen
            seen.add(m["name"])
            assert m["better"] in ("higher", "lower")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ---------------------------------------------------------------------------
# tracing


def _module(name):
    # run.main re-imports momentkit, so always take the current modules
    return importlib.import_module(f"momentkit.{name}")


def _runner() -> run.Runner:
    return run.Runner(_module("cli"), _module("polytopes"), speed.SpeedProbe())


def _traced(*argvs, leak=None) -> spans.Tracer:
    """Trace the jobs; ``leak`` names a gkm binding to leave unpatched."""
    runner = _runner()
    tracer = spans.Tracer()
    runner.tracer = tracer
    gkm = _module("gkm")
    original = getattr(gkm, leak) if leak else None
    with tracer.installed():
        if leak:
            setattr(gkm, leak, original)
        for argv in argvs:
            runner.run(workloads.Job("t", argv + ("--json",), {}))
    return tracer


def test_span_tree_invariants():
    tr = _traced(("volume", "cube:3:1"), ("gkm-dim", "cube:2:1", "--k", "2"),
                 ("decompose", "hirzebruch:1"))
    selfs = tr.self_times()
    for i, p in enumerate(tr.parent):
        total = tr.end[i] - tr.start[i]
        assert 0 <= selfs[i] <= total
        if p >= 0:
            assert tr.start[p] <= tr.start[i] <= tr.end[i] <= tr.end[p]
            assert tr.job[p] == tr.job[i]
        else:
            assert tr.names[tr.name_id[i]] == "cli.main"
    assert len(set(tr.job)) == 3


@pytest.mark.parametrize("argv,expected", spans.COVERAGE_PROBES)
def test_coverage_probe_counts(argv, expected):
    assert spans.coverage_failures(_traced(argv), argv, expected) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_subsets_tried_is_binomial(n):
    tr = _traced(("validate", f"cube:{n}:1"))
    assert spans.span_totals(tr)["polytopes.subsets_tried"] == comb(2 * n, n)


def test_missed_name_binding_fails_coverage():
    """gkm binds smoothness_report by name; a wrapper that misses that
    binding must fail the coverage check, not give a quietly smaller count."""
    argv, expected = spans.COVERAGE_PROBES[1]
    tr = _traced(argv, leak="smoothness_report")
    assert spans.coverage_failures(tr, argv, expected) == [
        "gkm-dim cube:2:1 --k 2: polytopes.smoothness_report = 0, expected 1"]


# ---------------------------------------------------------------------------
# correctness gate and inputs


def _report(argv):
    result = _runner().run(workloads.Job("t", argv, {}))
    return result.code, result.stdout


def test_gate_accepts_closed_form_and_rejects_wrong_value():
    code, out = _report(("count", "cube:2:2", "--json"))
    expect = gate.shape_from_spec("cube:2:2").expect("count")
    assert gate.check(expect, code, out) is None
    wrong = dict(expect, result={"count": expect["result"]["count"] + 1})
    assert "count" in gate.check(wrong, code, out)
    assert gate.check(expect, 4, out) == "exit code 4"


def test_gate_compares_rationals_exactly():
    code, out = _report(("volume", "simplex:3:2", "--json"))
    expect = gate.shape_from_spec("simplex:3:2").expect("volume")
    assert expect["result"]["volume"] == Fraction(8, 6)
    assert gate.check(expect, code, out) is None
    wrong = dict(expect, result={"volume": Fraction(4, 3) + Fraction(1, 10**9)})
    assert gate.check(wrong, code, out) is not None


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_hirzebruch_closed_form_matches_row_sums(a, k):
    rows = sum((a + 1) * k - a * y + 1 for y in range(k + 1))
    assert gate.hirzebruch_count(a, Fraction(k)) == rows


def test_gkm_dimension_closed_form_small_cases():
    # cube:2 has Betti (1, 2, 1); degree 1 classes: 1*2 + 2*1 = 4 (the facets)
    assert gate.gkm_dimension((1, 2, 1), 1) == 4
    assert gate.gkm_dimension((1, 1), 3) == 2


def test_inputs_depend_only_on_seed(tmp_path):
    a = workloads.prepare("build-ladder", 5, str(tmp_path / "a"))
    b = workloads.prepare("build-ladder", 5, str(tmp_path / "b"))
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        first, second = (tmp_path / d / name for d in ("a", "b"))
        assert first.read_bytes() == second.read_bytes()
    assert [j.expect for j in a] == [j.expect for j in b]
    assert workloads.pass_jobs(a, 5, 1) != workloads.pass_jobs(a, 6, 1)


def test_random_polytope_vertex_count_matches_momentkit():
    halfspaces, vertices = workloads.random_polytope(random.Random(9), 20)
    polytopes = _module("polytopes")
    P = polytopes.from_halfspaces(3, halfspaces)
    assert len(P.vertices) == vertices
    assert polytopes.smoothness_report(P).simple


def test_simple_vertex_count_rejects_degenerate_vertex():
    # square pyramid: the apex lies on four planes
    pyramid = [((0, 0, 1), 0), ((1, 0, -1), -1), ((-1, 0, -1), -1),
               ((0, 1, -1), -1), ((0, -1, -1), -1)]
    assert workloads.simple_vertex_count(pyramid) is None
    cube = [((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0),
            ((0, -1, 0), -1), ((0, 0, 1), 0), ((0, 0, -1), -1)]
    assert workloads.simple_vertex_count(cube) == 8
