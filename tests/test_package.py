"""The package's public surface and the README's library and command
examples."""

import ast
import dataclasses
import io
import json
import re
import shlex
import sys
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import momentkit
from momentkit import algebra, cli, gkm, localization, polar, polytopes
from momentkit.algebra import format_rat, parse_rat, restrict_to_hyperplane, vec
from momentkit.errors import DomainError

README = Path(__file__).resolve().parent.parent / "README.md"

# Every public name of ``momentkit``; adding or removing one shows here.
PUBLIC_NAMES = [
    "DegenerateInputError", "DomainError", "EmptyRegionError",
    "MomentGraph", "NonSimpleVertexError",
    "NotDelzantError", "NotGenericError",
    "PolarizedCone", "Poly", "Polytope", "SmoothnessReport",
    "UnboundedRegionError", "Vec", "algebra", "betti_numbers",
    "catalog_specs", "choose_polarizing_vector", "cube",
    "dilate", "dot", "errors", "euler_class_at",
    "facet_class", "free_module_check", "from_halfspaces",
    "from_spec", "generic_vector", "gkm", "gkm_check", "gkm_degree_basis",
    "gkm_dimension", "hirzebruch", "is_polarizing", "lattice_points_oracle",
    "linalg", "localization", "moment_graph", "polar", "polar_decompose",
    "poly_quotient_by_linear", "polytopes", "primitive",
    "pushforward", "signed_indicator_sum", "signed_lattice_count", "simplex",
    "smoothness_report", "tight_box", "volume_localization", "volume_oracle",
]


def test_public_names():
    assert sorted(momentkit.__all__) == PUBLIC_NAMES


POLYTOPE_FIELDS = {"dim", "vertices", "vertex_facets", "edges", "int_rows",
                   "int_vertices", "neighbors", "weights", "facets"}


def test_polytope_carries_only_its_own_data():
    """What a Polytope holds: the fields its constructor sets and the two
    properties it caches, ``weights`` and ``facets``.
    Per-direction data, such as polarized cones, stays with the caller, so
    one polytope used for many directions holds no more.  ``int_vertices``,
    the integer vertex table, is one pair per vertex, and ``int_rows`` one
    pair per half-space."""
    for spec in ("hirzebruch:2", "cube:3:1"):
        P = polytopes.from_spec(spec)
        xi = polar.choose_polarizing_vector(P)
        cones = polar.polar_decompose(P, xi)
        assert (polar.signed_lattice_count(P, xi, polytopes.tight_box(P))
                == polytopes.lattice_points_oracle(P))
        assert all(polar.signed_indicator_sum(cones, v) == 1
                   for v in P.vertices)
        assert (localization.volume_localization(P, xi)
                == polytopes.volume_oracle(P))
        G = gkm.moment_graph(P)
        betti = gkm.betti_numbers(G, gkm.choose_generic_direction(G))
        assert sum(betti) == len(P.vertices)
        assert set(vars(P)) <= POLYTOPE_FIELDS, set(vars(P)) - POLYTOPE_FIELDS


def _quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _commented_value(comment: str, namespace: dict):
    """The value a comment such as ``# 6, equals brute-force count`` states:
    its longest leading run of comma-separated parts that evaluates."""
    parts = comment.lstrip("#").strip().split(", ")
    for k in range(len(parts), 0, -1):
        try:
            return eval(", ".join(parts[:k]), dict(namespace))
        except (SyntaxError, NameError):
            continue
    raise AssertionError(f"no value in comment {comment!r}")


def test_readme_quickstart_values():
    code = _quickstart()
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT}
    namespace = {"Fraction": Fraction}
    checked = []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            got = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                       namespace)
            assert got == _commented_value(comments[stmt.end_lineno], namespace)
            checked.append(got)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == [6, 2, 2, 4, (1, 2, 1)]


def test_readme_command_examples_exit_0(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    P = polytopes.simplex(2, 1)
    G = gkm.moment_graph(P)
    cls = gkm.gkm_class_to_json(G, gkm.facet_class(P, G, P.facets[0]))
    (tmp_path / "cls.json").write_text(json.dumps(cls))
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    assert len(lines) == 9
    for line in lines:
        name, *argv = shlex.split(line, comments=True)
        assert name == "momentkit"
        assert cli.main(argv) == 0, line


SRC = README.parent / "src" / "momentkit"
BENCH = README.parent / "bench"
TESTS = README.parent / "tests"

# Public functions that only tests call, each with its reason.  Being
# exported is no reason: a name listed here that gains a caller in src/ or
# bench/ must leave the list.
CALLED_BY_TESTS_ONLY = {
    "algebra.vec": "tests build exact vectors from ints and strings with it",
    "algebra.poly_quotient_by_linear":
        "synthetic division, the planned independent twin of gkm-check",
    "polytopes.polytope_to_json": "tests write polytope files with it",
    "polytopes.dilate": "the tests' dilation fixtures",
    "gkm.gkm_degree_basis": "README: the degreewise admissible classes",
    "gkm.free_module_check": "README: free-module consistency of the "
                             "degreewise dimensions",
    "localization.euler_class_at": "README: Euler classes at vertices",
}


def _names_used(tree: ast.AST) -> set[str]:
    """Names a module reads or calls, except inside the def of the same
    name (so recursion is not a caller)."""
    used = set()

    def visit(node, defs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs = defs | {node.name}
        if isinstance(node, ast.Name) and node.id not in defs:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defs:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defs)

    visit(tree, frozenset())
    return used


def test_every_public_function_has_a_caller():
    """Public functions and methods, and private module-level functions.
    Exporting a name does not call it; a function that only tests call
    is listed in CALLED_BY_TESTS_ONLY with its reason."""
    used = set()
    defined = []
    for path in [*sorted(SRC.glob("*.py")), *sorted(BENCH.glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _names_used(tree)
        if path.parent != SRC:
            continue
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            defined += [f"{path.stem}.{f.name}" for f in members
                        if isinstance(f, ast.FunctionDef)
                        and (f is node or not f.name.startswith("_"))]
    uncalled = [name for name in defined
                if name.rsplit(".", 1)[1] not in used
                and name not in CALLED_BY_TESTS_ONLY]
    assert not uncalled, f"no caller in src/ or bench/: {', '.join(uncalled)}"
    tested = set().union(*(_names_used(ast.parse(p.read_text(encoding="utf-8")))
                           for p in sorted(TESTS.glob("test_*.py"))))
    stale = [name for name in CALLED_BY_TESTS_ONLY
             if name not in defined or name.rsplit(".", 1)[1] in used
             or name.rsplit(".", 1)[1] not in tested]
    assert not stale, (f"listed as called by tests only, but undefined, "
                       f"called in src/ or bench/, or untested: "
                       f"{', '.join(stale)}")


def _owners(found) -> list[str]:
    """``module.function`` of the innermost def around each node of src/
    for which ``found`` is true, ``module.<module>`` outside any def."""
    owners = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in filter(found, ast.walk(tree)):
            owner = max((d for d in defs
                         if d.lineno <= node.lineno <= d.end_lineno),
                        key=lambda d: d.lineno, default=None)
            owners.append(f"{path.stem}.{owner.name if owner else '<module>'}")
    return owners


def _clears_denominators(node: ast.AST) -> bool:
    """True for a call ``lcm(*(... .denominator ...))``."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lcm"
            and any(isinstance(arg, ast.Starred)
                    and any(isinstance(n, ast.Attribute) and n.attr == "denominator"
                            for n in ast.walk(arg))
                    for arg in node.args))


def test_denominators_are_cleared_in_one_place():
    """The lcm of a vector's denominators is taken by
    ``algebra.clear_denominators`` alone; every other caller uses it."""
    assert _owners(_clears_denominators) == ["algebra.clear_denominators"]


def _makes_a_row(node: ast.AST) -> bool:
    """True for a call ``primitive((*normal, offset))``."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "primitive"
            and bool(node.args) and isinstance(node.args[0], ast.Tuple)
            and any(isinstance(e, ast.Starred) for e in node.args[0].elts))


def test_halfspaces_are_made_in_one_place():
    """Half-spaces have one form: ``from_halfspaces`` takes (normal, offset)
    pairs, with no type test on them, and makes every integer row, the one
    form a ``Polytope`` stores and ``polytope_to_json`` writes back.  No
    ``HalfSpace`` name is left in src/."""
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if "HalfSpace" in p.read_text(encoding="utf-8")] == []
    assert _owners(_makes_a_row) == ["polytopes.from_halfspaces"]
    type_tests = _owners(lambda node: isinstance(node, ast.Call)
                         and getattr(node.func, "id", None) == "isinstance")
    assert "polytopes.from_halfspaces" not in type_tests


def test_admissibility_is_checked_in_one_form():
    """``gkm_check`` returns its failing edges, restricting along the
    graph's lines as ``_degree_system`` does: ``GKMCheckReport`` and
    ``divides_linear`` are gone from src/.  Edge labels have one stored
    form, their lines: a ``MomentGraph`` holds positions, edges, lines and
    the isotropy derived from them, no ``weights`` attribute is read off
    anything but a polytope, and neither ``flip_weights`` nor a stored
    ``incidence`` table is left in src/ or README."""
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if "GKMCheckReport" in p.read_text(encoding="utf-8")
            or "divides_linear" in p.read_text(encoding="utf-8")] == []
    callers = _owners(lambda node: isinstance(node, ast.Call)
                      and getattr(node.func, "id", None)
                      == "restrict_to_hyperplane")
    assert sorted(callers) == ["gkm._degree_system", "gkm.gkm_check"]
    assert [(f.name, f.init, f.compare, f.repr)
            for f in dataclasses.fields(gkm.MomentGraph)] == [
        ("positions", True, True, True), ("edges", True, True, True),
        ("lines", True, True, True), ("isotropy", False, False, False)]
    # a Polytope is P in src/, and its weights are another table
    assert _owners(lambda node: isinstance(node, ast.Attribute)
                   and node.attr == "weights"
                   and getattr(node.value, "id", None) != "P") == []
    # incidence is a local of MomentGraph.__post_init__, never an attribute
    assert _owners(lambda node: isinstance(node, ast.Attribute)
                   and node.attr == "incidence") == []
    assert [p.name for p in [*sorted(SRC.glob("*.py")), README]
            if "flip_weights" in p.read_text(encoding="utf-8")] == []
    assert not re.search(r"`incidence`|\.incidence\b",
                         README.read_text(encoding="utf-8"))


def _builds_a_cone(node: ast.AST) -> bool:
    """True for a call ``PolarizedCone(...)``."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "PolarizedCone")


def test_polar_cones_state_each_fact_once():
    """A cone's sign is read from its open flags, not stored beside them:
    ``PolarizedCone`` has three fields, and src/ builds one only in
    ``polar_decompose``, from three arguments.  A single cone's membership
    is its term of ``signed_indicator_sum``, and a direction pairing to
    zero with an edge is refused as ``NotGenericError``, as it is for a
    weight: ``cone_contains`` and ``NotPolarizingError`` are gone from
    src/ and README."""
    assert [f.name for f in dataclasses.fields(polar.PolarizedCone)] == [
        "apex", "generators", "open_flags"]
    assert isinstance(vars(polar.PolarizedCone)["sign"], property)
    assert [p.name for p in [*sorted(SRC.glob("*.py")), README]
            if "NotPolarizingError" in p.read_text(encoding="utf-8")
            or "cone_contains" in p.read_text(encoding="utf-8")] == []
    assert _owners(_builds_a_cone) == ["polar.polar_decompose"]
    tree = ast.parse((SRC / "polar.py").read_text(encoding="utf-8"))
    assert [len(node.args) + len(node.keywords) for node in ast.walk(tree)
            if _builds_a_cone(node)] == [3]


def _names(module: str) -> set:
    """Every name, attribute, import alias and def name in src/<module>.py."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {getattr(node, "id", getattr(node, "attr", getattr(
        node, "name", None))) for node in ast.walk(tree)}


def test_directions_are_paired_in_one_place():
    """``algebra.pair_direction`` clears a direction once, pairs it with a
    weight table and refuses the first zero: src/ constructs
    ``NotGenericError`` nowhere else, ``polar_decompose``, ``betti_numbers``
    and ``_fixed_point_sum`` pair nothing themselves (no ``mul``), and
    ``localization`` names neither ``as_vec`` nor ``clear_direction``."""
    raises = _owners(lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) == "NotGenericError")
    assert raises == ["algebra.pair_direction"]
    pairs = _owners(lambda node: getattr(node, "id", None) == "mul")
    assert not {"polar.polar_decompose", "gkm.betti_numbers",
                "localization._fixed_point_sum"} & set(pairs)
    assert "algebra.pair_direction" in pairs, "the scan sees the pairings"
    names = _names("localization")
    assert not names & {"as_vec", "clear_direction"}
    assert "pair_direction" in names, "the scan reads localization's names"


def test_linalg_names_fraction_only_in_nullspace():
    """The kernels run on ints: in ``linalg``, ``Fraction`` is named (past
    its import) only where ``nullspace`` builds its output entries."""
    found = _owners(lambda node: isinstance(node, ast.Name)
                    and node.id == "Fraction"
                    or isinstance(node, ast.Attribute) and node.attr == "Fraction")
    assert [o for o in found if o.startswith("linalg.")] == ["linalg.nullspace"]


def test_vertex_loops_call_no_fraction_dot():
    """The per-vertex loops of ``polar``, ``localization`` and ``gkm``
    (``betti_numbers`` and ``facet_class`` among them) pair int weights
    with a cleared point or direction: ``algebra.dot``, a Fraction sum,
    has no caller there."""
    found = _owners(lambda node: isinstance(node, ast.Name) and node.id == "dot"
                    or isinstance(node, ast.Attribute) and node.attr == "dot")
    assert not [o for o in found
                if o.split(".")[0] in ("polar", "localization", "gkm")]
    assert found, "the scan sees the callers left in other modules"


def test_power_sums_take_no_floor_per_point():
    """``polar`` builds each block of a parallelepiped line from one slope
    and the few points where a floor steps: ``floordiv``, the per-point
    floor map, is not named there, not even imported."""
    names = _names("polar")
    assert "floordiv" not in names
    assert {"accumulate", "mul"} <= names, "the scan reads polar's names"


def test_caches_are_bounded():
    """Every ``functools.lru_cache`` in src/ decorates with an explicit
    integer maxsize, and the unbounded ``functools.cache`` decorates only
    functions of bounded arguments: ``polar._bernoulli`` (n at most
    ``MAX_DIMENSION``) and ``cli._build_parser`` (none)."""
    bounded, unbounded = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert not {"cache", "lru_cache"} & {a.name for a in node.names}
            if not (isinstance(node, ast.Attribute) and node.attr in (
                    "cache", "lru_cache")
                    and getattr(node.value, "id", None) == "functools"):
                continue
            if node.attr == "cache":
                owner = parent[node]
                unbounded.append(f"{path.stem}.{getattr(owner, 'name', '?')}")
                continue
            call = parent[node]
            assert isinstance(call, ast.Call) and call.func is node, path.stem
            size = [k.value for k in call.keywords if k.arg == "maxsize"]
            size = call.args[:1] or size
            assert (len(size) == 1 and isinstance(size[0], ast.Constant)
                    and type(size[0].value) is int), path.stem
            bounded.append(f"{path.stem}.{getattr(parent[call], 'name', '?')}")
    assert sorted(unbounded) == ["cli._build_parser", "polar._bernoulli"]
    assert bounded, "the scan sees the lru_cache in algebra"


def test_work_limit_refusals_are_worded_in_one_place():
    """Every work limit is refused through ``errors.check_limit``; only
    ``algebra.format_rat`` words Python's own refusal to print."""
    found = _owners(lambda node: isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and "over the limit of" in node.value)
    assert sorted(set(found)) == ["algebra.format_rat", "errors.check_limit"]


# Each work limit through its public entry: (limit, (value, call) accepted
# at that limit, (value, call) refused with the message).  The limit is a
# module constant, or Python's digit limit for reading and printing.
# _at_and_one_over keeps the call and lowers the limit by one.
CUBE2 = polytopes.cube(2, 1)
TRIANGLE = polytopes.simplex(2, 1)
FORM, X5 = vec(3, Fraction(-1, 2), 2), {(5, 0, 0): Fraction(1)}  # 6 terms
DIGITS = (sys, "int_max_str_digits")


def _at_and_one_over(owner, name, count, call, message):
    return (owner, name), (count, call), (count - 1, call), message


def _pushforward(*monos):
    return lambda: localization.pushforward(
        (dict.fromkeys(monos, Fraction(1)),) * 3, gkm.moment_graph(TRIANGLE),
        vec(1, 2))


WORK_LIMITS = {
    "dimension/cube": _at_and_one_over(
        polytopes, "MAX_DIMENSION", 2, lambda: polytopes.cube(2, 1),
        "dimension 2 is over the limit of 1"),
    "dimension/simplex": _at_and_one_over(
        polytopes, "MAX_DIMENSION", 2, lambda: polytopes.simplex(2, 1),
        "dimension 2 is over the limit of 1"),
    "dimension/from_halfspaces": _at_and_one_over(
        polytopes, "MAX_DIMENSION", 2,
        lambda: polytopes.from_halfspaces(2, TRIANGLE.int_rows),
        "dimension 2 is over the limit of 1"),
    # C(6, 3) + C(6, 2) vertex solves and kernel tests
    "constraint subsets": _at_and_one_over(
        polytopes, "MAX_CONSTRAINT_SUBSETS", 35, lambda: polytopes.cube(3, 1),
        "6 half-spaces in dimension 3 need 35 constraint subsets, over the "
        "limit of 34"),
    "box points": _at_and_one_over(
        polytopes, "MAX_BOX_POINTS", 4,
        lambda: polytopes.lattice_points_oracle(CUBE2),
        "integer box holds 4 points, over the limit of 3"),
    "parallelepiped points": _at_and_one_over(
        polar, "MAX_PARALLELEPIPED_POINTS", 4,
        lambda: polar.signed_lattice_count(
            CUBE2, polar.choose_polarizing_vector(CUBE2),
            polytopes.tight_box(CUBE2)),
        "vertex cones hold 4 parallelepiped points, over the limit of 3"),
    "degree unknowns": _at_and_one_over(
        gkm, "MAX_DEGREE_UNKNOWNS", 8,
        lambda: gkm.gkm_dimension(gkm.moment_graph(CUBE2), 1),
        "degree 1 needs 8 unknowns, over the limit of 7"),
    "class degree": _at_and_one_over(
        gkm, "MAX_CLASS_DEGREE", 3,
        lambda: gkm.gkm_class_from_json(
            gkm.moment_graph(CUBE2),
            {"v0": {"3,0": "1"}, "v1": {}, "v2": {}, "v3": {}}),
        "class has degree 3, over the limit of 2"),
    # the limit is MAX_CLASS_DEGREE ** 2 = 8119^2, and 2 * 5741^2 is one more
    "evaluation work": (
        (gkm, "MAX_CLASS_DEGREE"), (8119, _pushforward((8119, 0))),
        (8119, _pushforward((5741, 0), (0, 5741))),
        "class value at v0 needs evaluation work 65918162 (its squared "
        "monomial degrees, each at least 1000, summed), over the limit of "
        "65918161"),
    "restriction terms": _at_and_one_over(
        algebra, "MAX_RESTRICTION_TERMS", 6,
        lambda: restrict_to_hyperplane(FORM, X5),
        "restricting to the hyperplane of 3,-1/2,2 expands to 6 terms, over "
        "the limit of 5"),
    # about 4 * 6 * 5 bits
    "restriction bits": _at_and_one_over(
        algebra, "MAX_RESTRICTION_BITS", 120,
        lambda: restrict_to_hyperplane(FORM, X5),
        "restricting to the hyperplane of 3,-1/2,2 expands to about 120 "
        "bits, over the limit of 119"),
    "digits": _at_and_one_over(
        *DIGITS, 700, lambda: parse_rat("1" * 700),
        "a number written with 700 digits is over the limit of 699 digits"),
    "exponent": _at_and_one_over(
        *DIGITS, 700, lambda: parse_rat("1e700"),
        "a number written with an exponent over 699 in absolute value is "
        "over the limit of 699 digits"),
    # no count is compared: str() refuses 10^700, 701 digits
    "printing": (DIGITS, None, (700, lambda: format_rat(10 ** 700)),
                 "a rational of about 701 digits is over the limit of 700 "
                 "digits for printing"),
}


@pytest.fixture
def set_limit(monkeypatch):
    """Set a module constant, or Python's digit limit, restored after."""
    digits = sys.get_int_max_str_digits()

    def set_limit(owner, name, value):
        if owner is sys:
            sys.set_int_max_str_digits(value)
        else:
            monkeypatch.setattr(owner, name, value)

    yield set_limit
    sys.set_int_max_str_digits(digits)


@pytest.mark.parametrize("case", WORK_LIMITS)
def test_work_limits_accept_at_and_refuse_one_over(case, set_limit):
    limit, at, over, message = WORK_LIMITS[case]
    if at is not None:
        set_limit(*limit, at[0])
        at[1]()
    set_limit(*limit, over[0])
    with pytest.raises(DomainError) as got:
        over[1]()
    assert str(got.value) == message
