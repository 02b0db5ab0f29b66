"""The package's public surface and the README's library example."""

import ast
import io
import tokenize
from fractions import Fraction
from pathlib import Path

import momentkit

README = Path(__file__).resolve().parent.parent / "README.md"

# Every public name of ``momentkit``; adding or removing one shows here.
PUBLIC_NAMES = [
    "DegenerateInputError", "DomainError", "EmptyRegionError",
    "GKMCheckReport", "HalfSpace", "MomentGraph", "NonSimpleVertexError",
    "NotDelzantError", "NotGenericError", "NotPolarizingError",
    "PolarizedCone", "Poly", "Polytope", "SmoothnessReport",
    "UnboundedRegionError", "Vec", "algebra", "betti_numbers",
    "catalog_specs", "choose_polarizing_vector", "cone_contains", "cube",
    "dilate", "divides_linear", "dot", "errors", "euler_class_at",
    "facet_class", "flip_weights", "free_module_check", "from_halfspaces",
    "from_spec", "generic_vector", "gkm", "gkm_check", "gkm_degree_basis",
    "gkm_dimension", "hirzebruch", "is_polarizing", "lattice_points_oracle",
    "linalg", "localization", "moment_graph", "polar", "polar_decompose",
    "polarize", "poly_quotient_by_linear", "polytopes", "primitive",
    "pushforward", "signed_indicator_sum", "signed_lattice_count", "simplex",
    "smoothness_report", "tight_box", "volume_localization", "volume_oracle",
]


def test_public_names():
    assert sorted(momentkit.__all__) == PUBLIC_NAMES


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
    "polar.cone_contains": "the one membership test of a single cone",
    "gkm.flip_weights": "acceptance criterion 8 flips edge labels with it",
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
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in filter(_clears_denominators, ast.walk(tree)):
            owner = max((d for d in defs
                         if d.lineno <= node.lineno <= d.end_lineno),
                        key=lambda d: d.lineno, default=None)
            found.append(f"{path.stem}.{owner.name if owner else '<module>'}")
    assert found == ["algebra.clear_denominators"]
