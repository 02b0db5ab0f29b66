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
    "gkm_dimension", "hirzebruch", "is_polarizing", "is_simple", "is_smooth",
    "lattice_points_oracle", "linalg", "localization", "moment_graph",
    "ordinary_betti", "polar", "polar_decompose", "polarize",
    "poly_quotient_by_linear", "polytopes", "primitive", "pushforward",
    "pushforward_degree_vanishing", "signed_indicator_sum",
    "signed_lattice_count", "simplex", "smoothness_report", "tangent_cone",
    "tight_box", "volume_localization", "volume_oracle",
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
