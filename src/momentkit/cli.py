"""Command-line front end producing reproducible JSON or text reports.

Every numeric result that has an independent oracle is emitted together
with that oracle's answer; a disagreement is never swallowed, it flips the
report status and the exit code.

Exit codes: 0 success, 2 usage error, 3 domain error (empty, unbounded,
non-Delzant, non-generic direction, ...), 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from math import lcm

from . import gkm, localization, polar, polytopes
from .algebra import as_vec, format_rat, parse_rat, vec_to_json
from .errors import MAX_ECHO, DomainError, quoted

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_MISMATCH = 4


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError instead of exiting;
    argparse builds the subparsers with the same class."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# option parsing helpers


def _parse_xi(text: str, dim: int):
    try:
        xi = as_vec(parse_rat(p) for p in text.split(","))
    except DomainError:
        raise
    except ValueError as exc:
        raise UsageError(f"malformed --xi {quoted(text, exc)}") from exc
    if len(xi) != dim:
        raise UsageError(f"--xi has {len(xi)} entries, polytope has dimension {dim}")
    return xi


def _direction(P: polytopes.Polytope, args):
    """``--xi`` when given, else the direction drawn from ``--seed``.

    Both seeded choosers (polarizing vector, generic direction) draw from
    ``generic_vector`` with the same seed and test the same edge lines, so
    one choice serves every command.
    """
    if args.xi is not None:
        return _parse_xi(args.xi, P.dim)
    return polar.choose_polarizing_vector(P, seed=args.seed)


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise UsageError("--seed must fit in an unsigned 64-bit integer")
    return seed


def _check_threads_env() -> None:
    raw = os.environ.get("MOMENTKIT_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"MOMENTKIT_THREADS must be an integer, got {quoted(raw)}")
    if cap < 1:
        raise UsageError("MOMENTKIT_THREADS must be at least 1")
    # computations currently run on a single worker, which respects any cap


def _load_json(path: str, kind: str, parse):
    """``parse`` applied to the JSON in a file; unreadable or malformed
    input becomes a UsageError, while a DomainError passes through."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {kind} file {quoted(path)}: "
                         f"{exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{kind} file {quoted(path)} is not valid JSON: "
                         f"{exc}") from exc
    try:
        return parse(obj)
    except DomainError:
        raise
    except ValueError as exc:
        raise UsageError(f"bad {kind} file {quoted(path)}: {exc}") from exc


def _load_polytope(source: str) -> polytopes.Polytope:
    if ":" in source and not os.path.exists(source):
        return polytopes.from_spec(source)
    return _load_json(source, "polytope", polytopes.polytope_from_json)


def _load_class(path: str, graph: gkm.MomentGraph) -> gkm.GKMClass:
    return _load_json(path, "class",
                      functools.partial(gkm.gkm_class_from_json, graph))


def _polytope_summary(P: polytopes.Polytope) -> dict:
    return {
        "dim": P.dim,
        "vertices": len(P.vertices),
        "edges": len(P.edges),
        "facets": len(P.facets),
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result, oracle, status)


def _cmd_validate(P, args):
    rep = polytopes.smoothness_report(P)
    result = {"simple": rep.simple, "rational": True, "smooth": rep.smooth}
    if not rep.smooth:
        result["reason"] = rep.reason
        if rep.failing_vertex is not None:
            result["vertex"] = vec_to_json(P.vertices[rep.failing_vertex])
        if rep.failing_det is not None:
            result["det"] = format_rat(rep.failing_det)
    return result, None, "ok"


def _sample_points(P: polytopes.Polytope):
    """Small deterministic mix of vertex/edge/interior/exterior probes."""
    table = P.int_vertices
    pts = list(P.vertices)
    for i, j in P.edges:
        (X, d), (Y, e) = table[i], table[j]
        pts.append(tuple(Fraction(x * e + y * d, 2 * d * e)
                         for x, y in zip(X, Y)))
    den = lcm(*(d for _, d in table))
    sums = map(sum, zip(*([x * (den // d) for x in X] for X, d in table)))
    pts.append(tuple(Fraction(s, den * len(table)) for s in sums))
    hi = max(max(v) for v in P.vertices)
    pts.append(tuple(hi + 1 + c for c in range(P.dim)))
    return pts


def _cmd_decompose(P, args):
    xi = _direction(P, args)
    cones = polar.polar_decompose(P, xi)
    result = {
        "xi": vec_to_json(xi),
        "cones": [
            {
                "apex": vec_to_json(c.apex),
                "generators": [vec_to_json(g) for g in c.generators],
                "open_flags": list(c.open_flags),
                "sign": c.sign,
            }
            for c in cones
        ],
    }
    pts = _sample_points(P)
    agree = all(
        polar.signed_indicator_sum(cones, x) == int(P.contains(x)) for x in pts
    )
    oracle = {"indicator_points": len(pts), "agree": agree}
    return result, oracle, "ok" if agree else "oracle-mismatch"


def _cmd_count(P, args):
    xi = _direction(P, args)
    box = polytopes.tight_box(P)
    # the oracle's box is checked before either enumeration starts
    polytopes.check_box_size(polytopes.integer_box(P))
    signed = polar.signed_lattice_count(P, xi, box)
    expected = polytopes.lattice_points_oracle(P)
    result = {
        "count": signed,
        "xi": vec_to_json(xi),
        "box": [f"{lo}..{hi}" for lo, hi in box],
    }
    oracle = {"count": expected}
    return result, oracle, "ok" if signed == expected else "oracle-mismatch"


def _cmd_volume(P, args):
    xi = _direction(P, args)
    retried = args.xi is not None and not polar.is_polarizing(P, xi)
    if retried:
        xi = polar.choose_polarizing_vector(P, seed=args.seed)
    value = localization.volume_localization(P, xi)
    expected = polytopes.volume_oracle(P)
    result = {"volume": format_rat(value), "xi": vec_to_json(xi)}
    if retried:
        result["xi_retried"] = True
    oracle = {"volume": format_rat(expected)}
    return result, oracle, "ok" if value == expected else "oracle-mismatch"


def _cmd_betti(P, args):
    G = gkm.moment_graph(P)
    xi = _direction(P, args)
    profile = gkm.betti_numbers(G, xi)
    result = {"profile": list(profile), "xi": vec_to_json(xi)}
    stable = all(
        gkm.betti_numbers(G, gkm.choose_generic_direction(G, seed=args.seed + s))
        == profile
        for s in (1, 2, 3)
    )
    oracle = {"resampled_directions": 3, "stable": stable}
    return result, oracle, "ok" if stable else "oracle-mismatch"


def _cmd_gkm_check(P, args):
    G = gkm.moment_graph(P)
    cls = _load_class(args.class_file, G)
    failures = gkm.gkm_check(G, cls)
    result = {"ok": not failures,
              "failures": [[G.labels[i] for i in G.edges[k]] for k in failures]}
    return result, None, "ok"


def _cmd_gkm_dim(P, args):
    if args.k < 0:
        raise UsageError("--k must be non-negative")
    G = gkm.moment_graph(P)
    result = {"k": args.k, "dimension": gkm.gkm_dimension(G, args.k)}
    return result, None, "ok"


def _cmd_integrate(P, args):
    G = gkm.moment_graph(P)
    cls = _load_class(args.class_file, G)
    xi = _direction(P, args)
    # pushforward checks the class once; the resamples reuse that check
    value = localization.pushforward(cls, G, xi)
    others = (gkm.choose_generic_direction(G, seed=args.seed + s) for s in (1, 2))
    checks = [localization.fixed_point_value(cls, G, other) for other in others]
    consistent = all(c == value for c in checks)
    result = {"value": format_rat(value), "xi": vec_to_json(xi)}
    oracle = {
        "resampled_values": [format_rat(c) for c in checks],
        "consistent": consistent,
    }
    return result, oracle, "ok" if consistent else "oracle-mismatch"


def _cmd_catalog(P, args):
    return {"specs": polytopes.catalog_specs()}, None, "ok"


# ---------------------------------------------------------------------------
# report rendering


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, list) and all(isinstance(x, str) for x in value):
        return ",".join(value)
    return json.dumps(value)


def _render_text(report: dict) -> str:
    lines = [f"command: {' '.join(report['command'])}"]
    summary = report.get("polytope")
    if summary:
        lines.append(
            "polytope: " + " ".join(f"{k}={v}" for k, v in summary.items())
        )
    for section in ("result", "oracle"):
        payload = report.get(section)
        if not payload:
            continue
        prefix = "" if section == "result" else "oracle."
        for key, value in payload.items():
            if key == "cones":
                for idx, cone in enumerate(value):
                    lines.append(
                        f"cone[{idx}]: apex={_text_value(cone['apex'])} "
                        f"generators={json.dumps(cone['generators'])} "
                        f"open_flags={json.dumps(cone['open_flags'])} "
                        f"sign={cone['sign']:+d}"
                    )
            else:
                lines.append(f"{prefix}{key}: {_text_value(value)}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="momentkit",
        description="Exact computations on rational moment polytopes.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, handler, help_text, polytope=True, xi=False, k=False,
            class_file=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if polytope:
            p.add_argument(
                "polytope",
                help="polytope JSON file, or builder spec like simplex:2:1",
            )
        if xi:
            p.add_argument("--xi", help='direction, comma-separated rationals "a,b,..."')
        if k:
            p.add_argument("--k", type=int, required=True,
                           help="polynomial degree")
        if class_file:
            p.add_argument("--class", dest="class_file", required=True,
                           help="class JSON file (vertex label -> monomial map)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for direction choices")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    add("validate", _cmd_validate, "report the simple/rational/smooth verdicts")
    add("decompose", _cmd_decompose,
        "polarized vertex cones for a chosen direction", xi=True)
    add("count", _cmd_count, "signed lattice count, cross-checked by enumeration",
        xi=True)
    add("volume", _cmd_volume,
        "fixed-point volume, cross-checked by recursive volume", xi=True)
    add("betti", _cmd_betti, "downward-edge profile for a generic direction",
        xi=True)
    add("gkm-check", _cmd_gkm_check,
        "test the divisibility conditions for a class file", class_file=True)
    add("gkm-dim", _cmd_gkm_dim,
        "dimension of the admissible classes in one degree", k=True)
    add("integrate", _cmd_integrate,
        "push a class file forward to a rational number",
        xi=True, class_file=True)
    add("catalog", _cmd_catalog,
        "list the builder specs of the verification catalog", polytope=False)
    return parser


def _parse_args(argv):
    """argparse's reading of ``argv``.  Its errors, at any level, and any
    argument left over are a UsageError that names each long argument, its
    value after "=" and what follows a run of -h flags, by ``quoted``."""
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(map(quoted, extra))}")
    except UsageError as exc:
        message = str(exc)
        for arg in argv:
            for text in (arg, arg.partition("=")[2], arg[1:].lstrip("h")):
                if len(text) > MAX_ECHO:
                    message = message.replace(repr(text), quoted(text))
                    message = message.replace(text, quoted(text))
        raise UsageError(message) from None
    return args


def run(argv, args=None) -> tuple[dict, int]:
    """Execute one command; return the report and the process exit code."""
    if args is None:
        args = _parse_args(argv)
    _check_threads_env()
    _check_seed(args.seed)

    report = {"command": list(argv), "polytope": None}
    P = None
    if args.cmd != "catalog":
        P = _load_polytope(args.polytope)
        report["polytope"] = _polytope_summary(P)
    result, oracle, status = args.handler(P, args)
    report["result"] = result
    report["oracle"] = oracle
    report["status"] = status
    return report, EXIT_OK if status == "ok" else EXIT_MISMATCH


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
        report, code = run(argv, args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(_render_text(report))
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
