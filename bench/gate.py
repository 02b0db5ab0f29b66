"""Closed-form correctness gate for benchmark jobs.

Every expected value here comes from a formula, not from momentkit, so a
job can fail the gate even when the CLI's own oracle twin agrees with the
main path.  Random polytopes have no closed form; for them the gate checks
the vertex count found by the generator's own exact enumeration and
otherwise relies on the CLI oracle's ``ok`` status.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, floor


# ---------------------------------------------------------------------------
# closed forms; ``s`` may be a positive rational dilation factor


def cube_count(n: int, s: Fraction) -> int:
    return (floor(s) + 1) ** n


def simplex_count(n: int, s: Fraction) -> int:
    return comb(n + floor(s), n)


def hirzebruch_count(a: int, k: Fraction) -> int:
    """Lattice points of k * conv{(0,0), (a+1,0), (0,1), (1,1)}.

    For integer k this is (k+1)(k(a+1)+1) - a*k(k+1)/2; for rational k the
    rows y = 0..floor(k) are summed directly.
    """
    if k.denominator == 1:
        k = int(k)
        return (k + 1) * (k * (a + 1) + 1) - a * k * (k + 1) // 2
    return sum(floor((a + 1) * k - a * y) + 1 for y in range(floor(k) + 1))


def gkm_dimension(betti: tuple[int, ...], k: int) -> int:
    """Free-module Hilbert series: sum_j b_j * C(k - j + n - 1, n - 1)."""
    n = len(betti) - 1
    return sum(betti[j] * comb(k - j + n - 1, n - 1)
               for j in range(min(k, n) + 1))


class Shape:
    """A catalog polytope family member with its closed-form invariants."""

    def __init__(self, kind: str, n: int, scale=1, a: int = 0):
        s = Fraction(scale)
        if kind == "cube":
            self.dim, self.vertices = n, 2 ** n
            self.count, self.volume = cube_count(n, s), s ** n
            self.betti = tuple(comb(n, j) for j in range(n + 1))
        elif kind == "simplex":
            self.dim, self.vertices = n, n + 1
            self.count, self.volume = simplex_count(n, s), s ** n / factorial(n)
            self.betti = (1,) * (n + 1)
        elif kind == "hirzebruch":
            self.dim, self.vertices = 2, 4
            self.count = hirzebruch_count(a, s)
            self.volume = s * s * (a + 2) / 2
            self.betti = (1, 2, 1)
        else:
            raise ValueError(f"unknown shape kind {kind!r}")

    def expect(self, command: str, k: int | None = None) -> dict:
        """Expected report fragments for one CLI command on this shape."""
        exp = {"polytope": {"dim": self.dim, "vertices": self.vertices}}
        if command == "validate":
            exp["result"] = {"simple": True, "smooth": True}
        elif command == "decompose":
            exp["cones"] = self.vertices
        elif command == "count":
            exp["result"] = {"count": self.count}
        elif command == "volume":
            exp["result"] = {"volume": self.volume}
        elif command == "betti":
            exp["result"] = {"profile": list(self.betti)}
        elif command == "gkm-dim":
            exp["result"] = {"dimension": gkm_dimension(self.betti, k)}
        elif command == "gkm-check":
            exp["result"] = {"ok": True}
        elif command == "integrate":
            # a facet class has degree 1: it pushes forward to 0 when the
            # dimension exceeds 1, and to 1 on a segment
            exp["result"] = {"value": Fraction(1 if self.dim == 1 else 0)}
        else:
            raise ValueError(f"no expectation for command {command!r}")
        return exp


def shape_from_spec(spec: str) -> Shape:
    """Shape of a builder spec such as ``cube:3:2`` or ``hirzebruch:1``."""
    parts = spec.split(":")
    if parts[0] == "hirzebruch":
        return Shape("hirzebruch", 2, 1, a=int(parts[1]))
    return Shape(parts[0], int(parts[1]), Fraction(parts[2]))


# ---------------------------------------------------------------------------
# the gate


def _same(expected, actual) -> bool:
    if isinstance(expected, Fraction):
        try:
            return Fraction(actual) == expected
        except (TypeError, ValueError, ZeroDivisionError):
            return False
    return expected == actual


def check(expect: dict, code, stdout: str) -> str | None:
    """Return None when the job passed, else a one-line reason.

    A job fails on an exit code other than 0, a report status other than
    ``ok``, or any report field that differs from its expected value.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if report.get("status") != "ok":
        return f"status {report.get('status')!r}"
    for section in ("polytope", "result"):
        for key, want in expect.get(section, {}).items():
            got = (report.get(section) or {}).get(key)
            if not _same(want, got):
                return f"{section}.{key} is {got!r}, expected {want!r}"
    if "cones" in expect:
        got = len(report["result"]["cones"])
        if got != expect["cones"]:
            return f"{got} cones, expected {expect['cones']}"
    return None
