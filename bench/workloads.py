"""Seeded inputs and job lists for the four benchmark workloads.

A job is one CLI command, ``momentkit.cli.main(argv)``.  ``prepare`` writes
the input files a workload needs and returns job templates; ``pass_jobs``
turns them into the jobs of one pass, with a ``--seed`` value and an order
derived from the benchmark seed.  The seed changes directions, translations,
facet choices and random cuts, never the sizes that set a job's cost, so
runs with different seeds do comparable work.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from gate import Shape, shape_from_spec

WORKLOADS = {
    "catalog-sweep": "fixed per-job cost: every command on the 21 catalog "
                     "specs, the verification sweep of the tests and README",
    "lattice-dilate": "count on integer and rational dilations: box scanning "
                      "in polar and the lattice oracle dominate, gkm is idle",
    "gkm-degree": "gkm-dim up to k=4, betti and volume: the degree system and its "
                  "dense exact rank dominate, with no box scan",
    "build-ladder": "cube and simplex ladders plus random 3-D polytopes of "
                    "20-40 half-spaces: from_halfspaces and volume_oracle",
}

CATALOG_COMMANDS = ("validate", "decompose", "count", "volume", "betti",
                    "gkm-dim:0", "gkm-dim:1", "gkm-dim:2", "gkm-check",
                    "integrate")
DILATIONS = ("2", "3", "5", "8", "13", "7/2", "19/2")
SMALL_DILATIONS = ("2", "3", "5", "8", "7/2", "19/2")
GKM_SPECS = ("cube:2:1", "cube:3:1", "cube:4:1",
             "simplex:2:1", "simplex:3:1", "simplex:4:1")
# gkm-dim --k 4 on cube:4 alone took half a pass.  Without it a timed run
# holds five passes, so each job runs with five direction seeds and the
# quantiles do not hang on the seeds of one or two heavy jobs.  Without
# volume on cube:4 the top tenth of the jobs reaches into the cluster of
# four jobs at 44-46 ms below it, so job_p90_ms falls inside that cluster,
# not on its single dearest sample, and oracle_s sums eight small oracle
# calls instead of resting on one.
GKM_SKIPPED = ("gkm-dim:4 cube:4:1", "volume cube:4:1")
LADDER_SPECS = tuple(f"cube:{n}:1" for n in range(2, 7)) + tuple(
    f"simplex:{n}:1" for n in range(2, 6))
# half-space counts of the random 3-D polytopes in one build-ladder pass.
# The jobs on the two 40-half-space polytopes are the pass's top tenth with
# `volume cube:6`, well clear of the 20-half-space counts; a single
# 30-half-space polytope in their place cost as much as those counts, and
# job_p90_ms then hung on which of them came out dearer.
RANDOM_SIZES = (20,) * 14 + (40, 40)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    expect: dict


def _seed_of(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def pass_jobs(templates: list[Job], seed: int, index: int) -> list[Job]:
    """Jobs of pass ``index``: the templates with a derived ``--seed``, in a
    seeded order."""
    rng = _seed_of("pass", seed, index)
    jobs = [Job(t.name, t.argv + ("--seed", str(rng.randrange(2**32)), "--json"),
                t.expect) for t in templates]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# polytope files


def _write_polytope(path: str, dim: int, halfspaces) -> str:
    obj = {"dim": dim, "halfspaces": [
        {"normal": [str(c) for c in normal], "offset": str(Fraction(offset))}
        for normal, offset in halfspaces]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def hirzebruch_halfspaces(a: int, k: Fraction, shift: tuple[int, int]):
    """k * hirzebruch(a) translated by an integer vector."""
    base = [((1, 0), 0), ((0, 1), 0), ((0, -1), -1), ((-1, -a), -(a + 1))]
    return [(n, k * b + n[0] * shift[0] + n[1] * shift[1]) for n, b in base]


def _shift(rng: random.Random, dim: int) -> tuple[int, ...]:
    return tuple(rng.randint(-50, 50) for _ in range(dim))


# ---------------------------------------------------------------------------
# random 3-D polytopes


def _det3(r0, r1, r2) -> int:
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def simple_vertex_count(halfspaces) -> int | None:
    """Vertices of {x : <n, x> >= b} when every vertex is tight on exactly
    three constraints, else None.

    Integer Cramer's rule over all constraint triples; independent of
    momentkit, so the count doubles as a check on its vertex enumeration.
    """
    m = len(halfspaces)
    normals = [n for n, _ in halfspaces]
    offsets = [b for _, b in halfspaces]
    count = 0
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                a0, a1, a2 = normals[i], normals[j], normals[k]
                d = _det3(a0, a1, a2)
                if d == 0:
                    continue
                b = (offsets[i], offsets[j], offsets[k])
                # x = num / d by Cramer's rule: column c replaced by b
                num = [_det3(*(row[:c] + (bi,) + row[c + 1:]
                               for row, bi in zip((a0, a1, a2), b)))
                       for c in range(3)]
                if d < 0:
                    d, num = -d, [-x for x in num]
                tight = 0
                for n, off in halfspaces:
                    s = n[0] * num[0] + n[1] * num[1] + n[2] * num[2] - off * d
                    if s < 0:
                        break
                    tight += s == 0
                else:
                    if tight != 3:
                        return None
                    count += 1
    return count


def random_polytope(rng: random.Random, m: int):
    """The box [-10, 10]^3 cut by m - 6 random integer half-spaces.

    Cuts have primitive normals with entries in [-4, 4] and lie 2 to 8
    units from the origin, which stays strictly inside; many constraints
    end up redundant.  Draws with a vertex on more than three planes are
    rejected, so the polytope is simple and ``count`` never refuses it.
    Returns the half-spaces and the vertex count.
    """
    box = []
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        box += [(e, -10), (tuple(-c for c in e), -10)]
    while True:
        cuts, seen = [], set()
        while len(cuts) < m - 6:
            n = tuple(rng.randint(-4, 4) for _ in range(3))
            if sum(c != 0 for c in n) < 2 or gcd(*n) != 1 or n in seen:
                continue
            seen.add(n)
            reach = rng.uniform(2.0, 8.0) * sum(c * c for c in n) ** 0.5
            cuts.append((n, -round(reach)))
        halfspaces = box + cuts
        vertices = simple_vertex_count(halfspaces)
        if vertices is not None:
            return halfspaces, vertices


# ---------------------------------------------------------------------------
# workloads


def _spec_jobs(spec: str, commands) -> list[Job]:
    shape = shape_from_spec(spec)
    return [_job(c, spec, shape) for c in commands]


def _job(command: str, source: str, shape: Shape, label: str = "") -> Job:
    name, _, k = command.partition(":")
    argv = (name, source) + (("--k", k) if k else ())
    tag = label or source
    return Job(f"{command} {tag}", argv,
               shape.expect(name, int(k) if k else None))


def _catalog(seed: int, outdir: str) -> list[Job]:
    from momentkit import gkm, polytopes

    rng = _seed_of("catalog", seed)
    jobs = []
    for spec in polytopes.catalog_specs():
        P = polytopes.from_spec(spec)
        G = gkm.moment_graph(P)
        facet = rng.choice(P.facets)
        path = os.path.join(outdir, f"class-{spec.replace(':', '_')}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(gkm.gkm_class_to_json(G, gkm.facet_class(P, G, facet)), fh)
        shape = shape_from_spec(spec)
        for command in CATALOG_COMMANDS:
            job = _job(command, spec, shape)
            if command in ("gkm-check", "integrate"):
                job = Job(job.name, job.argv + ("--class", path), job.expect)
            jobs.append(job)
    return jobs


def _hirzebruch_file(rng, outdir: str, a: int, k: str) -> tuple[str, Shape]:
    factor = Fraction(k)
    path = os.path.join(outdir, f"hirzebruch{a}-x{k.replace('/', '_')}.json")
    _write_polytope(path, 2, hirzebruch_halfspaces(a, factor, _shift(rng, 2)))
    return path, Shape("hirzebruch", 2, factor, a=a)


def _lattice_dilate(seed: int, outdir: str) -> list[Job]:
    rng = _seed_of("lattice", seed)
    jobs = []
    for a in (1, 2, 3):
        for k in DILATIONS:
            path, shape = _hirzebruch_file(rng, outdir, a, k)
            jobs.append(_job("count", path, shape, f"hirzebruch:{a} x{k}"))
    for family in ("cube:2", "cube:3", "simplex:2", "simplex:3"):
        for k in SMALL_DILATIONS:
            jobs += _spec_jobs(f"{family}:{k}", ["count"])
    # ROADMAP reference point: count on hirzebruch:2 dilated x200
    path, shape = _hirzebruch_file(rng, outdir, 2, "200")
    jobs.append(_job("count", path, shape, "hirzebruch:2 x200"))
    return jobs


def _gkm_degree(seed: int, outdir: str) -> list[Job]:
    rng = _seed_of("gkm", seed)
    commands = [f"gkm-dim:{k}" for k in range(5)] + ["betti", "volume"]
    jobs = []
    for spec in GKM_SPECS:
        jobs += [job for job in _spec_jobs(spec, commands)
                 if job.name not in GKM_SKIPPED]
    for a in (1, 2, 3):
        path, shape = _hirzebruch_file(rng, outdir, a, "1")
        jobs += [_job(c, path, shape, f"hirzebruch:{a}") for c in commands]
    return jobs


def _build_ladder(seed: int, outdir: str) -> list[Job]:
    rng = _seed_of("ladder", seed)
    jobs = []
    for spec in LADDER_SPECS:
        jobs += _spec_jobs(spec, ["validate", "volume"])
    for idx, m in enumerate(RANDOM_SIZES):
        halfspaces, vertices = random_polytope(rng, m)
        path = _write_polytope(os.path.join(outdir, f"random{idx}-m{m}.json"),
                               3, halfspaces)
        fragment = {"polytope": {"dim": 3, "vertices": vertices}}
        label = f"random{idx}:m{m}"
        jobs.append(Job(f"validate {label}", ("validate", path),
                        dict(fragment, result={"simple": True})))
        jobs.append(Job(f"count {label}", ("count", path), fragment))
    return jobs


_PREPARE = {
    "catalog-sweep": _catalog,
    "lattice-dilate": _lattice_dilate,
    "gkm-degree": _gkm_degree,
    "build-ladder": _build_ladder,
}


def prepare(workload: str, seed: int, outdir: str) -> list[Job]:
    """Write the workload's input files under ``outdir``; return its jobs."""
    os.makedirs(outdir, exist_ok=True)
    return _PREPARE[workload](seed, outdir)


def warmup_jobs(templates: list[Job]) -> list[Job]:
    """One cheap job per command the workload uses, run before timing so
    first-call costs stay out of the measurement."""
    shape = shape_from_spec("simplex:2:1")
    out = []
    for command in dict.fromkeys(t.argv[0] for t in templates):
        if command in ("gkm-check", "integrate"):
            continue  # these need a class file
        k = ("--k", "1") if command == "gkm-dim" else ()
        out.append(Job(f"warmup {command}",
                       (command, "simplex:2:1") + k + ("--json",),
                       shape.expect(command, 1 if k else None)))
    return out
