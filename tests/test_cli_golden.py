"""CLI reports stay byte-identical: SHA-256 digests of stdout, recorded once.

One case per (command, spec, format, seed) over the catalog specs.  The
digests in ``cli_golden.json`` were recorded from an earlier commit, so a
change that alters the bytes of any report fails here and names the cases.
Class files are written to the working directory and passed by relative
name, so the command line echoed in each report is the same everywhere.

After an intended change of output, record the digests again from the root
of the repository:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from momentkit import cli, facet_class, from_spec, moment_graph
from momentkit.algebra import poly_const
from momentkit.gkm import gkm_class_to_json
from momentkit.polytopes import catalog_specs

GOLDEN = Path(__file__).with_name("cli_golden.json")
# gkm-check gets a class that fails at the edges of vertex 0, so its report
# lists failures; integrate needs an admissible class
COMMANDS = (
    ("validate",),
    ("decompose",),
    ("count",),
    ("volume",),
    ("betti",),
    ("gkm-dim", "--k", "0"),
    ("gkm-dim", "--k", "1"),
    ("gkm-dim", "--k", "2"),
    ("gkm-check", "--class", "point.json"),
    ("integrate", "--class", "facet.json"),
)
FORMATS = {"text": (), "json": ("--json",)}
SEEDS = (0, 7)


def _write_classes(spec: str) -> None:
    P = from_spec(spec)
    G = moment_graph(P)
    point = (poly_const(P.dim, 1),) + ({},) * (len(P.vertices) - 1)
    for name, cls in (("point.json", point),
                      ("facet.json", facet_class(P, G, P.facets[0]))):
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(gkm_class_to_json(G, cls), fh)


def digests() -> dict[str, str]:
    """Case -> SHA-256 of the report on stdout, run in the current directory."""
    out = {}
    for spec in catalog_specs():
        _write_classes(spec)
        for name, *options in COMMANDS:
            for fmt, flags in FORMATS.items():
                for seed in SEEDS:
                    argv = [name, spec, *options, *flags, "--seed", str(seed)]
                    stdout = io.StringIO()
                    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                        cli.main(argv)
                    case = " ".join([name, spec, *options, fmt, f"seed={seed}"])
                    out[case] = hashlib.sha256(
                        stdout.getvalue().encode()).hexdigest()
    return out


def test_cli_reports_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = digests()
    differ = sorted(case for case in recorded.keys() | now.keys()
                    if recorded.get(case) != now.get(case))
    assert not differ, f"{len(differ)} reports differ:\n" + "\n".join(differ)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
        print()
