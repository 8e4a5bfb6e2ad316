"""Byte snapshot of CLI runs: the sha256 of stdout and the exit code.

The multivariate digests in ``cli_snapshot.json`` were recorded before the
lines of a multivariate run were batched, so they pin the per-pair output
bytes, including the ``"feasible"`` endpoints printed as ``np.float64(...)``.
The one-grid digests (1-D ``classify`` at two grid sizes, ``decompose`` and
``verify-theorems`` on the golden 1-D manifest) were recorded before one
grid and a batch of lines shared one Dini block rule.  The golden 2-D
``verify-theorems`` cases on seed 4242 and at ``--tol=1e-8`` were recorded
before T6 and Lpr1 read one set of line batches, whose problems Lpr1 once
built without the user's ``tol``.  The ``--output=text`` and ``dini`` cases
were recorded before the report was written from the result objects' fields.
Record them again with
``PYTHONPATH=src python tests/test_cli_snapshot.py`` only for a change that
means to alter the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from dinicvx import cli, golden_battery, write_manifest

SNAPSHOT = Path(__file__).with_name("cli_snapshot.json")
GOLDEN_1D = [e for e in golden_battery() if e.arity == 1]
GOLDEN_2D = [e for e in golden_battery() if e.arity == 2]
# placeholder argument -> the golden entries written to that manifest
MANIFESTS = {"<manifest>": GOLDEN_2D, "<manifest-1d>": GOLDEN_1D}
SEEDS = (1, 4242)


def cases() -> dict[str, list[str]]:
    """label -> argv; ``<manifest>`` stands for the golden 2-D manifest and
    ``<manifest-1d>`` for the golden 1-D one."""
    out = {}
    for e in GOLDEN_2D:
        for seed in SEEDS:
            out[f"classify/{e.id}/seed{seed}"] = [
                "classify", f"--function={e.expression}", "--arity=2",
                f"--box={'x'.join(e.box)}", "--grid=257", "--pairs=24", f"--seed={seed}"]
    # open faces, values undefined on part of the box, and lines longer
    # than one block of the Dini kernel
    out["classify/open-box"] = ["classify", "--function=x1^2 + x2^2", "--arity=2",
                                "--box=(-1,1]x[-1,1)", "--pairs=24", "--seed=4242"]
    out["classify/sqrt-undefined"] = ["classify", "--function=sqrt(x1) + x2", "--arity=2",
                                      "--box=[-1,1]x[-1,1]", "--pairs=24", "--seed=1"]
    out["classify/cube-x1-fine"] = ["classify", "--function=x1^3", "--arity=2",
                                    "--box=[-1,1]x[-1,1]", "--grid=2049", "--pairs=3"]
    out["verify-theorems/golden-2d"] = ["verify-theorems", "<manifest>", "--seed=1"]
    out["verify-theorems/golden-2d/seed4242"] = ["verify-theorems", "<manifest>", "--seed=4242"]
    out["verify-theorems/golden-2d/tol1e-8"] = ["verify-theorems", "<manifest>", "--tol=1e-8"]
    # several line batches per entry
    out["verify-theorems/golden-2d/pairs200"] = ["verify-theorems", "<manifest>", "--pairs=200"]
    out["verify-theorems/golden-2d/pairs200/seed4242"] = ["verify-theorems", "<manifest>",
                                                          "--pairs=200", "--seed=4242"]
    # one grid: a block of the Dini kernel at 257 points, many at 16385
    for e in GOLDEN_1D:
        for grid in (257, 16385):
            out[f"classify-1d/{e.id}/grid{grid}"] = [
                "classify", f"--function={e.expression}", f"--domain={e.domain}",
                f"--grid={grid}"]
    for label, source in (("sq", "t^2"), ("log", "log(t)")):
        out[f"decompose/{label}"] = ["decompose", f"--function={source}", "--domain=[-1,1]"]
    out["verify-theorems/golden-1d"] = ["verify-theorems", "<manifest-1d>", "--seed=1"]
    # the text renderer, witnesses with their "dini" blocks, and the dini report
    out["classify-1d/cube/text"] = ["classify", "--function=t^3", "--domain=[-1,1]",
                                    "--output=text"]
    out["classify/cube-x1/text"] = ["classify", "--function=x1^3", "--arity=2",
                                    "--box=[-1,1]x[-1,1]", "--pairs=3", "--output=text"]
    out["decompose/plateau/text"] = ["decompose", "--function=max(0, abs(t) - 1)",
                                     "--domain=[-2,2]", "--output=text"]
    for output in ("json", "text"):
        out[f"dini/abs/{output}"] = ["dini", "--function=abs(t)", "--domain=[-1,1]",
                                     "--at=0", "--dir=-1", f"--output={output}"]
    out["verify-theorems/golden-2d/text"] = ["verify-theorems", "<manifest>",
                                             "--output=text"]
    return out


def write_manifests(folder: Path) -> dict[str, Path]:
    paths = {}
    for name, entries in MANIFESTS.items():
        paths[name] = folder / f"{name.strip('<>')}.json"
        write_manifest(tuple(entries), paths[name])
    return paths


def digest(argv: list[str], manifests: dict[str, Path]) -> dict:
    argv = [str(manifests.get(a, a)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def manifests(tmp_path_factory) -> dict[str, Path]:
    return write_manifests(tmp_path_factory.mktemp("snapshot"))


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("label", sorted(cases()))
def test_output_bytes_match_the_snapshot(label, manifests, recorded):
    assert digest(cases()[label], manifests) == recorded[label]


def test_snapshot_covers_every_case(recorded):
    assert sorted(recorded) == sorted(cases())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_manifests(Path(tmp))
        table = {label: digest(argv, paths) for label, argv in sorted(cases().items())}
    sys.stdout.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
