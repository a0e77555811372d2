"""Byte-for-byte golden outputs of the CLI on the shipped configs.

Each case runs ``main()`` in process and compares its stdout with a file
under ``tests/golden/``. The files pin the report bytes across
refactors; regenerate them only for an intended output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from decoyqkd.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

SIX_SCHEMES = (
    "wcs-no-decoy,hsps-no-decoy,wcs-decoy-opt,"
    "hsps-decoy:0.40,hsps-decoy:0.70,ideal-sps"
)

# golden file name -> (argv with {session}, {source}, {rates} and
# {analytic} standing for config paths)
CASES = {
    "session.json": ["session", "--config", "{session}"],
    "session-sigma0.json": ["session", "--config", "{session}", "--sigma", "0"],
    "session-seed1.json": ["session", "--config", "{session}", "--seed", "1"],
    "session-analytic.json": ["session", "--config", "{analytic}"],
    "distribution-source-hsps.json": ["distribution", "--config", "{source}"],
    "distribution-rates.json": ["distribution", "--config", "{rates}"],
    "infer-rates.json": ["infer", "--config", "{rates}"],
    "curve-six-schemes.csv": [
        "curve",
        "--config",
        "{session}",
        "--schemes",
        SIX_SCHEMES,
        "--loss-from",
        "0",
        "--loss-to",
        "60",
        "--loss-step",
        "0.5",
    ],
}


def _paths(workdir: Path) -> dict[str, str]:
    doc = json.loads((CONFIGS / "session-36db.json").read_text(encoding="utf-8"))
    doc["run"]["mode"] = "analytic"
    analytic = workdir / "session-analytic.json"
    analytic.write_text(json.dumps(doc), encoding="utf-8")
    return {
        "session": str(CONFIGS / "session-36db.json"),
        "source": str(CONFIGS / "source-hsps.json"),
        "rates": str(CONFIGS / "rates.json"),
        "analytic": str(analytic),
    }


def _run(name: str, workdir: Path) -> str:
    paths = _paths(workdir)
    argv = [arg.format(**paths) for arg in CASES[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited with {code}"
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, tmp_path):
    expected = (GOLDEN / name).read_bytes()
    assert _run(name, tmp_path).encode("utf-8") == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (GOLDEN / case).write_bytes(_run(case, Path(tmp)).encode("utf-8"))
            print(f"wrote {GOLDEN / case}", file=sys.stderr)
