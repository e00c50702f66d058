"""Golden CLI transcripts: stdout, stderr and exit code, compared byte for byte.

Each case in ``CASES`` has one file ``tests/golden/<name>.txt`` holding the
command line, the exit code, and the exact stdout and stderr. Values that
are zero in exact arithmetic print their rounding noise, so these files pin
the order of every floating-point operation on the way to the output. They
were written with the OpenBLAS build of the numpy wheels on x86_64; another
BLAS or CPU may round differently in the last digits.

After an intended output change, rewrite the files with

    PYTHONPATH=src python3 tests/test_cli_golden.py

and review the diff.
"""

from __future__ import annotations

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from heisensim.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

#: name -> (argv, config text or None); ``{config}`` in argv is replaced by
#: the path of a file holding the config text
CASES: dict[str, tuple[list[str], str | None]] = {
    "bell-q": (["bell-q"], None),
    "bell-q-csv-verify": (
        ["bell-q", "--phis", "10", "130", "250", "--format", "csv", "--verify"], None),
    "eprb": (["eprb", "--phi1", "0", "--phi2", "120"], None),
    "eprb-verify": (["eprb", "--phi1", "0", "--phi2", "90", "--verify"], None),
    "eprb-csv-verify": (
        ["eprb", "--phi1", "10", "--phi2", "70", "--theta2", "45", "--format", "csv",
         "--verify"], None),
    "eprb-spin-plain": (
        ["eprb", "--phi1", "0", "--phi2", "120", "--entangled", "false", "--format", "csv"],
        None),
    "eprb-probability": (
        ["eprb", "--phi1", "0", "--phi2", "120", "--beta-preset", "probability"], None),
    "eprb-probability-plain": (
        ["eprb", "--phi1", "30", "--phi2", "200", "--theta1", "60", "--beta-preset",
         "probability", "--entangled", "false", "--format", "csv", "--verify"], None),
    "eprb-config": (
        ["eprb", "--config", "{config}", "--phi2", "90"],
        "[eprb]\nphi1 = 0\nphi2 = 120\nformat = csv\n"),
    "ghzm": (["ghzm", "--phi", "0", "0", "0"], None),
    "ghzm-csv-verify": (["ghzm", "--phi", "0", "0", "0", "--verify", "--format", "csv"], None),
    "ghzm-odd": (
        ["ghzm", "--phi", "0", "90", "90", "--gamma-preset", "odd", "--format", "csv"], None),
    "ghzm-even-plain": (
        ["ghzm", "--phi", "10", "20", "30", "--theta1", "60", "--entangled", "false",
         "--verify"], None),
    "ghzm-odd-plain": (
        ["ghzm", "--phi", "0", "0", "0", "--gamma-preset", "odd", "--entangled", "false",
         "--format", "csv"], None),
    "ghz-table": (["ghz-table"], None),
    "ghz-table-csv-verify": (["ghz-table", "--format", "csv", "--verify"], None),
    "lhv": (["lhv"], None),
    "lhv-eprb": (["lhv", "eprb"], None),
    "lhv-eprb-csv": (["lhv", "eprb", "--format", "csv"], None),
    "lhv-ghz": (["lhv", "ghz"], None),
    "lhv-ghz-csv": (["lhv", "ghz", "--format", "csv"], None),
    "analyze": (["analyze"], None),
    "analyze-csv": (["analyze", "--format", "csv", "--phi1", "30"], None),
    "analyze-eprb-poles": (["analyze", "--theta", "0", "180", "--phi", "0", "0", "--format", "csv"],
                           None),
    "analyze-ghzm-csv": (
        ["analyze", "--experiment", "ghzm", "--phi", "10", "20", "30", "--format", "csv"],
        None),
    "analyze-ghzm-generic": (
        ["analyze", "--experiment", "ghzm", "--theta", "60", "100", "130", "--phi", "10",
         "200", "300", "--format", "csv"], None),
    "analyze-ghzm-poles": (
        ["analyze", "--experiment", "ghzm", "--theta", "0", "90", "180", "--phi", "0", "0", "45",
         "--format", "csv"], None),
    "sweep-eprb": (
        ["sweep", "--config", "{config}"],
        "[sweep]\nexperiment = eprb\nphi1 = 0 60 120\nphi2 = 0\nformat = table\n"),
    "sweep-eprb-verify": (
        ["sweep", "--config", "{config}"],
        "[sweep]\nexperiment = eprb\nphi1 = 0 90\nphi2 = 0 45\nbeta_preset = probability\n"
        "entangled = false\nverify = true\n"),
    "sweep-ghzm-verify": (
        ["sweep", "--config", "{config}", "--verify"],
        "[sweep]\nexperiment = ghzm\nphi1 = 0 90\nphi2 = 0\nphi3 = 0\n"),
    "sweep-ghzm-table": (
        ["sweep", "--config", "{config}", "--format", "table"],
        "[sweep]\nexperiment = ghzm\nphi1 = 0\nphi2 = 0 90\nphi3 = 90\n"
        "gamma_preset = odd\nentangled = false\n"),
    "error-missing-angle": (["eprb", "--phi1", "0"], None),
    "error-phi-shorthand-conflict": (
        ["ghzm", "--phi", "0", "0", "0", "--phi2", "90"], None),
    "error-lhv-csv-both": (["lhv", "--format", "csv"], None),
    "error-config-section": (
        ["eprb", "--config", "{config}"], "[ghzm]\nphi1 = 0\nphi2 = 0\nphi3 = 0\n"),
    "error-verify-tolerance": (
        ["eprb", "--phi1", "0", "--phi2", "90", "--verify", "--tol", "1e-30"], None),
}


def transcript(name: str, workdir: Path) -> str:
    """Run one case in process and render its command line, exit code and streams."""
    argv, config = CASES[name]
    if config is not None:
        path = workdir / f"{name}.cfg"
        path.write_text(config, encoding="utf-8")
        argv = [str(path) if a == "{config}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    shown = " ".join(CASES[name][0])
    return (f"$ sim {shown}\nexit: {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(name, tmp_path) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (GOLDEN_DIR / f"{case}.txt").write_text(transcript(case, Path(tmp)), encoding="utf-8")
    print(f"wrote {len(CASES)} transcripts to {GOLDEN_DIR}", file=sys.stderr)
