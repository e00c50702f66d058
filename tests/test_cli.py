import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heisensim
from heisensim.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from heisensim.config import _SCHEMAS
from heisensim.measure import LabelSum
from heisensim.tensor import Operator


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def value_of(label: str, text: str) -> float:
    for line in text.splitlines():
        if line.strip().startswith(label):
            return float(line.split("=")[-1])
    raise AssertionError(f"{label!r} not found in output:\n{text}")


def scaled(label_sum, factor):
    """The label sum times ``factor``: its first group's stack scaled."""
    (positions, a), *rest = label_sum.groups
    return LabelSum(label_sum.layout, ((positions, a * factor), *rest))


class TestBellQ:
    def test_headline_output(self, capsys):
        code, out, _ = run_cli(["bell-q"], capsys)
        assert code == EXIT_OK
        assert value_of("Q", out) == pytest.approx(1.125, abs=1e-10)
        assert out.count("0.375") == 3

    def test_csv_single_row(self, capsys):
        code, out, _ = run_cli(["bell-q", "--format", "csv"], capsys)
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        header, row = lines
        assert header.split(",")[-1] == "q"
        assert float(row.split(",")[-1]) == pytest.approx(1.125, abs=1e-10)


class TestEprb:
    def test_table_fields(self, capsys):
        code, out, _ = run_cli(
            ["eprb", "--phi1", "0", "--phi2", "120"], capsys
        )
        assert code == EXIT_OK
        assert value_of("P_uu", out) == pytest.approx(0.375, abs=1e-10)
        assert value_of("<B1 B2>", out) == pytest.approx(0.5, abs=1e-10)

    def test_csv_determinism(self, capsys):
        argv = ["eprb", "--phi1", "10", "--phi2", "70", "--format", "csv"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_probability_preset(self, capsys):
        code, out, _ = run_cli(
            ["eprb", "--phi1", "0", "--phi2", "120", "--beta-preset", "probability"],
            capsys,
        )
        assert code == EXIT_OK
        # with outcome values (1, 0) the product mean is the joint
        # spin-up probability itself
        assert value_of("<B1 B2>", out) == pytest.approx(0.375, abs=1e-10)

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[eprb]\nphi1 = 0\nphi2 = 120\nformat = csv\n", encoding="utf-8")
        code, out, _ = run_cli(["eprb", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[-1].endswith("0.375")

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[eprb]\nphi1 = 0\nphi2 = 120\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["eprb", "--config", str(cfg), "--phi2", "0"], capsys
        )
        assert code == EXIT_OK
        assert value_of("P_uu", out) == pytest.approx(0.0, abs=1e-10)

    def test_flag_supplies_a_key_the_config_lacks(self, tmp_path, capsys):
        cfg = tmp_path / "part.cfg"
        cfg.write_text("[eprb]\nphi1 = 0\n", encoding="utf-8")
        code, out, _ = run_cli(["eprb", "--config", str(cfg), "--phi2", "90"], capsys)
        assert code == EXIT_OK
        assert value_of("P_uu", out) == pytest.approx(0.25, abs=1e-10)

    def test_malformed_config_value_names_its_line(self, tmp_path, capsys):
        # the file is typed whole, even where a flag overrides the bad key
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[eprb]\nphi1 = 0\ntol = abc\n", encoding="utf-8")
        code, out, err = run_cli(
            ["eprb", "--config", str(cfg), "--phi2", "90", "--tol", "1e-8"], capsys
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "line 3: tol" in err

    def test_config_is_read_as_utf8_whatever_the_locale(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[eprb]\n# 0\u00b0 and 120\u00b0\nphi1 = 0\nphi2 = 120\n", encoding="utf-8")
        argv = ["eprb", "--config", str(cfg), "--format", "csv"]
        _, expected, _ = run_cli(argv, capsys)
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": str(Path(heisensim.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-m", "heisensim.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert done.stdout == expected

    def test_config_with_byte_order_mark(self, tmp_path, capsys):
        text = "[eprb]\nphi1 = 0\nphi2 = 120\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        outputs = [run_cli(["eprb", "--config", str(cfg), "--format", "csv"], capsys)
                   for cfg in (plain, marked)]
        assert outputs[0][0] == EXIT_OK
        assert outputs[1] == outputs[0]

    def test_unreadable_config_path(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code, out, err = run_cli(["eprb", "--config", str(missing)], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("config error: ") and str(missing) in err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("[eprb]\n# 0\u00b0\nphi1 = 0\nphi2 = 120\n".encode("latin-1"))
        code, out, err = run_cli(["eprb", "--config", str(cfg)], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"config error: cannot read {cfg}: not UTF-8 text")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_ends_quietly(self, unbuffered):
        # the reader is gone before the first write: exit as SIGPIPE would,
        # with nothing on stderr, not as a config error
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": str(Path(heisensim.__file__).parent.parent)}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "heisensim.cli", "eprb", "--phi1", "0", "--phi2", "120"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_mismatched_config_section(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[ghzm]\nphi1 = 0\nphi2 = 0\nphi3 = 0\n", encoding="utf-8")
        code, _, err = run_cli(["eprb", "--config", str(cfg)], capsys)
        assert code == EXIT_USAGE
        assert "does not match" in err

    def test_missing_required_angle(self, capsys):
        code, _, err = run_cli(["eprb", "--phi1", "0"], capsys)
        assert code == EXIT_USAGE
        assert "phi2" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(["eprb", "--warp", "9"], capsys)
        assert code == EXIT_USAGE

    def test_verification_gate(self, capsys):
        ok, _, _ = run_cli(
            ["eprb", "--phi1", "0", "--phi2", "90", "--verify"], capsys
        )
        assert ok == EXIT_OK
        failing, _, err = run_cli(
            ["eprb", "--phi1", "0", "--phi2", "90", "--verify", "--tol", "1e-30"],
            capsys,
        )
        assert failing == EXIT_VERIFY
        assert "verification failed" in err


class TestGhzm:
    def test_phi_shorthand(self, capsys):
        code, out, _ = run_cli(["ghzm", "--phi", "0", "0", "0"], capsys)
        assert code == EXIT_OK
        assert value_of("P_eu", out) == pytest.approx(1.0, abs=1e-10)

    def test_shorthand_conflicts_with_individual_flag(self, capsys):
        code, _, err = run_cli(
            ["ghzm", "--phi", "0", "0", "0", "--phi2", "90"], capsys
        )
        assert code == EXIT_USAGE
        assert "not both" in err

    def test_odd_preset_is_complement(self, capsys):
        _, out, _ = run_cli(
            ["ghzm", "--phi", "0", "90", "90", "--gamma-preset", "odd"], capsys
        )
        assert value_of("P_ou", out) == pytest.approx(1.0, abs=1e-10)


class TestLhv:
    def test_ghz_comparison(self, capsys):
        code, out, _ = run_cli(["lhv", "ghz"], capsys)
        assert code == EXIT_OK
        assert value_of("classical P_eu(0, 0, 0)", out) == 0.0
        assert value_of("quantum   P_eu(0, 0, 0)", out) == pytest.approx(1.0, abs=1e-10)

    def test_eprb_comparison(self, capsys):
        code, out, _ = run_cli(["lhv", "eprb"], capsys)
        assert code == EXIT_OK
        assert value_of("classical maximum Q", out.replace("(witness", "\n")) == 1.0
        assert value_of("quantum Q", out) == pytest.approx(1.125, abs=1e-10)

    def test_quantum_q_is_the_bell_q_value(self, capsys):
        _, lhv_out, _ = run_cli(["lhv", "eprb"], capsys)
        _, bell_out, _ = run_cli(["bell-q"], capsys)
        quantum = [l for l in lhv_out.splitlines() if "quantum Q" in l]
        bell = [l for l in bell_out.splitlines() if l.strip().startswith("Q =")]
        assert [l.split("=")[-1] for l in quantum] == [l.split("=")[-1] for l in bell]

    def test_tolerance_rejected(self, capsys):
        # the instruction-set bounds are exact: a tolerance would change nothing
        code, out, err = run_cli(["lhv", "eprb", "--tol", "7", "--format", "csv"], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert "--tol" in err

    def test_csv_requires_single_target(self, capsys):
        code, _, err = run_cli(["lhv", "--format", "csv"], capsys)
        assert code == EXIT_USAGE
        assert "csv" in err


class TestGhzTable:
    def test_rows(self, capsys):
        code, out, _ = run_cli(["ghz-table", "--format", "csv"], capsys)
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 4
        by_phis = {tuple(r[:3]): (float(r[3]), float(r[4])) for r in rows}
        assert by_phis[("0", "90", "90")][0] == pytest.approx(0.0, abs=1e-10)
        assert by_phis[("0", "0", "0")][0] == pytest.approx(1.0, abs=1e-10)
        for ent, plain in by_phis.values():
            assert plain == pytest.approx(0.5, abs=1e-10)


class TestAnalyze:
    def test_support_chain_in_output(self, capsys):
        code, out, _ = run_cli(["analyze"], capsys)
        assert code == EXIT_OK
        b1_rows = [l for l in out.splitlines() if l.strip().startswith("B1")]
        assert "support=[O1]" in b1_rows[0]
        assert "support=[O1,S1]" in b1_rows[1]
        assert "support=[O1,S1,S2]" in b1_rows[2]

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(["analyze", "--format", "csv"], capsys)
        header = [l for l in out.splitlines() if not l.startswith("#")][0]
        assert header.split(",")[:3] == ["observable", "stage", "support"]

    def test_ghzm_ledger(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--experiment", "ghzm", "--phi", "10", "20", "30"], capsys
        )
        assert code == EXIT_OK
        g_rows = [l for l in out.splitlines() if l.strip().startswith("G ")]
        assert "support=[O0]" in g_rows[0]
        assert "support=[O0,O1,O2,O3,S1,S2,S3]" in g_rows[2]

    @pytest.mark.parametrize("shorthand, flags", [
        (["--phi", "0", "120"], ["--phi1", "0", "--phi2", "120"]),
        (["--theta", "80", "70"], ["--theta1", "80", "--theta2", "70"]),
        (["--experiment", "eprb", "--phi", "30", "200"], ["--phi1", "30", "--phi2", "200"]),
        (["--experiment", "ghzm", "--phi", "10", "20", "30"],
         ["--experiment", "ghzm", "--phi1", "10", "--phi2", "20", "--phi3", "30"]),
    ])
    def test_shorthand_takes_one_angle_per_analyzer(self, shorthand, flags, capsys):
        code, out, _ = run_cli(["analyze", "--format", "csv", *shorthand], capsys)
        assert code == EXIT_OK
        assert out == run_cli(["analyze", "--format", "csv", *flags], capsys)[1]

    @pytest.mark.parametrize("argv, flag, count", [
        (["--phi", "0", "120", "240"], "--phi", 2),
        (["--experiment", "eprb", "--phi", "0"], "--phi", 2),
        (["--theta", "90"], "--theta", 2),
        (["--experiment", "ghzm", "--phi", "10", "20"], "--phi", 3),
        (["--experiment", "ghzm", "--theta", "1", "2", "3", "4"], "--theta", 3),
    ])
    def test_shorthand_of_another_length_names_flag_and_count(self, argv, flag, count, capsys):
        # never filled from the defaults, never cut short
        code, out, err = run_cli(["analyze", "--format", "csv", *argv], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument {flag}: expected {count} values" in err


class TestSweep:
    def test_grid_rows_in_order(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[sweep]\nexperiment = eprb\nphi1 = 0 60 120 180\nphi2 = 0\n",
                       encoding="utf-8")
        code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert [r[1] for r in rows] == ["0", "60", "120", "180"]
        # singlet law along the sweep: -cos(phi1 - phi2)
        for r in rows:
            expected = -math.cos(math.radians(float(r[1])))
            assert float(r[8]) == pytest.approx(expected, abs=1e-10)

    def test_ghzm_grid(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[sweep]\nexperiment = ghzm\nphi1 = 0 90\nphi2 = 0\nphi3 = 0\n",
                       encoding="utf-8")
        code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert [float(r[-1]) for r in rows] == pytest.approx([1.0, 0.5], abs=1e-10)

    def test_requires_config(self, capsys):
        code, _, _ = run_cli(["sweep"], capsys)
        assert code == EXIT_USAGE


class TestInvalidInput:
    def test_nan_tolerance_cannot_disable_verification(self, capsys):
        code, out, err = run_cli(
            ["eprb", "--phi1", "0", "--phi2", "90", "--verify", "--tol", "nan"], capsys
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "tolerance" in err

    @pytest.mark.parametrize("argv, angle", [
        (["eprb", "--phi1", "nan", "--phi2", "0"], "phi"),
        (["eprb", "--phi1", "0", "--phi2", "0", "--theta2", "inf"], "theta"),
    ])
    def test_non_finite_angle_named(self, argv, angle, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert f"angle {angle} must be finite" in err

    def test_analyze_rejects_keys_of_the_other_experiment(self, capsys):
        code, out, err = run_cli(
            ["analyze", "--experiment", "eprb", "--theta3", "5", "--phi3", "77",
             "--format", "csv"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "theta3" in err

    @pytest.mark.parametrize("argv", [
        ["lhv", "eprb", "--verify", "--format", "csv"],
        ["analyze", "--verify", "--format", "csv"],
    ])
    def test_verify_rejected_where_nothing_is_verified(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--verify" in err

    @pytest.mark.parametrize("argv, flag, value", [
        (["eprb", "--phi1", "0", "--phi2", "0", "--entangled", "maybe"], "--entangled", "maybe"),
        (["bell-q", "--format", "xml"], "--format", "xml"),
        (["ghz-table", "--tol", "abc"], "--tol", "abc"),
        (["ghzm", "--phi", "0", "0", "0", "--gamma-preset", "evens"], "--gamma-preset", "evens"),
        (["analyze", "--experiment", "chsh"], "--experiment", "chsh"),
        (["lhv", "bell"], "which", "bell"),
        (["ghzm", "--phi", "0", "x", "0"], "--phi", "x"),
        (["bell-q", "--phis", "0", "120", "y"], "--phis", "y"),
    ])
    def test_bad_flag_value_names_flag_and_value(self, argv, flag, value, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument {flag}:" in err and repr(value) in err

    def test_analyze_echoes_only_its_experiment_keys(self, capsys):
        code, out, _ = run_cli(["analyze", "--format", "csv"], capsys)
        assert code == EXIT_OK
        echo = out.splitlines()[1]
        assert "phi2=120" in echo
        assert "theta3" not in echo and "phi3" not in echo


def flag(key: str) -> str:
    return key if key == "which" else "--" + key.replace("_", "-")


class TestOneInputPath:
    """Flags and config lines are the same keys, typed the same way."""

    SAMPLES = {"entangled": "false", "beta_preset": "probability", "gamma_preset": "odd",
               "format": "csv", "verify": "true", "tol": "1e-08"}

    @staticmethod
    def manifest(argv, monkeypatch):
        import heisensim.cli as cli

        seen = []
        monkeypatch.setattr(cli, "run", lambda manifest: seen.append(manifest) or EXIT_OK)
        assert cli.main(argv) == EXIT_OK
        return seen[0]

    @pytest.mark.parametrize("command, key", [
        (command, key) for command in ("eprb", "ghzm") for key in _SCHEMAS[command]
    ])
    def test_flag_and_config_line_give_one_manifest(self, command, key, tmp_path, monkeypatch):
        text = self.SAMPLES.get(key, "33.5")
        required = [arg for k in _SCHEMAS[command] if k.startswith("phi") and k != key
                    for arg in (flag(k), "10")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{command}]\n{key} = {text}\n", encoding="utf-8")
        by_flag = self.manifest(
            [command, *required, *(["--verify"] if key == "verify" else [flag(key), text])],
            monkeypatch)
        by_line = self.manifest([command, "--config", str(cfg), *required], monkeypatch)
        assert by_flag == by_line
        if not key.startswith("phi"):
            assert by_flag != self.manifest([command, *required], monkeypatch)

    @pytest.mark.parametrize("command", list(_SCHEMAS))
    def test_help_names_a_flag_per_key(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        usage = capsys.readouterr().out
        grid = set(_SCHEMAS["sweep"]) - {"format", "verify", "tol"} if command == "sweep" else ()
        for key in _SCHEMAS[command]:
            assert (flag(key) not in usage) if key in grid else (flag(key) in usage), key


class TestSharedParser:
    def test_runs_leave_the_parser_as_built(self, capsys):
        # main parses every call with one parser built at import: after runs
        # and usage errors, help reads as from a fresh parser and a repeated
        # error reads the same
        from heisensim.cli import build_parser

        first = run_cli(["ghzm", "--bogus"], capsys)
        assert run_cli(["eprb", "--phi1", "0", "--phi2", "90"], capsys)[0] == 0
        assert run_cli(["ghzm", "--bogus"], capsys) == first
        for argv in (["--help"], ["eprb", "--help"], ["sweep", "--help"]):
            with pytest.raises(SystemExit):
                main(argv)
            shared = capsys.readouterr().out
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert capsys.readouterr().out == shared


class TestRunStream:
    def test_run_writes_to_given_stream(self):
        from heisensim.cli import run
        from heisensim.config import finalize_manifest

        buffer = io.StringIO()
        manifest = finalize_manifest("bell-q", {})
        assert run(manifest, buffer) == EXIT_OK
        assert "Q = 1.125" in buffer.getvalue()


class TestVerifyChecksPrintedMeans:
    """``--verify`` compares every printed mean, fixed-eigenvalue ones
    included, with state evolution: a fault in operator evolution alone
    must fail it."""

    @pytest.mark.parametrize("argv, residual", [
        # only p_uu (fixed probability eigenvalues) moves: 0.25 (1 + 1e-6)
        (["eprb", "--phi1", "0", "--phi2", "90", "--verify", "--format", "csv"], 2.5e-7),
        # P_eu = 0.5 here; at (0, 0, 0) it is 1, and 1 + 1e-6 fails the
        # probability check before the verify step runs
        (["ghzm", "--phi", "0", "0", "90", "--verify", "--format", "csv"], 5e-7),
    ])
    def test_scaled_operator_evolution_fails(self, argv, residual, capsys, monkeypatch):
        import heisensim.experiment as experiment

        evolve = experiment.evolve_label_sum
        monkeypatch.setattr(experiment, "evolve_label_sum",
                            lambda op, seq, **kw: scaled(evolve(op, seq, **kw), 1 + 1e-6))
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_VERIFY
        assert "verification failed" in err
        assert float(out.splitlines()[-1].split(",")[-1]) == pytest.approx(residual, rel=1e-3)

    def test_doubled_product_observable_fails(self, capsys, monkeypatch):
        # the state picture applies each named observable in turn, so a
        # product formed wrong is not read back by both pictures alike:
        # <B1 B2> = 0.5 at 120 degrees apart, 1 once doubled
        from heisensim.experiment import Experiment

        observable = Experiment.observable

        def doubled(self, names, eigenvalues):
            op = observable(self, names, eigenvalues)
            return Operator(op.layout, op.matrix * (2 if len(names) == 2 else 1))

        monkeypatch.setattr(Experiment, "observable", doubled)
        argv = ["eprb", "--phi1", "0", "--phi2", "120", "--verify", "--format", "csv"]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_VERIFY
        assert "verification failed" in err
        assert float(out.splitlines()[-1].split(",")[-1]) == pytest.approx(0.5, rel=1e-12)


class TestInternalErrors:
    """A broken invariant is the program's fault: exit 3 with ``internal
    error:``, never the usage-error code 1, and no report on stdout."""

    @pytest.mark.parametrize("argv, module, name, wrap, message", [
        (["ghzm", "--phi", "0", "0", "0"], "experiment", "evolve_label_sum",
         lambda f: lambda op, seq, **kw: scaled(f(op, seq, **kw), 1 + 1e-6j), "imaginary part"),
        # p_uu = 0.5 at antiparallel analyzers, so 1.5 once scaled
        (["eprb", "--phi1", "0", "--phi2", "180"], "experiment", "evolve_label_sum",
         lambda f: lambda op, seq, **kw: scaled(f(op, seq, **kw), 3), "not a probability"),
        # P_eu = 1 at (0, 0, 0), so 3 once scaled
        (["ghzm", "--phi", "0", "0", "0"], "experiment", "evolve_label_sum",
         lambda f: lambda op, seq, **kw: scaled(f(op, seq, **kw), 3), "not a probability"),
        (["eprb", "--phi1", "0", "--phi2", "90", "--verify"], "schrodinger", "_apply",
         lambda f: lambda u, amps, layout: f(u, amps, layout) * 1.001, "norm drifted"),
        (["ghzm", "--phi", "0", "0", "0"], "experiment", "_measurement_blocks",
         lambda f: lambda *args: [Operator(block.layout, block.matrix * 1.001)
                                  for block in f(*args)], "not unitary"),
        # the spin projectors of one direction, up twice or down dropped
        (["ghzm", "--phi", "0", "0", "0"], "experiment", "_spin_stack",
         lambda f: lambda directions: f(directions)[:, [0, 0]], "not orthogonal"),
        (["eprb", "--phi1", "0", "--phi2", "90"], "experiment", "_spin_stack",
         lambda f: lambda directions: f(directions) * [[[1]], [[0]]],
         "does not sum to the identity"),
        # a kernel that put a block on the wrong factors would show as a
        # support outside the light cone; a cone that never grows fakes one
        (["analyze"], "experiment", "light_cone",
         lambda f: lambda labels, seq: frozenset(labels), "outside its light cone"),
        # a NaN mean would otherwise print, with a NaN residual, and pass --verify
        (["ghzm", "--phi", "0", "0", "0", "--verify"], "experiment", "evolve_label_sum",
         lambda f: lambda op, seq, **kw: scaled(f(op, seq, **kw), math.nan), "not finite"),
        # a NaN in a ledger block fails its first read, named by the factor
        (["analyze"], "experiment", "evolve_label_sum",
         lambda f: lambda op, seq, **kw: scaled(f(op, seq, **kw), math.nan),
         "residual on O1 is nan"),
    ], ids=["imaginary-part", "not-a-probability", "ghzm-not-a-probability", "norm-drift",
            "non-unitary-step", "non-orthogonal-spin-projectors", "incomplete-spin-projectors",
            "support-outside-light-cone", "non-finite-mean", "non-finite-ledger"])
    def test_invariant_failure_exits_internal(self, argv, module, name, wrap, message,
                                              capsys, monkeypatch):
        import importlib

        from heisensim.cli import EXIT_INTERNAL

        target = importlib.import_module(f"heisensim.{module}")
        monkeypatch.setattr(target, name, wrap(getattr(target, name)))
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err.startswith("internal error: ") and message in err

    @pytest.mark.parametrize("argv, module, name, fault", [
        (["eprb", "--phi1", "10", "--phi2", "70", "--verify"], "schrodinger", "_apply",
         ValueError("shape-mismatch for sum")),
        (["lhv", "ghz"], "cli", "ghz_constrained_sets", KeyError("up")),
    ], ids=["ValueError", "KeyError"])
    def test_value_error_in_the_program_exits_internal(self, argv, module, name, fault,
                                                       capsys, monkeypatch):
        # bad input never reaches the program as a bare exception, so one
        # raised while running is a fault, not the user's mistake
        import importlib

        from heisensim.cli import EXIT_INTERNAL

        def raise_fault(*args):
            raise fault

        monkeypatch.setattr(importlib.import_module(f"heisensim.{module}"), name, raise_fault)
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (EXIT_INTERNAL, "", f"internal error: {fault}\n")
