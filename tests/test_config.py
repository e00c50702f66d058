import pytest

from heisensim.config import ConfigError, finalize_manifest, parse_config

MINIMAL_EPRB = """
[eprb]
phi1 = 0
phi2 = 120
"""


class TestParse:
    def test_minimal_section_gets_defaults(self):
        m = parse_config(MINIMAL_EPRB)
        assert m.command == "eprb"
        assert m.parameters["entangled"] is True
        assert m.parameters["theta1"] == 90.0
        assert m.parameters["beta_preset"] == "spin"
        assert m.output_format == "table"
        assert m.verify is False
        assert m.tolerance == 1e-10

    def test_comments_and_blank_lines(self):
        m = parse_config("# leading comment\n\n[eprb]\nphi1 = 0  # inline\nphi2 = 120\n")
        assert m.parameters["phi1"] == 0.0

    def test_malformed_assignment_reports_line(self):
        text = "[eprb]\nphi1 = 0\ntheta1 = = 5\nphi2 = 120\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(text)

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[eprb]\nphi1 = 0\nphi2 = 0\nwobble = 3\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[secrets]\nx = 1\n")

    def test_key_before_section(self):
        with pytest.raises(ConfigError, match="before any section"):
            parse_config("phi1 = 0\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[eprb]\nphi1 = 0\nphi1 = 1\nphi2 = 0\n")

    def test_two_sections_rejected(self):
        with pytest.raises(ConfigError, match="one section"):
            parse_config("[eprb]\nphi1 = 0\nphi2 = 0\n[ghzm]\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="phi2"):
            parse_config("[eprb]\nphi1 = 0\n")

    def test_empty_document(self):
        with pytest.raises(ConfigError, match="no section"):
            parse_config("# nothing here\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="true or false"):
            parse_config("[eprb]\nphi1 = 0\nphi2 = 0\nentangled = yes\n")

    def test_sweep_lists(self):
        m = parse_config(
            "[sweep]\nexperiment = eprb\nphi1 = 0 30 60\nphi2 = 0\n"
        )
        assert m.command == "sweep"
        assert m.parameters["phi1"] == (0.0, 30.0, 60.0)
        assert m.parameters["theta1"] == (90.0,)
        assert m.output_format == "csv"

    def test_sweep_rejects_inapplicable_keys(self):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config("[sweep]\nexperiment = eprb\nphi1 = 0\nphi2 = 0\nphi3 = 0\n")
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config(
                "[sweep]\nexperiment = ghzm\nphi1 = 0\nphi2 = 0\nphi3 = 0\nbeta_preset = spin\n"
            )

    def test_beta_preset_values(self):
        m = parse_config("[eprb]\nphi1 = 0\nphi2 = 0\nbeta_preset = probability\n")
        assert m.parameters["beta_preset"] == "probability"


class TestFinalize:
    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            finalize_manifest("teleport", {})

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            finalize_manifest("bell-q", {"spin": 1})

    def test_nonpositive_tolerance(self):
        # a NaN tolerance would make every residual comparison false
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="tolerance"):
                finalize_manifest("bell-q", {"tol": tol})

    def test_bell_q_needs_three_azimuths(self):
        with pytest.raises(ConfigError, match="three"):
            finalize_manifest("bell-q", {"phis": (0.0, 120.0)})

