"""Config parsing, subcommand artifacts, determinism, exit codes."""

import json

import pytest

import risid.analysis
from risid.cli import (
    ConfigError,
    default_code_rows,
    default_n_horizontal,
    main,
    parse_config_text,
    scenario_from_config,
)
from risid.codes import build_codebook, codebook_to_text


class TestConfigParsing:
    def test_minimal_round_trip(self):
        raw = parse_config_text(
            "m = 16\np_dbm = 15\ncode_rows = 15\ntrials = 1000\nseed = 3\n"
        )
        scn = scenario_from_config(raw)
        assert scn.m == 16 and scn.code_rows == (15,) and scn.seed == 3
        assert scn.v_total == 4  # defaults to a quarter of the length

    def test_comments_and_blanks_ignored(self):
        raw = parse_config_text("# header\n\nm = 8  # trailing\n")
        assert raw == {"m": 8}

    def test_unknown_key_line_anchored(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("m = 16\nbogus = 1\n")
        assert err.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("m = 16\nm = 8\n")
        assert err.value.line == 2

    def test_bad_integer_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("trials = 12.5\n")
        assert err.value.line == 1

    def test_scientific_trials_accepted(self):
        raw = parse_config_text("trials = 1e6\n")
        assert raw["trials"] == 1_000_000

    def test_grid_range_syntax(self):
        raw = parse_config_text("r_bar_grid = 1:3:0.5\n")
        assert raw["r_bar_grid"] == (1.0, 1.5, 2.0, 2.5, 3.0)

    def test_grid_list_syntax(self):
        raw = parse_config_text("r_bar_grid = 13, 17, 21\n")
        assert raw["r_bar_grid"] == (13.0, 17.0, 21.0)

    def test_per_ris_override(self):
        raw = parse_config_text("code_rows = 1, 2\nris2_n_elements = 128\n")
        scn = scenario_from_config(raw)
        profs = scn.sim_profiles()
        assert profs[0].n == scn.n_elements and profs[1].n == 128

    def test_codebook_file(self, tmp_path):
        book = build_codebook(16, [1, 2, 4, 8, 9])
        path = tmp_path / "book.txt"
        path.write_text(codebook_to_text(book))
        raw = parse_config_text(f"codebook_file = {path}\n")
        scn = scenario_from_config(raw, tmp_path)
        assert scn.code_rows == (1, 2, 4, 8, 9) and scn.m == 16

    def test_row_zero_rejected_on_load(self):
        with pytest.raises(Exception):
            scenario_from_config({"m": 16, "code_rows": (0, 1)})


class TestDefaults:
    def test_single_surface_row(self):
        assert default_code_rows(1, 16) == (15,)
        assert default_code_rows(1, 32) == (31,)

    def test_multi_surface_rows(self):
        assert default_code_rows(2, 32) == (1, 2)
        assert default_code_rows(5, 16) == (1, 2, 3, 4, 5)

    def test_l_count_drives_default_rows(self):
        scn = scenario_from_config({"m": 32, "l_count": 2})
        assert scn.code_rows == (1, 2)

    def test_n_horizontal(self):
        assert default_n_horizontal(64) == 8
        assert default_n_horizontal(128) == 8
        assert default_n_horizontal(256) == 16

    def test_operating_point_rho_from_code(self):
        scn = scenario_from_config({"m": 16})  # default row 15
        assert scn.operating_point(3.0).rho == 0.5


def run_cli(tmp_path, subcommand, config_text, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "config.txt"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    code = main([subcommand, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


class TestSubcommands:
    def test_theory_reference_bound(self, tmp_path):
        code, out = run_cli(
            tmp_path, "theory",
            "m = 16\ncode_rows = 15\nr_bar_grid = 2, 3, 4\n",
        )
        assert code == 0
        text = (out / "theory.csv").read_text()
        assert text.splitlines()
        row = [l for l in text.splitlines() if l.startswith("3.0,") and "pf_single_bound" in l]
        assert row and float(row[0].split(",")[1]) == pytest.approx(0.005, abs=1e-3)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "theory"
        assert "theory.csv" in manifest["outputs"]

    def test_design_inversion(self, tmp_path):
        code, out = run_cli(
            tmp_path, "design",
            "m = 32\ncode_rows = 31\np_dbm = 10\nr_bar = 3\ntarget_pmiss = 1e-2\n",
        )
        assert code == 0
        doc = json.loads((out / "design.json").read_text())
        assert doc["pmiss_at_raw"] == pytest.approx(1e-2, rel=0.05)
        assert doc["n_required"] >= doc["n_raw"]

    def test_confusion_rerun_byte_identical(self, tmp_path):
        cfg = (
            "m = 16\ncode_rows = 1, 2\nn_elements = 8\nn_horizontal = 2\n"
            "p_dbm = 20\nr_bar_grid = 3, 4\ntrials = 3000\nseed = 11\n"
        )
        _, out1 = run_cli(tmp_path / "a", "confusion", cfg)
        _, out2 = run_cli(tmp_path / "b", "confusion", cfg)
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_pf_single_artifact(self, tmp_path):
        code, out = run_cli(
            tmp_path, "pf-single",
            "m = 8\ncode_rows = 7\nn_elements = 4\nn_horizontal = 2\n"
            "r_bar_grid = 2, 3\ntrials = 2000\nseed = 2\n",
        )
        assert code == 0
        lines = (out / "pf_single.csv").read_text().splitlines()
        header = [l for l in lines if l.startswith("kind,")]
        assert header == ["kind,m,r_bar,value,ci_low,ci_high,events,trials,low_confidence"]
        assert any(l.startswith("mc,8,") for l in lines)
        assert any(l.startswith("bound,8,") for l in lines)

    def test_five_ris_artifact(self, tmp_path):
        code, out = run_cli(
            tmp_path, "five-ris",
            "m = 16\ncode_rows = 1, 2, 4, 8, 9\nn_elements = 8\nn_horizontal = 2\n"
            "p_dbm = 15\nr_bar_grid = 3, 4\ntrials = 2000\nseed = 4\n",
        )
        assert code == 0
        lines = (out / "five_ris.csv").read_text().splitlines()
        assert any(l.startswith("r_bar,avg_pmiss,avg_pf") for l in lines)

    def test_tradeoff_selection(self, tmp_path):
        code, out = run_cli(
            tmp_path, "tradeoff",
            "m = 16\ncode_rows = 1, 2\nn_elements = 32\nn_horizontal = 4\n"
            "p_dbm = 10\nr_bar_grid = 1:30:1\n",
        )
        assert code == 0
        doc = json.loads((out / "tradeoff_selection.json").read_text())
        assert doc["feasible"] is True  # caps default to 1

    def test_seed_and_trials_overrides(self, tmp_path):
        cfg = (
            "m = 8\ncode_rows = 7\nn_elements = 4\nn_horizontal = 2\n"
            "r_bar_grid = 2\ntrials = 1000\nseed = 1\n"
        )
        _, out1 = run_cli(tmp_path / "a", "pf-single", cfg, ("--seed", "9", "--trials", "500"))
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["trials"] == 500


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("m = 16\nbogus = 2\n")
        code = main(["theory", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "c.txt:2" in err

    def test_missing_config_file_is_two(self, tmp_path):
        code = main(["theory", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            ("m = 16\ncode_rows = 1, 20\n", 2),
            ("m = 16\nn_horizontal = 0\n", 2),
            ("bandwidth_hz = 0\n", 1),
            ("m = 16\nd_ur_m = 0\n", 2),
            ("r_bar_grid = nan\n", 1),
            ("p_dbm = inf\n", 1),
            ("trials = 0\n", 1),
            ("code_rows = 1, 2\nris2_d_rb_m = -5\n", 2),
        ],
        ids=["code_rows", "n_horizontal", "bandwidth", "distance", "nan_grid",
             "inf_power", "trials", "per_surface"],
    )
    def test_cross_field_error_is_two(self, tmp_path, capsys, text, line):
        cfg = tmp_path / "c.txt"
        cfg.write_text(text)
        code = main(["theory", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"c.txt:{line}: config error" in capsys.readouterr().err

    def test_numerical_failure_is_three(self, tmp_path, monkeypatch):
        def boom(*a, **kw):
            raise risid.analysis.NumericalFailure("forced", reason="test")

        monkeypatch.setattr(risid.analysis, "pmiss_two", boom)
        cfg = tmp_path / "c.txt"
        cfg.write_text("m = 16\ncode_rows = 1, 2\nr_bar_grid = 2, 3\n")
        code = main(["tradeoff", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_success_is_zero(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("m = 16\ncode_rows = 15\n")
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
