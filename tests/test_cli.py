"""Config parsing, subcommand artifacts, determinism, exit codes."""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risid
import risid.analysis
from risid.channel import path_gain
from risid.cli import (
    PEAK_POWER_CEILING,
    PEAK_POWER_FLOOR,
    SPACINGS,
    ConfigError,
    Scenario,
    default_code_rows,
    default_n_horizontal,
    main,
    parse_config_text,
    rescale,
    scenario_from_config,
)
from risid.codes import build_codebook, codebook_to_text


@st.composite
def scenarios(draw):
    """A valid Scenario."""
    positive = st.floats(min_value=1e-6, max_value=1e15)
    nonnegative = st.floats(min_value=0.0, max_value=1e3)
    m = draw(st.sampled_from((2, 4, 8, 16, 32, 64)))
    rows = draw(st.lists(st.integers(1, m - 1), min_size=1, max_size=min(5, m - 1), unique=True))
    nh = draw(st.integers(1, 16))
    n = nh * draw(st.integers(1, 16))
    f_c, d_ur, d_rb = draw(positive), draw(positive), draw(positive)
    # a power whose mean peak N*P*beta*M lies a decade inside the allowed range
    rest = math.log10(n * path_gain(f_c, d_ur, d_rb) * m)
    p_lo = 10 * (math.log10(PEAK_POWER_FLOOR) + 1 - rest) + 30
    p_hi = 10 * (math.log10(PEAK_POWER_CEILING) - 1 - rest) + 30
    return Scenario(
        m=m,
        v_total=draw(st.integers(1, m - 1)),
        code_rows=tuple(rows),
        n_elements=n,
        n_horizontal=nh,
        spacing=draw(st.sampled_from(SPACINGS)),
        f_c_hz=f_c,
        bandwidth_hz=draw(positive),
        p_dbm=draw(st.floats(max(p_lo, -3000.0), min(p_hi, 3000.0))),
        d_ur_m=d_ur,
        d_rb_m=d_rb,
        r_bar=draw(nonnegative),
        r_bar_grid=tuple(sorted(draw(st.lists(nonnegative, min_size=1, max_size=6)))),
        trials=draw(st.integers(1, 10**7)),
        # half the seeds lie above 2**53, where a float cannot hold every integer
        seed=draw(st.integers(0, 2**32) | st.integers(2**53, 2**64)),
    )


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

    @given(scn=scenarios())
    @settings(max_examples=60, deadline=None)
    def test_echo_parses_back_to_the_scenario(self, scn):
        text = "".join(f"{k} = {v}\n" for k, v in scn.echo().items())
        assert scenario_from_config(parse_config_text(text)) == scn


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

    def test_dependents_follow_only_a_changed_value(self):
        scn = scenario_from_config({
            "m": 16, "v_total": 2, "code_rows": (1, 2), "n_elements": 64, "n_horizontal": 4,
        })
        assert rescale(scn, m=16).v_total == 2
        assert rescale(scn, m=32).v_total == 8 and rescale(scn, m=32).code_rows == (1, 2)
        assert rescale(scn, n_elements=256).n_horizontal == 16


def _bundled_runs():
    """``RUNS`` and ``CONFIG_DIR`` of ``scripts/run_experiments.py``."""
    path = Path(__file__).parents[1] / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RUNS, module.CONFIG_DIR


BUNDLED_RUNS, BUNDLED_CONFIG_DIR = _bundled_runs()


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

    @pytest.mark.parametrize(
        "subcommand, config", BUNDLED_RUNS,
        ids=[config.removesuffix(".txt") for _, config in BUNDLED_RUNS],
    )
    def test_bundled_config(self, tmp_path, subcommand, config):
        """Every (subcommand, config) pair the experiment driver runs succeeds
        and writes the files its manifest lists, with finite numbers only."""
        out = tmp_path / "out"
        argv = [subcommand, "--config", str(BUNDLED_CONFIG_DIR / config), "--out", str(out)]
        assert main(argv + ["--trials", "2000"]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs
        for name in outputs:
            assert (out / name).is_file()
            if not name.endswith(".csv"):
                continue
            lines = (out / name).read_text().splitlines()
            rows = list(csv.reader(l for l in lines if not l.startswith("#")))
            for cell in (c for row in rows[1:] for c in row):
                try:
                    value = float(cell)
                except ValueError:  # a label or an empty theory column
                    continue
                assert math.isfinite(value), (name, cell)

    def test_artifacts_independent_of_worker_and_blas_threads(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(
            "m = 16\ncode_rows = 1, 2\nn_elements = 8\nn_horizontal = 2\n"
            "p_dbm = 20\nr_bar_grid = 3, 4\ntrials = 20000\nseed = 11\n"
        )
        outs = []
        for threads in ("1", "2"):
            for blas in ("1", "2"):
                out = tmp_path / f"threads{threads}_blas{blas}"
                env = dict(
                    os.environ, OPENBLAS_NUM_THREADS=blas,
                    PYTHONPATH=str(Path(risid.__file__).parents[1]),
                )
                subprocess.run(
                    [sys.executable, "-m", "risid.cli", "confusion", "--config", str(cfg),
                     "--out", str(out), "--threads", threads],
                    env=env, check=True, timeout=600,
                )
                outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert "confusion.json" in names
        for out in outs[1:]:
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes()


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
        "subcommand, text, line",
        [
            ("theory", "m = 16\ncode_rows = 1, 20\n", 2),
            ("theory", "m = 16\nn_horizontal = 0\n", 2),
            ("theory", "bandwidth_hz = 0\n", 1),
            ("theory", "m = 16\nd_ur_m = 0\n", 2),
            ("theory", "r_bar_grid = nan\n", 1),
            ("theory", "p_dbm = inf\n", 1),
            ("theory", "trials = 0\n", 1),
            ("theory", "code_rows = 1, 2\nris2_d_rb_m = -5\n", 2),
            ("design", "r_bar = 3\ntarget_pmiss = nan\n", 2),
            ("design", "r_bar = 3\ntarget_pmiss = 2\n", 2),
            ("tradeoff", "code_rows = 1, 2\ntarget_pf = -1\n", 2),
            ("theory", "m = 16\nr_bar = -1\n", 2),
            ("pf-single", "r_bar = -1\n", 1),
            ("pmiss-n", "r_bar = -1\n", 1),
            ("theory", "r_bar_grid = -1, 2\n", 1),
            ("pf-single", "r_bar_grid = -1, 2\n", 1),
            ("theory", "m = 16\nr_bar_grid = 3, 2, 1\n", 2),
            ("pf-single", "r_bar_grid = 3, 2, 1\n", 1),
            ("confusion", "code_rows = 1, 2\ntrials = 2e7\n", 2),
            ("pf-single", "trials = 2e7\n", 1),
            ("pf-single", "m = 16\nm_values = 0\n", 2),
            ("pmiss-n", "m = 16\np_dbm_values = 0, nan\n", 2),
            ("theory", "trials = nan\n", 1),
            ("theory", "l_count = -1\n", 1),
            ("theory", "m = 16\nl_count = 20\n", 2),
            ("pmiss-corr", "p_dbm = 0\nris1_spacing = none\n", 2),
            ("pmiss-n", "n_values = 64, 128\nris1_n_elements = 64\n", 2),
            ("pf-two-np", "code_rows = 1, 2\nris2_n_elements = 128\n", 2),
            ("pmiss-two-np", "code_rows = 1, 2\nris1_n_elements = 128\n", 2),
            ("theory", "m = 16\np_dbm = -4000\n", 2),
            ("pmiss-n", "m = 16\np_dbm = -4000\n", 2),
            ("theory", "m = 16\np_dbm = 4000\n", 2),
            ("pmiss-n", "m = 16\np_dbm = 4000\n", 2),
            ("theory", "m = 16\nd_ur_m = 1e200\n", 2),
            ("pmiss-n", "m = 16\nd_ur_m = 1e200\n", 2),
            ("theory", "m = 16\nd_rb_m = 1e-200\n", 2),
            ("pmiss-n", "m = 16\nd_rb_m = 1e-200\n", 2),
            ("theory", "m = 16\nf_c_hz = 1e300\n", 2),
            ("pmiss-n", "m = 16\nf_c_hz = 1e300\n", 2),
            ("theory", "m = 16\nf_c_hz = 1e-300\n", 2),
            ("pmiss-n", "code_rows = 1, 2\nd_ur_m = 5\nris2_d_ur_m = 1e200\n", 3),
            ("pmiss-n", "m = 16\np_dbm_values = 10, 4000\n", 2),
            ("pf-two-m", "code_rows = 1, 2\nris2_d_ur_m = 3\n", 2),
            ("pmiss-n", "p_dbm = 3000\nd_ur_m = 1e-60\nd_rb_m = 1e-60\n", 1),
            ("confusion", "p_dbm = 3000\nd_ur_m = 1e-60\nd_rb_m = 1e-60\ncode_rows = 1, 2\n", 1),
            ("theory", "m = 16\np_dbm = -3130\n", 2),
            ("design", "m = 16\np_dbm = -3090\ntarget_pmiss = 0.1\n", 2),
        ],
        ids=["code_rows", "n_horizontal", "bandwidth", "distance", "nan_grid",
             "inf_power", "trials", "per_surface", "nan_pmiss_target", "pmiss_target_above_one",
             "negative_pf_target", "negative_r_bar", "negative_r_bar_pf_single",
             "negative_r_bar_pmiss_n", "negative_grid", "negative_grid_pf_single",
             "descending_grid", "descending_grid_pf_single", "trials_above_cap",
             "trials_above_cap_pf_single", "bad_m_sweep", "bad_power_sweep", "nan_trials",
             "negative_l_count", "l_count_above_rows", "pinned_spacing_sweep",
             "pinned_size_sweep", "pinned_size_sweep_pf_two_np", "pinned_size_sweep_pmiss_two_np",
             "power_underflow", "power_underflow_pmiss_n", "power_overflow",
             "power_overflow_pmiss_n", "far_surface", "far_surface_pmiss_n", "near_surface",
             "near_surface_pmiss_n", "high_carrier", "high_carrier_pmiss_n", "low_carrier",
             "far_second_surface_pmiss_n", "bad_power_sweep_overflow", "surface_override",
             "peak_overflow_pmiss_n", "peak_overflow_confusion", "peak_underflow",
             "peak_subnormal_design"],
    )
    def test_cross_field_error_is_two(self, tmp_path, capsys, subcommand, text, line):
        cfg = tmp_path / "c.txt"
        cfg.write_text(text)
        code = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"c.txt:{line}: config error" in capsys.readouterr().err

    def test_trial_flag_above_cap_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("code_rows = 1, 2\n")
        code = main(["confusion", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--trials", "20000000"])
        assert code == 2
        assert "config error: trials" in capsys.readouterr().err

    def test_bad_thread_environment_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RISID_THREADS", "two")
        with pytest.raises(SystemExit) as exit_info:
            main(["theory", "--out", str(tmp_path / "o")])
        assert exit_info.value.code == 2

    def test_large_seed_echoed_unchanged(self, tmp_path):
        code, out = run_cli(tmp_path, "theory", "seed = 9007199254740993\n")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9007199254740993

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
