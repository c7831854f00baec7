"""Config parsing, subcommand artifacts, determinism, exit codes."""

import csv
import importlib.util
import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risid
import risid.analysis
from risid import cli, montecarlo
from risid.channel import path_gain
from risid.cli import (
    PEAK_POWER_CEILING,
    PEAK_POWER_FLOOR,
    SPACINGS,
    ConfigError,
    Scenario,
    default_n_horizontal,
    main,
    parse_config_text,
    scenario_from_config,
)

import outputs
from conftest import fresh_python


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
        seed=draw(st.integers(0, 2**32) | st.integers(2**53, 2**64 - 1)),
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

    @pytest.mark.parametrize("token, value", [
        ("9007199254740993.0", 9007199254740993),  # a float holds only ...992
        ("1.2345678901234567e18", 1234567890123456700),  # a float holds ...768
    ])
    def test_integral_float_form_read_exactly(self, token, value):
        assert parse_config_text(f"seed = {token}\n") == {"seed": value}

    @pytest.mark.parametrize("token", ["9999999.0000000001", "1e-400", "1e400", "abc", ""])
    def test_integer_with_a_fraction_or_no_finite_value_rejected(self, token):
        with pytest.raises(ConfigError, match=re.escape(f"expected an integer, got '{token}'")) as err:
            parse_config_text(f"m = 16\ntrials = {token}\n")
        assert err.value.line == 2

    def test_readme_config_block_sets_every_key(self):
        """The config reference in README's CLI section names every key the parser knows."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"^```\n(m = .*?)^```", readme, re.MULTILINE | re.DOTALL)
        assert parse_config_text(block).keys() == cli._KEYS.keys()

    def test_grid_range_syntax(self):
        raw = parse_config_text("r_bar_grid = 1:3:0.5\n")
        assert raw["r_bar_grid"] == (1.0, 1.5, 2.0, 2.5, 3.0)

    def test_grid_list_syntax(self):
        raw = parse_config_text("r_bar_grid = 13, 17, 21\n")
        assert raw["r_bar_grid"] == (13.0, 17.0, 21.0)

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
        """Without code rows, one surface takes row m-1."""
        assert scenario_from_config({}).code_rows == (15,)
        assert scenario_from_config({"m": 32}).code_rows == (31,)

    def test_field_defaults_are_the_implied_values(self):
        """Scenario's own v_total, code_rows and n_horizontal are those its m and n_elements imply."""
        assert Scenario() == scenario_from_config({})

    def test_n_horizontal(self):
        assert default_n_horizontal(64) == 8
        assert default_n_horizontal(128) == 8
        assert default_n_horizontal(256) == 16

    def test_operating_point_rho_from_code(self):
        scn = scenario_from_config({"m": 16})  # default row 15
        assert scn.operating_point(3.0).rho == 0.5

    def test_dependents_follow_their_key_unless_the_config_sets_them(self):
        """The config with new values in place of their keys (a pass) keeps what the config sets;
        each field it leaves out follows its key's new value."""
        bare = {"m": 16, "code_rows": (1, 2), "n_elements": 64}
        full = bare | {"v_total": 2, "n_horizontal": 4}
        assert scenario_from_config(bare | {"m": 32, "n_elements": 256}).v_total == 8
        assert scenario_from_config(bare | {"n_elements": 256}).n_horizontal == 16
        scn = scenario_from_config(full | {"m": 32, "n_elements": 256})
        assert (scn.v_total, scn.code_rows, scn.n_horizontal) == (2, (1, 2), 4)


def _experiments_script():
    """``scripts/run_experiments.py``, loaded as a module."""
    path = Path(__file__).parents[1] / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXPERIMENTS = _experiments_script()
BUNDLED_RUNS, BUNDLED_CONFIG_DIR = EXPERIMENTS.RUNS, EXPERIMENTS.CONFIG_DIR
PERFBENCH_CONFIG_DIR = Path(__file__).parents[1] / "perfbench" / "configs"
# Every config the repository ships, the benchmark's copies included.
SHIPPED_CONFIGS = sorted(BUNDLED_CONFIG_DIR.glob("*.txt")) + sorted(PERFBENCH_CONFIG_DIR.glob("*.txt"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS,
                         ids=[f"{path.parent.parent.name}/{path.name}" for path in SHIPPED_CONFIGS])
def test_shipped_config_loads(path):
    assert isinstance(scenario_from_config(parse_config_text(path.read_text())), Scenario)


# Each shipped config -> the subcommand it runs under: the bundled ones by run_experiments.py's
# rule, the benchmark's copies by their file stem.
SHIPPED_SUBCOMMANDS = {BUNDLED_CONFIG_DIR / name: sub for sub, name in BUNDLED_RUNS} \
    | {path: path.stem for path in sorted(PERFBENCH_CONFIG_DIR.glob("*.txt"))}


@pytest.mark.parametrize("path", SHIPPED_CONFIGS,
                         ids=[f"{path.parent.parent.name}/{path.name}" for path in SHIPPED_CONFIGS])
def test_shipped_config_sets_only_keys_its_subcommand_reads(path):
    keys = set(parse_config_text(path.read_text()))
    assert keys <= cli.COMMANDS[SHIPPED_SUBCOMMANDS[path]].reads


@pytest.mark.parametrize("name", outputs.CLI_RUNS)
def test_output_gate_run_loads(name):
    """Each of the output gate's CLI runs parses, sets only keys its subcommand reads, builds
    with its flags, and has a row count its subcommand runs; no pass is run."""
    subcommand, text, flags = outputs.CLI_RUNS[name]
    cmd = cli.COMMANDS[subcommand]
    raw = parse_config_text(text)
    assert set(raw) <= cmd.reads
    scenario = scenario_from_config(raw | flags)
    assert cmd.surfaces[0] <= scenario.l_count <= cmd.surfaces[1]


# Label column -> (sweep key, two values); spacing has no key and runs over SPACINGS.
_M, _N, _P = ("m_values", (8, 16)), ("n_values", (4, 8)), ("p_dbm_values", (10.0, 20.0))
_SPACING = (None, SPACINGS)

# subcommand, CSV name, label columns, r_bar column, theory row kind
MC_SWEEPS = [
    ("pf-single", "pf_single.csv", {"m": _M}, True, "bound"),
    ("pmiss-corr", "pmiss_corr.csv", {"spacing": _SPACING, "p_dbm": _P}, False, "theory"),
    ("pmiss-m", "pmiss_m.csv", {"m": _M, "p_dbm": _P}, False, "theory"),
    ("pmiss-n", "pmiss_n.csv", {"n": _N, "p_dbm": _P}, False, "theory"),
    ("pf-two-m", "pf_two_m.csv", {"m": _M}, True, "theory"),
    ("pf-two-np", "pf_two_np.csv", {"n": _N, "p_dbm": _P}, True, "theory"),
    ("pmiss-two-m", "pmiss_two_m.csv", {"m": _M}, True, "theory"),
    ("pmiss-two-np", "pmiss_two_np.csv", {"n": _N, "p_dbm": _P}, True, "theory"),
]
SIMULATING = [case[0] for case in MC_SWEEPS] + ["confusion", "five-ris"]
MC_CONFIG = ("m = 8\ncode_rows = {rows}\nn_elements = 4\nn_horizontal = 2\nr_bar = 2\n"
             "r_bar_grid = 2, 3\ntrials = 1000\nseed = 5\n")


def _rows_text(subcommand):
    """The code rows 1..L of the L surfaces ``subcommand`` runs, as a config value."""
    return ", ".join(map(str, range(1, cli.COMMANDS[subcommand].surfaces[0] + 1)))


# label column -> the Scenario field it varies
_LABEL_FIELDS = {"m": "m", "n": "n_elements", "p_dbm": "p_dbm", "spacing": "spacing"}

# subcommand -> closed form of its theory rows, from a pass's scenario and operating point
CLOSED_FORMS = {
    "pf-single": lambda scn, op: risid.analysis.pf_single_bound(op),
    **dict.fromkeys(("pmiss-corr", "pmiss-m", "pmiss-n"),
                    lambda scn, op: risid.analysis.pmiss_single(op)),
    **dict.fromkeys(("pf-two-m", "pf-two-np"),
                    lambda scn, op: risid.analysis.pf_two(op, scn.pair_pmf(1, 2))),
    **dict.fromkeys(("pmiss-two-m", "pmiss-two-np"),
                    lambda scn, op: risid.analysis.pmiss_two(op, scn.pair_pmf(1, 2).a_tilde)),
}


def run_cli(tmp_path, subcommand, config_text, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "config.txt"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    code = main([subcommand, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def _run_mc_sweep(tmp_path, subcommand, name, labels):
    """Header and rows of ``name`` from ``subcommand`` on ``MC_CONFIG`` with the subcommand's
    code rows and each label's sweep key (``MC_SWEEPS``) set to its two values."""
    sweeps = "".join(
        f"{key} = {', '.join(str(v) for v in values)}\n"
        for key, values in labels.values() if key
    )
    code, out = run_cli(tmp_path, subcommand, MC_CONFIG.format(rows=_rows_text(subcommand)) + sweeps)
    assert code == 0
    lines = (out / name).read_text().splitlines()
    return list(csv.reader(l for l in lines if not l.startswith("#")))


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

    def test_theory_kinds_in_order_over_the_grid(self, tmp_path):
        """A two-row run writes each curve once over the whole grid: the single-surface pair,
        then the two-surface pair."""
        code, out = run_cli(tmp_path, "theory", "m = 16\ncode_rows = 1, 2\nr_bar_grid = 1, 2.5, 4\n")
        assert code == 0
        lines = [l for l in (out / "theory.csv").read_text().splitlines() if not l.startswith("#")]
        header, *rows = list(csv.reader(lines))
        kinds = ["pf_single_bound", "pmiss_single", "pf_two", "pmiss_two_lower"]
        assert header == ["r_bar", "value", "kind", "M", "N", "P_dBm"]
        assert [row[2] for row in rows] == [kind for kind in kinds for _ in range(3)]
        assert [row[0] for row in rows] == ["1.0", "2.5", "4.0"] * 4

    def test_design_inversion(self, tmp_path):
        code, out = run_cli(
            tmp_path, "design",
            "m = 32\ncode_rows = 31\np_dbm = 10\nr_bar = 3\ntarget_pmiss = 1e-2\n",
        )
        assert code == 0
        doc = json.loads((out / "design.json").read_text())
        assert doc["pmiss_at_raw"] == pytest.approx(1e-2, rel=0.05)
        assert doc["n_required"] == math.ceil(doc["n_raw"])

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

    @pytest.mark.parametrize(
        "subcommand, name, labels, over_grid, theory_kind", MC_SWEEPS,
        ids=[case[0] for case in MC_SWEEPS],
    )
    def test_mc_row_layout(self, tmp_path, subcommand, name, labels, over_grid, theory_kind):
        """Per label combination, in product order with the first column
        outermost: one mc row per threshold, then one theory row per threshold
        whose five last cells are empty."""
        header, *rows = _run_mc_sweep(tmp_path, subcommand, name, labels)
        r_col = ["r_bar"] if over_grid else []
        assert header == ["kind", *labels, *r_col, "value", "ci_low", "ci_high", "events",
                          "trials", "low_confidence"]
        expected = []
        for combo in itertools.product(*(values for _, values in labels.values())):
            cells = [str(v) for v in combo]
            per_threshold = [cells + [rb] for rb in ("2.0", "3.0")] if over_grid else [cells]
            expected += [["mc"] + c for c in per_threshold]
            expected += [[theory_kind] + c for c in per_threshold]
        assert [row[:1 + len(labels) + len(r_col)] for row in rows] == expected
        for row in rows:
            assert len(row) == len(header)
            if row[0] == "mc":
                assert "" not in row
            else:
                assert row[-5:] == [""] * 5 and row[-6] != ""

    @pytest.mark.parametrize(
        "subcommand, name, labels, over_grid, theory_kind", MC_SWEEPS,
        ids=[case[0] for case in MC_SWEEPS],
    )
    def test_theory_rows_hold_the_closed_form(self, tmp_path, subcommand, name, labels,
                                              over_grid, theory_kind):
        """Every theory row equals its closed form taken straight from ``analysis`` at the
        row's point: the config with the row's label values in place of their keys, at its
        threshold."""
        header, *rows = _run_mc_sweep(tmp_path, subcommand, name, labels)
        raw = parse_config_text(MC_CONFIG.format(rows=_rows_text(subcommand)))
        expected = []
        for combo in itertools.product(*(values for _, values in labels.values())):
            scn = scenario_from_config(raw | {_LABEL_FIELDS[c]: v for c, v in zip(labels, combo)})
            for rb in scn.r_bar_grid if over_grid else (scn.r_bar,):
                expected.append(CLOSED_FORMS[subcommand](scn, scn.operating_point(rb)))
        value = header.index("value")
        assert [float(row[value]) for row in rows if row[0] == theory_kind] == expected

    @pytest.mark.parametrize("subcommand", SIMULATING)
    def test_memory_rule_checks_the_passes_run(self, tmp_path, monkeypatch, subcommand):
        """The pass-memory rule sees exactly the (m, v_total, code rows, correlated
        elements) of the passes the run starts, with every sweep key the subcommand reads set."""
        checked, run = set(), set()
        pass_bytes, run_blocks = montecarlo.pass_bytes, montecarlo._run_blocks

        def spy_bytes(m, v_total, rows, threads=1, n=0):
            if threads == 2:  # the passes' checks, not the retired one-worker check at load
                checked.add((m, v_total, tuple(rows), n))
            return pass_bytes(m, v_total, rows, threads, n)

        def spy_run(plan, *args):
            scn, prof = plan.scenario, plan.scenario.sim_profiles()[0]
            run.add((scn.m, scn.v_total, scn.code_rows, prof.n if prof.gain_weights is not None else 0))
            return run_blocks(plan, *args)

        monkeypatch.setattr(montecarlo, "pass_bytes", spy_bytes)
        monkeypatch.setattr(montecarlo, "_run_blocks", spy_run)
        sweeps = {"m_values": "8, 16", "n_values": "4, 16", "p_dbm_values": "10, 20"}
        code, _ = run_cli(
            tmp_path, subcommand,
            f"m = 8\ncode_rows = {_rows_text(subcommand)}\nn_elements = 4\nn_horizontal = 2\nspacing = half-lambda\n"
            "r_bar = 2\nr_bar_grid = 2, 3\ntrials = 200\n"
            + "".join(f"{key} = {v}\n" for key, v in sweeps.items() if key in cli.COMMANDS[subcommand].reads),
            ("--threads", "2"),
        )
        assert code == 0
        assert run and checked == run

    def test_sweep_pass_keeps_the_rows_the_config_sets(self, tmp_path, monkeypatch):
        """Each pass is the config with the sweep value in place of its key: the config's
        code_rows = 5 runs at both lengths, and v_total, which it leaves out, follows m."""
        run = set()
        run_blocks = montecarlo._run_blocks

        def spy_run(plan, *args):
            run.add((plan.scenario.m, plan.scenario.v_total, plan.scenario.code_rows))
            return run_blocks(plan, *args)

        monkeypatch.setattr(montecarlo, "_run_blocks", spy_run)
        code, _ = run_cli(tmp_path, "pf-single", "code_rows = 5\nn_elements = 4\nn_horizontal = 2\n"
                          "r_bar_grid = 3\ntrials = 100\nm_values = 16, 32\n")
        assert code == 0
        assert run == {(16, 4, (5,)), (32, 8, (5,))}

    # five_ris.csv of the config below, from the per-surface tally the joint counts replaced
    FIVE_RIS_ROWS = {
        3.0: [0.09886126035965649, 0.17990680964401048, 0.12855740922473013, 0.10208126858275521,
              0.12133072407045009, 0.07244995233555768, 0.0698869475847893, 0.0509683995922528,
              0.07467204843592332, 0.11860940695296524, 0.2891692954784437, 0.3661148977604674],
        4.0: [0.19892767805689657, 0.05673423642888775, 0.2198233562315996, 0.20614469772051536,
              0.22015655577299412, 0.16968541468064824, 0.17882836587872558, 0.009174311926605505,
              0.004036326942482341, 0.02147239263803681, 0.11461619348054679, 0.13437195715676728],
    }

    def test_five_ris_artifact(self, tmp_path):
        """One row per grid entry, a repeated one included, each value as pinned."""
        code, out = run_cli(
            tmp_path, "five-ris",
            "m = 16\ncode_rows = 1, 2, 4, 8, 9\nn_elements = 8\nn_horizontal = 2\n"
            "p_dbm = 15\nr_bar_grid = 3, 3, 4\ntrials = 2000\nseed = 4\n",
        )
        assert code == 0
        lines = [l for l in (out / "five_ris.csv").read_text().splitlines() if not l.startswith("#")]
        header, *rows = list(csv.reader(lines))
        assert header[:3] == ["r_bar", "avg_pmiss", "avg_pf"] and len(header) == 13
        assert [[float(v) for v in row] for row in rows] == [
            [rb] + self.FIVE_RIS_ROWS[rb] for rb in (3.0, 3.0, 4.0)]

    def test_tradeoff_selection(self, tmp_path):
        code, out = run_cli(
            tmp_path, "tradeoff",
            "m = 16\ncode_rows = 1, 2\nn_elements = 32\nn_horizontal = 4\n"
            "p_dbm = 10\nr_bar_grid = 1:30:1\n",
        )
        assert code == 0
        doc = json.loads((out / "tradeoff_selection.json").read_text())
        assert doc["feasible"] is True  # caps default to 1

    def test_trivial_caps_always_feasible(self, tmp_path):
        """With no caps set, every threshold meets both: the picks are the grid's two ends."""
        code, out = run_cli(tmp_path, "tradeoff", "m = 16\ncode_rows = 1, 2\nr_bar_grid = 1:6:0.5\n")
        assert code == 0
        doc = json.loads((out / "tradeoff_selection.json").read_text())
        assert (doc["pf_cap"], doc["pmiss_cap"], doc["feasible"]) == (1.0, 1.0, True)
        pick = {"r_bar_for_pf_cap": 1.0, "r_bar_for_pmiss_cap": 6.0, "feasible": True}
        assert doc["per_surface"] == {"ris1": pick, "ris2": pick}

    def test_infeasible_is_flagged_not_raised(self, tmp_path):
        """Caps no threshold meets exit 0 with every flag false and no miss pick."""
        _, text, _ = outputs.CLI_RUNS["tradeoff-infeasible"]
        code, out = run_cli(tmp_path, "tradeoff", text)
        assert code == 0
        doc = json.loads((out / "tradeoff_selection.json").read_text())
        assert doc["feasible"] is False
        pick = {"r_bar_for_pf_cap": 1.0, "r_bar_for_pmiss_cap": None, "feasible": False}
        assert doc["per_surface"] == {"ris1": pick, "ris2": pick}

    @pytest.mark.parametrize("config", ["bundled", "infeasible"])
    def test_tradeoff_picks_follow_the_curves(self, tmp_path, config):
        """Each surface's picks and flag, and the run's flag, recomputed from ``tradeoff.csv``
        and the caps: the smallest threshold within the false cap, the largest within the miss
        cap, and whether one threshold meets both."""
        if config == "bundled":
            text = (BUNDLED_CONFIG_DIR / "tradeoff.txt").read_text()
        else:
            text = outputs.CLI_RUNS["tradeoff-infeasible"][1]
        code, out = run_cli(tmp_path, "tradeoff", text)
        assert code == 0
        doc = json.loads((out / "tradeoff_selection.json").read_text())
        raw = parse_config_text(text)
        assert (doc["pf_cap"], doc["pmiss_cap"]) == (raw["target_pf"], raw["target_pmiss"])
        lines = [l for l in (out / "tradeoff.csv").read_text().splitlines() if not l.startswith("#")]
        curves = {}
        for kind, rb, value in list(csv.reader(lines))[1:]:
            curves.setdefault(kind, []).append((float(rb), float(value)))
        picks = {}
        for surf in ("ris1", "ris2"):
            pf, pm = curves[f"pf_two_{surf}"], curves[f"pmiss_two_{surf}"]
            assert [rb for rb, _ in pf] == [rb for rb, _ in pm] == list(raw["r_bar_grid"])
            pf_met = [rb for rb, v in pf if v <= doc["pf_cap"]]
            pm_met = [rb for rb, v in pm if v <= doc["pmiss_cap"]]
            picks[surf] = {
                "r_bar_for_pf_cap": min(pf_met, default=None),
                "r_bar_for_pmiss_cap": max(pm_met, default=None),
                "feasible": any(f <= doc["pf_cap"] and m <= doc["pmiss_cap"]
                                for (_, f), (_, m) in zip(pf, pm)),
            }
        assert doc["per_surface"] == picks
        assert doc["feasible"] is all(pick["feasible"] for pick in picks.values())
        if config == "infeasible":
            assert doc["feasible"] is False and picks["ris1"]["r_bar_for_pmiss_cap"] is None

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

    def test_bundled_configs_independent_of_worker_count(self, tmp_path):
        for subcommand, config in BUNDLED_RUNS:
            got = []
            for threads in ("1", "2"):
                out = tmp_path / config.removesuffix(".txt") / threads
                argv = [subcommand, "--config", str(BUNDLED_CONFIG_DIR / config), "--out", str(out),
                        "--trials", "2000", "--threads", threads]
                assert main(argv) == 0
                got.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert got[0] == got[1], config

    def test_every_bundled_config_runs_under_exactly_one_subcommand(self):
        """A config named after no subcommand, or after two, would drop out of ``RUNS`` or run
        twice; each runs once, under the subcommand its stem names."""
        configs = sorted(p.name for p in BUNDLED_CONFIG_DIR.iterdir())
        assert sorted(config for _, config in BUNDLED_RUNS) == configs

    def test_run_experiments_only_runs_the_named_subcommands(self, tmp_path, capsys):
        assert EXPERIMENTS.main(["--out", str(tmp_path), "--only", "theory", "design"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["design", "theory"]
        assert "2 runs, 0 failed" in capsys.readouterr().out

    def test_run_experiments_rejects_an_unknown_only_name(self, tmp_path, capsys):
        """A config name is not a subcommand name: a usage error, not a run of nothing."""
        with pytest.raises(SystemExit) as exc:
            EXPERIMENTS.main(["--out", str(tmp_path / "out"), "--only", "pf_single"])
        assert exc.value.code == 2
        assert "invalid choice: 'pf_single'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
                fresh_python("-m", "risid.cli", "confusion", "--config", str(cfg), "--out", str(out),
                             "--threads", threads, env={"OPENBLAS_NUM_THREADS": blas}, timeout=600)
                outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert "confusion.json" in names
        for out in outs[1:]:
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes()


FIVE_ROWS_2048 = (1, 2, 4, 8, 9)  # five surfaces at m = 2048, v_total = 16: 0.88 GiB at one worker
FIVE_ROWS_2048_TEXT = ", ".join(map(str, FIVE_ROWS_2048))
PASS_RULE = "GiB per simulation pass"  # in every message of the pass-memory rule


class TestExitCodes:
    def test_each_subcommand_reads_the_scenario_fields_and_its_own_keys(self):
        fields = set(Scenario.__dataclass_fields__) - {"trials"}
        assert {name: cmd.reads - fields for name, cmd in cli.COMMANDS.items()} == {
            "pf-single": {"trials", "m_values"},
            "pmiss-corr": {"trials", "p_dbm_values"},
            "pmiss-m": {"trials", "m_values", "p_dbm_values"},
            "pmiss-n": {"trials", "n_values", "p_dbm_values"},
            "pf-two-m": {"trials", "m_values"},
            "pf-two-np": {"trials", "n_values", "p_dbm_values"},
            "pmiss-two-m": {"trials", "m_values"},
            "pmiss-two-np": {"trials", "n_values", "p_dbm_values"},
            "tradeoff": {"target_pf", "target_pmiss"},
            "confusion": {"trials"},
            "five-ris": {"trials"},
            "theory": set(),
            "design": {"target_pmiss"},
        }
        assert {"seed", "r_bar", "r_bar_grid"} <= fields

    @pytest.mark.parametrize("subcommand, text, line, key", [
        ("pmiss-m", "m = 16\nn_values = 16, 64\n", 2, "n_values"),
        ("theory", "code_rows = 1, 2\ntrials = 500\n", 2, "trials"),
        ("design", "target_pmiss = 0.01\ntarget_pf = 0.1\n", 2, "target_pf"),
        ("pf-single", "p_dbm_values = 10, 20\nr_bar_grid = 1, 2\nm_values = 8\n", 1, "p_dbm_values"),
    ], ids=["pmiss_m_n_values", "theory_trials", "design_target_pf", "pf_single_p_dbm_values"])
    def test_key_the_subcommand_does_not_read_exits_2(self, tmp_path, capsys, monkeypatch,
                                                      subcommand, text, line, key):
        monkeypatch.chdir(tmp_path)
        Path("c.txt").write_text(text)
        assert main([subcommand, "--config", "c.txt", "--out", "o", "--trials", "10"]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == f"c.txt:{line}: config error: {subcommand} does not read {key}"
        assert not Path("o").exists()

    def test_config_error_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("m = 16\nbogus = 2\n")
        code = main(["theory", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "c.txt:2" in err

    @pytest.mark.parametrize("subcommand, text, line, want", [
        ("theory", f"m = {2**1100}\n", 1, "m must be in 2..4096, got 135829852904... (332 digits)"),
        ("theory", "n_elements = 1e300\n", 1,
         "element count 100000000000... (301 digits) not divisible by row length 818347651974... "
         "(150 digits)"),
        ("theory", "m = 1e300\n", 1,
         "sequence length must be a power of two, got 100000000000... (301 digits)"),
        ("pf-two-np", "code_rows = 1, 2\np_dbm_values = 10, 20\nn_values = 64, 1e300\n", 3,
         "n_values at n_elements = 100000000000... (301 digits), p_dbm = 10.0: element count"),
        ("theory", "m = 24\n", 1, "sequence length must be a power of two, got 24"),
    ], ids=["m_1100_bits", "n_elements_1e300", "m_1e300", "sweep_n_values_1e300", "m_24"])
    def test_long_integer_shown_by_leading_digits(self, tmp_path, capsys, monkeypatch,
                                                   subcommand, text, line, want):
        monkeypatch.chdir(tmp_path)
        Path("c.txt").write_text(text)
        assert main([subcommand, "--config", "c.txt", "--out", "o"]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"c.txt:{line}: config error: {want}") and len(err) < 300
        assert not Path("o").exists()

    @pytest.mark.parametrize("text, line, want", [
        ("spacing = bogus\n", 1,
         "spacing must be one of ('none', 'half-lambda', 'tenth-lambda'), got 'bogus'"),
        ("code_rows = 3, 3\n", 1, "code_rows must be distinct, got (3, 3)"),
        ("bandwidth_hz = 1e-300\n", 1,
         "bandwidth_hz must be positive with a noise variance of at least 2.23e-308 W, got 1e-300"),
        ("m = 16\nv_total = 20\nspacing = bogus\n", 3,
         "spacing must be one of ('none', 'half-lambda', 'tenth-lambda'), got 'bogus'"),
    ], ids=["spacing", "code_rows", "bandwidth", "single_key_before_cross_field"])
    def test_single_key_rule_names_the_value(self, tmp_path, capsys, monkeypatch, text, line, want):
        """A rule one key's value decides prints the bound table's form, ``<key> must be <rule>,
        got <value>``, and is reported before any rule that combines keys."""
        monkeypatch.chdir(tmp_path)
        Path("c.txt").write_text(text)
        assert main(["theory", "--config", "c.txt", "--out", "o"]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == f"c.txt:{line}: config error: {want}"
        assert not Path("o").exists()

    @pytest.mark.parametrize("data, line, offset", [
        (b"\xff\xfem = 16\n", 1, 0),
        (b"m = 16  # 5 \xc2\xb5s\r\n# caf\xe9\n", 2, 22),
        (b"m = 16\rcode_rows = 15\xc2\n", 2, 21),
        (b"\xef\xbb\xbfm = 16\n\xff", 2, 10),
    ], ids=["utf16_mark", "latin1_comment", "cut_sequence", "after_utf8_mark"])
    def test_non_utf8_config_is_two(self, tmp_path, capsys, data, line, offset):
        """A config is read as UTF-8 whatever the locale; an undecodable byte exits 2 at its line,
        counted as the parser counts lines, and at its offset in the file, a leading UTF-8
        byte-order mark included."""
        cfg = tmp_path / "c.txt"
        cfg.write_bytes(data)
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{cfg}:{line}: config error: not UTF-8: ")
        assert err.endswith(f" at byte {offset}\n")
        assert not (tmp_path / "o").exists()

    def test_utf8_comment_is_read(self, tmp_path):
        code, _ = run_cli(tmp_path, "theory", "m = 16  # 5 µs\ncode_rows = 15  # café\n")
        assert code == 0

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        """A UTF-8 byte-order mark before the first key is not part of it: the run writes the
        artifacts of the same config without the mark."""
        got = []
        for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            cfg = tmp_path / f"{name}.txt"
            cfg.write_bytes(mark + b"m = 16\n")
            assert main(["theory", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            got.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert got[0] == got[1]

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
            ("pmiss-n", "m = 16\nr_bar = 1e200\n", 2),
            ("theory", "m = 16\nr_bar_grid = 1, 1e200\n", 2),
            ("pf-single", "m = 16\nr_bar_grid = 1, 1e200\n", 2),
            ("design", "r_bar = 3\ntarget_pmiss = 1e-310\n", 2),
            ("design", "r_bar = 3\ntarget_pmiss = 1e-300\np_dbm = -100\n", 2),
            ("design", "r_bar = 1e154\ntarget_pmiss = 0.5\np_dbm = -2900\n", 2),
            ("design", "r_bar = 0\ntarget_pmiss = 0.5\n", 2),
            ("confusion", "code_rows = 1, 2\nseed = -1\n", 2),
            ("confusion", "code_rows = 1, 2\nseed = 18446744073709551616\n", 2),
            ("theory", "m = 16\nr_bar_grid = 0:1e308:1e-10\n", 2),
            ("theory", "m = 16\nr_bar_grid = 0:1e12:1\n", 2),
            ("theory", "m = 16\nr_bar_grid = 0:nan:1\n", 2),
            ("pf-single", "m = 16\nm_values = " + ", ".join(["16"] * 10001) + "\n", 2),
            ("pmiss-n", "m = 16\np_dbm_values = " + ", ".join(["10"] * 10001) + "\n", 2),
            ("pf-two-m", "m = 16\ncode_rows = 15\n", 2),
            ("pmiss-two-np", "m = 16\nl_count = 1\n", 2),
            ("tradeoff", "code_rows = 3\nm = 16\n", 1),
            ("confusion", "m = 16\ncode_rows = 1, 2, 3\n", 2),
            ("pf-two-m", "m = 16\ncode_rows = 1, 2, 3\n", 2),
            ("tradeoff", "m = 16\ncode_rows = 1, 2, 3\n", 2),
            ("five-ris", "l_count = 4\nm = 16\n", 1),
            ("confusion", "code_rows = 1, 2\ntrials = 3\nr_bar_grid = 3\n", 2),
            ("confusion", "code_rows = 1, 2\nr_bar_grid = 3, 3.0000001\ntrials = 100\n", 2),
            ("five-ris", "m = 16\ncode_rows = 1, 2, 4, 8, 9\n"
                         "n_elements = 128\np_dbm = 15\nr_bar_grid = 6, 6, 9\ntrials = 3\n"
                         "seed = 111\n", 6),
            ("pf-two-np", "code_rows = 1, 2\np_dbm_values = 10, 2830\n"
                          "n_values = 64, 1099511627776\n", 2),
            ("theory", "n_elements = 18\n", 1),
            ("pf-two-m", "m = 16\n", 1),
            ("theory", "l_count = 2\n", 1),
            ("theory", f"codebook_file = {BUNDLED_CONFIG_DIR / 'codebook_set1.txt'}\n", 1),
            ("pf-single", "m = 16\nv_total = 12\nm_values = 8, 16\n", 3),
            ("pf-single", "m = 16\ncode_rows = 15, 3\ntrials = 1000\n", 2),
            ("pf-single", "code_rows = 1, 2\nm = 8\nm_values = 8, 16\ntrials = 1000\n", 1),
            ("pmiss-corr", "code_rows = 1, 2\np_dbm = 10\ntrials = 1000\n", 1),
            ("pmiss-corr", "m = 8\nspacing = half-lambda\ncode_rows = 7, 1\ntrials = 1000\n", 3),
            ("pmiss-m", "m = 16\ncode_rows = 15, 3\nm_values = 16, 32\ntrials = 1000\n", 2),
            ("pmiss-m", "code_rows = 1, 2\ntrials = 1000\n", 1),
            ("pmiss-n", "m = 16\ncode_rows = 15, 3\ntrials = 1000\n", 2),
            ("pmiss-n", "n_values = 16, 64\ncode_rows = 1, 2\ntrials = 1000\n", 2),
            ("design", "m = 32\ncode_rows = 31, 1\ntarget_pmiss = 0.01\n", 2),
            ("design", "target_pmiss = 0.01\ncode_rows = 1, 2\n", 2),
            ("theory", "m = 16\ncode_rows = 1, 2, 3\n", 2),
            ("theory", "code_rows = 1, 2, 4, 8, 9\nm = 16\n", 1),
            ("theory", "m = 8\nr_bar_grid = 2, 3\ncode_rows = 7, 6, 5\n", 3),
            ("theory", "bandwidth_hz = 1e-305\n", 1),
            ("pmiss-two-np", "code_rows = 1, 2\nbandwidth_hz = 1e-305\n", 2),
            ("confusion", "code_rows = 1, 2\nbandwidth_hz = 1e-305\n", 2),
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
             "peak_subnormal_design", "huge_r_bar_pmiss_n", "huge_grid", "huge_grid_pf_single",
             "subnormal_target_design", "underflowing_size_design", "overflowing_size_design",
             "zero_threshold_design", "negative_seed", "seed_above_64_bits",
             "overflowing_range", "long_range", "nan_range", "long_int_list",
             "long_float_list", "one_surface_pf_two_m", "one_surface_from_l_count_pmiss_two_np",
             "one_surface_tradeoff", "three_surfaces_confusion", "three_surfaces_pf_two_m",
             "three_surfaces_tradeoff",
             "four_surfaces_from_l_count_five_ris", "empty_true_state_confusion",
             "clashing_file_names_confusion", "surface_never_silent_five_ris",
             "power_overflow_of_a_sweep_combination",
             "default_row_length_off_elements", "one_default_row_pf_two_m",
             "retired_l_count_key", "retired_codebook_file_key",
             "set_pad_budget_beside_m_sweep", "two_surfaces_pf_single",
             "two_surfaces_m_sweep_pf_single", "two_surfaces_pmiss_corr",
             "two_correlated_surfaces_pmiss_corr", "two_surfaces_pmiss_m",
             "two_default_length_surfaces_pmiss_m", "two_surfaces_pmiss_n",
             "two_surfaces_n_sweep_pmiss_n", "two_surfaces_design", "two_surfaces_first_design",
             "three_surfaces_theory", "five_surfaces_theory", "three_surfaces_last_theory",
             "noise_underflow", "noise_underflow_pmiss_two_np", "noise_underflow_confusion"],
    )
    def test_cross_field_error_is_two(self, tmp_path, capsys, subcommand, text, line):
        cfg = tmp_path / "c.txt"
        cfg.write_text(text)
        code = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"c.txt:{line}: config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand, rows, want", [
        ("pf-single", "15, 3", "pf-single needs exactly one code row, got 2"),
        ("pmiss-n", "15, 3", "pmiss-n needs exactly one code row, got 2"),
        ("design", "1, 2", "design needs exactly one code row, got 2"),
        ("theory", "1, 2, 3", "theory needs one or two code rows, got 3"),
        ("pf-two-m", "1, 2, 3", "pf-two-m needs exactly two code rows, got 3"),
        ("five-ris", "1, 2, 3, 4", "five-ris needs exactly five code rows, got 4"),
    ], ids=["pf_single", "pmiss_n", "design", "theory", "pf_two_m", "five_ris"])
    def test_row_count_error_names_the_subcommand(self, tmp_path, capsys, subcommand, rows, want):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"m = 16\ncode_rows = {rows}\n")
        assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"{cfg}:2: config error: {want}\n"
        assert not (tmp_path / "o").exists()

    def test_trial_flag_above_cap_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("code_rows = 1, 2\n")
        code = main(["confusion", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--trials", "20000000"])
        assert code == 2
        assert "config error: trials" in capsys.readouterr().err

    def test_seed_flag_out_of_range_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("code_rows = 1, 2\n")
        code = main(["confusion", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: seed" in err and "c.txt:" not in err

    @pytest.mark.parametrize("threads", ["0", "-1", "65"])
    def test_thread_count_out_of_range_is_two(self, tmp_path, capsys, monkeypatch, threads):
        """Rejected before a worker starts, from the flag or the environment."""
        cfg = tmp_path / "c.txt"
        cfg.write_text("code_rows = 1, 2\n")
        argv = ["confusion", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv + ["--threads", threads]) == 2
        monkeypatch.setenv("RISID_THREADS", threads)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("config error: threads must be in 1..64") == 2 and "c.txt:" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "subcommand, text, line, want",
        [
            ("pf-single", "m = 1024\ncode_rows = 1023\n", 1, PASS_RULE),
            ("pf-single", "m = 4096\ncode_rows = 1\n", 1, PASS_RULE),
            ("confusion", "m = 1048576\ncode_rows = 1, 2\nv_total = 1\n", 1,
             "m must be in 2..4096, got 1048576"),
            ("pmiss-m", "m = 16\nm_values = 16, 1024\n", 2, PASS_RULE),
            ("pf-two-m", "code_rows = 1, 511\nm = 512\n", 2, PASS_RULE),
            ("pf-two-m", "code_rows = 1, 2\nm = 32\nm_values = 32, 512, 1024\n", 3, PASS_RULE),
            ("five-ris", "m = 512\ncode_rows = 255, 256, 300, 400, 511\n", 1, PASS_RULE),
            ("pf-single", f"code_rows = 1\nm = {2**1100}\n", 2,
             "m must be in 2..4096, got 135829852904... (332 digits)"),
            ("pf-single", "spacing = half-lambda\nn_elements = 8192\n", 2, PASS_RULE),
            ("pmiss-corr", "n_elements = 8192\nspacing = none\n", 1, PASS_RULE),
            ("pmiss-n", "spacing = tenth-lambda\nn_values = 64, 8192\n", 2, PASS_RULE),
            ("theory", "m = 8192\ncode_rows = 1\n", 1, "m must be in 2..4096, got 8192"),
            ("tradeoff", "m = 8192\ncode_rows = 1, 2\n", 1, "m must be in 2..4096, got 8192"),
            ("design", "m = 8192\ntarget_pmiss = 0.1\n", 1, "m must be in 2..4096, got 8192"),
        ],
        ids=["high_row", "low_row_table", "hadamard_order", "m_sweep", "two_rows",
             "two_rows_m_sweep", "codebook_length", "beyond_float_range",
             "correlated_elements", "spacing_sweep_elements", "element_sweep",
             "closed_form_theory", "closed_form_tradeoff", "closed_form_design"],
    )
    def test_pass_memory_over_limit_is_two(self, tmp_path, capsys, subcommand, text, line, want):
        """Rejected from the config's sizes before any pass starts, allocating nothing large. The
        closed-form subcommands make no pass; ``MAX_M`` bounds them."""
        cfg = tmp_path / "c.txt"
        cfg.write_text(text)
        tracemalloc.start()
        try:
            code = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"c.txt:{line}: config error" in err and want in err
        assert peak < 16 * 2**20
        assert not (tmp_path / "o").exists()

    def test_longest_sequence_is_the_largest_whose_smallest_pass_fits(self):
        """``MAX_M`` is the largest power of two at which one row with v_total = 1 fits a pass."""
        assert cli.MAX_M & (cli.MAX_M - 1) == 0
        assert (montecarlo.pass_bytes(cli.MAX_M, 1, (1,)) <= montecarlo.MAX_PASS_BYTES
                < montecarlo.pass_bytes(2 * cli.MAX_M, 1, (1,)))

    @pytest.mark.parametrize("subcommand, text, artifact", [
        ("theory", "m = 2048\ncode_rows = 1\n", "theory.csv"),
        ("design", "m = 4096\ncode_rows = 4095\nv_total = 16\ntarget_pmiss = 0.1\n", "design.json"),
        ("pf-single", "m = 1024\nm_values = 16\ntrials = 1000\n", "pf_single.csv"),
    ], ids=["theory_no_pass_fits", "design_at_the_longest_sequence", "unrun_config_shape"])
    def test_runs_a_shape_no_pass_of_it_fits(self, tmp_path, subcommand, text, artifact):
        """The rule checks only the passes a run makes: theory and design make none (theory's
        shape would need 4.18 GiB a pass, design's 6.78 GiB), and pf-single with m_values = 16
        never runs the config's own m = 1024 shape (7.56 GiB)."""
        code, out = run_cli(tmp_path, subcommand, text)
        assert code == 0
        assert (out / artifact).is_file()

    @pytest.mark.parametrize("subcommand, text, extra, line, want", [
        ("pf-two-m", "m = 64\nv_total = 32\ncode_rows = 1, 2\nm_values = 4096\n",
         ("--threads", "64"), 4, "m_values: m = 4096, v_total = 32 and code rows (1, 2) need 1.10 GiB "
                                 "per simulation pass with 64 worker threads"),
        ("pmiss-corr", "n_elements = 8192\np_dbm_values = 10, 20\n", (), 1,
         "m = 16, v_total = 4 and code rows (15,) with 8192 correlated elements need 3.01 GiB"),
        ("pf-two-np", "m = 4096\nv_total = 32\ncode_rows = 1, 2\nn_values = 4, 16\n",
         ("--threads", "64"), 1, "m = 4096, v_total = 32 and code rows (1, 2) need 1.10 GiB per "
                                 "simulation pass with 64 worker threads"),
    ], ids=["swept_length_at_its_threads", "unswept_elements", "unswept_length"])
    def test_pass_over_limit_keyed_to_its_sweep_key_or_field(self, tmp_path, capsys, subcommand,
                                                            text, extra, line, want):
        """A swept field's pass carries its sweep key's prefix, also when it fits with one worker
        (0.96 GiB at m = 4096) but not with the run's 64; a field no sweep key sets puts the pass
        over on its own, so the error is at its line, unprefixed, beside other sweep keys."""
        code, _ = run_cli(tmp_path, subcommand, text, extra)
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"{tmp_path / 'config.txt'}:{line}: config error: {want}")

    def test_pass_memory_counts_every_worker(self, tmp_path, capsys, monkeypatch):
        """About 3 MiB of block arrays per worker beside 0.88 GiB of tables at m = 2048,
        v_total = 16 with five surfaces: one or eight workers fit the limit, 64 do not."""
        assert montecarlo.pass_bytes(2048, 16, FIVE_ROWS_2048) <= montecarlo.MAX_PASS_BYTES
        assert montecarlo.pass_bytes(2048, 16, FIVE_ROWS_2048, threads=8) <= montecarlo.MAX_PASS_BYTES
        assert montecarlo.pass_bytes(2048, 16, FIVE_ROWS_2048, threads=64) > montecarlo.MAX_PASS_BYTES
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"trials = 1000\nm = 2048\nv_total = 16\ncode_rows = {FIVE_ROWS_2048_TEXT}\n")
        assert scenario_from_config(parse_config_text(cfg.read_text())).m == 2048
        argv = ["five-ris", "--config", str(cfg), "--out", str(tmp_path / "o")]
        tracemalloc.start()
        try:
            assert main(argv + ["--threads", "64"]) == 2
            monkeypatch.setenv("RISID_THREADS", "64")
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.count(f"c.txt:2: config error: m = 2048, v_total = 16 and code rows {FIVE_ROWS_2048} "
                         "need") == 2
        assert err.count("GiB per simulation pass with 64 worker threads") == 2
        assert peak < 16 * 2**20
        assert not (tmp_path / "o").exists()

    def test_pass_memory_counts_one_chunk_of_draws_per_worker(self):
        """64 workers at N = 256 hold one chunk of exponential draws each, about 0.1 GiB in all
        (a block of draws each read 1.67 GiB); at N = 4800 they still exit 2 at n_elements."""
        cli._check_pass_memory(16, 4, (15,), threads=64, n=256)
        assert montecarlo.pass_bytes(16, 4, (15,), threads=64, n=256) < 0.7 * 2**30
        with pytest.raises(ConfigError, match="with 4800 correlated elements need") as err:
            cli._check_pass_memory(16, 4, (15,), threads=64, n=4800)
        assert err.value.key == "n_elements"

    def test_pass_memory_counts_the_correlated_build_it_makes(self):
        """The correlation build peaks near 5.2 N^2 doubles, 0.53 GiB at N = 3700, so one
        worker there fits; counted as six N^2 doubles, one worker exits 2 from N = 4727 and 64
        workers from N = 4524. Their needs, 1.0002 and 1.00001 GiB, read 1.01 GiB: the message
        rounds up, so a need over the limit never reads as the limit."""
        cli._check_pass_memory(16, 4, (15,), threads=1, n=3700)
        cli._check_pass_memory(16, 4, (15,), threads=1, n=4726)
        with pytest.raises(ConfigError, match="with 4727 correlated elements need 1.01 GiB") as err:
            cli._check_pass_memory(16, 4, (15,), threads=1, n=4727)
        assert err.value.key == "n_elements"
        cli._check_pass_memory(16, 4, (15,), threads=64, n=4523)
        with pytest.raises(ConfigError, match="with 4524 correlated elements need 1.01 GiB per "
                                              "simulation pass with 64 worker threads") as err:
            cli._check_pass_memory(16, 4, (15,), threads=64, n=4524)
        assert err.value.key == "n_elements"

    def test_empty_true_state_from_trial_flag_has_no_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("code_rows = 1, 2\nr_bar_grid = 3\ntrials = 1000\n")
        code = main(["confusion", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--trials", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: none of the 3 trials drew the true state 'RIS 2' or 'BOTH RISs'" in err
        assert "c.txt:" not in err
        assert not (tmp_path / "o").exists()

    def test_unread_sweep_key_is_not_checked(self, tmp_path, capsys):
        """pf-single never reads n_values, so the key exits 2 as unread, not by the memory rule
        on an element count it never runs."""
        code, out = run_cli(tmp_path, "pf-single",
                            "spacing = half-lambda\nn_elements = 64\nn_values = 8192\ntrials = 1000\n")
        assert code == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.endswith("config.txt:3: config error: pf-single does not read n_values")
        assert not out.exists()

    def test_sweep_values_checked_only_where_read(self, tmp_path, capsys):
        """m_values = 1024 would need 8 GiB a pass: pmiss-n never reads the key, pf-single runs
        it."""
        text = "m = 16\nm_values = 1024\n"
        code, out = run_cli(tmp_path / "pmiss", "pmiss-n", text, ("--trials", "2000"))
        assert code == 2
        assert "config.txt:2: config error: pmiss-n does not read m_values\n" in capsys.readouterr().err
        assert not out.exists()
        code, out = run_cli(tmp_path / "pf", "pf-single", text, ("--trials", "2000"))
        assert code == 2
        err = capsys.readouterr().err
        assert "config.txt:2: config error: m_values: m = 1024" in err
        assert "GiB per simulation pass" in err
        assert not out.exists()

    def test_sweep_combination_error_names_the_combination(self, tmp_path, capsys):
        """Each value passes alone; their last combination overflows the received peak."""
        code, _ = run_cli(tmp_path, "pf-two-np", "code_rows = 1, 2\np_dbm_values = 10, 2830\n"
                                                 "n_values = 64, 1099511627776\n")
        assert code == 2
        assert ("config.txt:2: config error: p_dbm_values at n_elements = 1099511627776, "
                "p_dbm = 2830.0: p_dbm puts the mean received peak") in capsys.readouterr().err

    def test_pass_memory_checks_the_m_run_not_an_unread_sweep(self, tmp_path, capsys):
        """five-ris has no sweep key, so it runs, and the rule checks, m = 2048 with five
        surfaces at 64 workers."""
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"trials = 1000\nm = 2048\nv_total = 16\ncode_rows = {FIVE_ROWS_2048_TEXT}\n")
        tracemalloc.start()
        try:
            code = main(["five-ris", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--threads", "64"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"c.txt:2: config error: m = 2048, v_total = 16 and code rows {FIVE_ROWS_2048} need" in err
        assert "GiB per simulation pass with 64 worker threads" in err
        assert peak < 16 * 2**20
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("subcommand", ["theory", "tradeoff", "pmiss-two-m"])
    def test_closed_forms_never_invert_a_cf(self, tmp_path, monkeypatch, subcommand):
        def boom(*a, **kw):
            raise risid.analysis.NumericalFailure("forced", reason="test")

        monkeypatch.setattr(risid.analysis, "gil_pelaez_cdf", boom)
        monkeypatch.setattr(risid.analysis, "rayleigh_sum_cf", boom)
        code, _ = run_cli(
            tmp_path, subcommand,
            "m = 8\ncode_rows = 1, 2\nn_elements = 4\nn_horizontal = 2\n"
            "r_bar_grid = 2, 3\n", ("--trials", "1000"),
        )
        assert code == 0

    @pytest.mark.parametrize("p_dbm, want", [
        (-150, 1.0), (-300, 1.0), (-1000, 1.0), (1500, 0.0),
    ])
    def test_miss_bound_at_extreme_powers(self, tmp_path, p_dbm, want):
        """Far below the noise every threshold misses; far above it the bound
        (about 1e-150 here) rounds to zero."""
        code, out = run_cli(tmp_path, "theory", f"m = 16\ncode_rows = 1, 2\np_dbm = {p_dbm}\n")
        assert code == 0
        lines = (out / "theory.csv").read_text().splitlines()
        values = [float(l.split(",")[1]) for l in lines if ",pmiss_two_lower," in l]
        assert len(values) == 8
        assert values == [pytest.approx(want, rel=0, abs=1e-140)] * 8

    def test_success_is_zero(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("m = 16\ncode_rows = 15\n")
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


PLAN_CONFIG = "m = 8\nn_elements = 4\nn_horizontal = 2\ntrials = 100\ncode_rows = {}\n"


class TestRunPlan:
    """``main`` builds the run's passes once, bounds their number before the first is built,
    and the run holds one pass's rows at a time."""

    def test_ten_thousand_squared_sweep_exits_at_load(self, tmp_path):
        """10^4 sizes by 10^4 powers, every pass of them valid, exit 2 at the powers' line
        without walking the passes."""
        cfg = tmp_path / "c.txt"
        cfg.write_text("code_rows = 1, 2\nn_horizontal = 1\n"
                       f"n_values = {', '.join(map(str, range(1, 10_001)))}\n"
                       "p_dbm_values = 0:99.99:0.01\n")
        proc = fresh_python("-m", "risid.cli", "pf-two-np", "--config", str(cfg),
                            "--out", str(tmp_path / "o"), timeout=60, check=False)
        assert proc.returncode == 2
        assert proc.stderr == (f"{cfg}:4: config error: the sweep makes 100000000 passes, "
                               "over the 10000 a run may make\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand, text, line, count", [
        ("pf-two-np", f"p_dbm_values = 0:99:1\nn_values = {', '.join(map(str, range(2, 203, 2)))}\n",
         6, 10100),
        ("pmiss-corr", "p_dbm_values = 0:33.33:0.01\n", 6, 10002),
    ], ids=["sizes_by_powers", "spacings_by_powers"])
    def test_over_long_sweep_starts_no_pass(self, tmp_path, capsys, monkeypatch, subcommand, text,
                                            line, count):
        """The product of the sweep lengths, ``spacing`` counting its 3 modes, over
        ``MAX_LIST_VALUES`` exits 2 at the innermost sweep key's line before any pass starts,
        though every pass is valid."""
        def no_pass(*args):
            raise AssertionError("a pass started")

        monkeypatch.setattr(montecarlo, "_run_blocks", no_pass)
        code, out = run_cli(tmp_path, subcommand, PLAN_CONFIG.format(_rows_text(subcommand)) + text)
        assert code == 2
        assert capsys.readouterr().err == (f"{tmp_path / 'config.txt'}:{line}: config error: the sweep "
                                           f"makes {count} passes, over the 10000 a run may make\n")
        assert not out.exists()

    def test_each_pass_is_checked_once(self, tmp_path, monkeypatch):
        """A 4-pass run applies the pass-memory rule 4 times."""
        calls = []
        check = cli._check_pass_memory
        monkeypatch.setattr(cli, "_check_pass_memory", lambda *args: calls.append(args) or check(*args))
        code, _ = run_cli(tmp_path, "pf-two-np",
                          PLAN_CONFIG.format("1, 2") + "n_values = 4, 8\np_dbm_values = 10, 20\n")
        assert code == 0
        assert len(calls) == 4

    @pytest.mark.parametrize("subcommand, sweep, built", [
        ("theory", "", 2),
        ("pf-two-np", "trials = 100\nn_values = 4, 8\np_dbm_values = 10, 20\n", 4 + 2),
    ], ids=["theory", "four_passes"])
    def test_one_scenario_per_pass_beside_the_configs_two(self, tmp_path, monkeypatch, subcommand,
                                                          sweep, built):
        """A run builds the config's scenario as written, then with its flags, then each pass
        from the config with the pass's values in place of their keys: one ``Scenario`` each."""
        scenarios = []
        post_init = Scenario.__post_init__
        monkeypatch.setattr(Scenario, "__post_init__", lambda scn: scenarios.append(scn) or post_init(scn))
        code, _ = run_cli(tmp_path, subcommand, "m = 8\nn_elements = 4\nn_horizontal = 2\ncode_rows = 1, 2\n"
                          + sweep, ("--seed", "3"))
        assert code == 0
        assert len(scenarios) == built
        assert {scn.seed for scn in scenarios[1:]} == {3}

    @pytest.mark.parametrize("subcommand, sweep, calls", [
        ("pf-two-np", "n_values = 4, 8\np_dbm_values = 10, 20\n", 1),
        ("pmiss-two-m", "m_values = 8, 16, 8\n", 2),
    ], ids=["sizes_by_powers", "lengths"])
    def test_pair_pmf_once_per_code_set(self, tmp_path, monkeypatch, subcommand, sweep, calls):
        """The theory rows' pair pmf is found once per code set in a run, not once per pass."""
        seen = []
        pmf = cli.cross_corr_pmf
        monkeypatch.setattr(cli, "cross_corr_pmf", lambda *args: seen.append(args) or pmf(*args))
        code, _ = run_cli(tmp_path, subcommand, PLAN_CONFIG.format("1, 2") + sweep)
        assert code == 0
        assert len(seen) == calls

    def test_peak_stays_flat_as_passes_grow(self, tmp_path):
        """With a 1001-threshold grid, 20 passes hold about what 2 do: each pass's rows are
        written when it ends, not kept to the end of the run."""
        def peak(powers, name):
            text = (PLAN_CONFIG.format("1, 2") + "r_bar_grid = 0:10:0.01\nn_values = 4\n"
                    f"p_dbm_values = {', '.join(str(10 + p) for p in range(powers))}\n")
            tracemalloc.start()
            try:
                assert run_cli(tmp_path / name, "pf-two-np", text)[0] == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2, "warm")  # the kept subspace and the parser are built outside the traced runs
        two, twenty = peak(2, "two"), peak(20, "twenty")
        assert twenty < two + 2**19, (two, twenty)


class TestReusedParser:
    """``main`` builds its argparse tree once per process and reads RISID_THREADS on every call."""

    def test_each_call_reads_the_thread_environment(self, tmp_path, capsys, monkeypatch):
        seen = []
        theory = cli.COMMANDS["theory"]
        monkeypatch.setitem(cli.COMMANDS, "theory", cli._Command(
            lambda scenario, raw, writer, threads: seen.append(threads), theory.help, theory.surfaces))
        argv = ["theory", "--out", str(tmp_path / "o")]
        for env in ("1", "3", "1"):
            monkeypatch.setenv("RISID_THREADS", env)
            assert main(argv) == 0
        assert main(argv + ["--threads", "2"]) == 0
        monkeypatch.setenv("RISID_THREADS", "65")
        assert main(argv) == 2
        monkeypatch.delenv("RISID_THREADS")
        assert main(argv) == 0
        assert seen == [1, 3, 1, 2, 1]
        assert capsys.readouterr().err == "config error: threads must be in 1..64, got 65\n"

    def test_bad_thread_environment_after_a_good_call(self, tmp_path, capsys, monkeypatch):
        """Still a usage error, with the stderr of a process whose first call it is."""
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["theory", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setenv("RISID_THREADS", "two")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("risid theory: error: argument --threads: invalid int value: 'two'\n")
        fresh = fresh_python("-c", f"""
import contextlib, io
from risid.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err):
    try:
        main({argv!r})
    except SystemExit as exc:
        print(exc.code)
print(repr(err.getvalue()))
""", cwd=tmp_path, timeout=600).stdout
        assert fresh.splitlines() == ["2", repr(err)]

    def test_help_equals_a_new_trees(self, tmp_path, capsys, monkeypatch):
        """``--help`` of the top level and of every subcommand, after earlier calls, is the
        text of a tree built anew."""
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["theory", "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        parser, subparsers = cli._parser.__wrapped__()
        want = {"": parser.format_help()}
        want.update(zip(cli.COMMANDS, (p.format_help() for p in subparsers)))
        assert len(want) == 1 + len(cli.COMMANDS) == 14
        for sub, text in want.items():
            with pytest.raises(SystemExit) as exit_info:
                main([sub, "--help"] if sub else ["--help"])
            assert exit_info.value.code == 0
            assert capsys.readouterr().out == text
        assert "--threads THREADS" in want["pf-single"] and "RISID_THREADS" in want["pf-single"]


class TestScipyOnDemand:
    """Only the Gil-Pelaez reference loads scipy; the tests above import it themselves."""

    def test_cli_and_engine_never_load_scipy(self, tmp_path):
        config = {sub: str(BUNDLED_CONFIG_DIR / name) for sub, name in BUNDLED_RUNS}
        runs = [[sub, "--config", config[sub], "--out", sub] for sub in ("theory", "tradeoff", "design")]
        runs.append(["pf-single", "--config", config["pf-single"], "--out", "pf-single",
                     "--trials", "2000"])
        out = fresh_python("-c", f"""
import sys
import risid, risid.cli
try:
    risid.cli.main(["--help"])
except SystemExit:
    pass
codes = [risid.cli.main(argv) for argv in {runs!r}]
print(codes, "scipy" in sys.modules)
""", cwd=tmp_path, timeout=600).stdout
        assert out.splitlines()[-1] == "[0, 0, 0, 0] False"

    def test_reference_loads_scipy_and_keeps_its_values(self, tmp_path):
        """Each reference function loads what it needs and returns the values it gave when
        risid loaded scipy at import."""
        out = fresh_python("-c", """
import sys
from risid.analysis import gil_pelaez_cdf, rayleigh_cf, rayleigh_sum_cf
print("scipy" in sys.modules)
print(repr(rayleigh_cf(0.7, 1.3)), "scipy.integrate" in sys.modules)
print(repr(gil_pelaez_cdf(2.5, rayleigh_sum_cf([1.0, 2.0]))), "scipy.integrate" in sys.modules)
""", cwd=tmp_path, timeout=600).stdout
        assert out.split() == ["False", "(0.3667209182137767+0.7538443785092648j)", "False",
                               "0.2053761916301271", "True"]
