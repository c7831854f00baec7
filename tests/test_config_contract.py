"""The config contract, fuzzed: every config exits 0 or 2, never with a traceback, an exit-0
run writes no NaN or inf, and an exit-2 run prints one ``config error`` line whose line
number, if any, points at a ``key = value`` line of the config."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from risid import cli
from risid.cli import ConfigError, parse_config_text

# Value syntax -> a value the parser accepts only for keys of that syntax, most specific first.
_PROBES = {"str": "none-such", "float_list": "0.5, 1", "int_list": "1, 2", "float": "0.5", "int": "1"}


def _syntax(key: str) -> str:
    """The value syntax of ``key``, found by asking the parser."""
    for syntax, probe in _PROBES.items():
        try:
            parse_config_text(f"{key} = {probe}")
            return syntax
        except ConfigError:
            pass
    raise AssertionError(f"no probe parses as {key}")


# Valid sizes stop at 64, so that the cross-correlation enumeration and each pass stay small.
_GOOD_INT = st.integers(1, 64).map(str) | st.sampled_from(["2", "4", "8", "16", "32"])
_EDGE_INT = st.sampled_from(["0", "-1", "-4", "3", "12", "1e6", "12.5", "nan", "inf", "1e300",
                             str(2**40), str(2**64 - 1), str(2**64), str(2**1100)])
_GOOD_FLOAT = st.sampled_from(["0.001", "0.1", "0.5", "3", "10", "50", "1.8e9", "20e6"]) \
    | st.floats(0.01, 50).map(repr)
_EDGE_FLOAT = st.sampled_from(["nan", "inf", "-inf"]) \
    | st.sampled_from(["0", "-0.0", "-1", "1e300", "-1e300", "1e-300", "300", "-300", "1e154"])
_GOOD = {
    "str": st.sampled_from(cli.SPACINGS),
    "int": _GOOD_INT,
    "float": _GOOD_FLOAT,
    "int_list": st.lists(_GOOD_INT, min_size=1, max_size=5).map(", ".join),
    "float_list": st.lists(st.floats(0, 10), min_size=1, max_size=4).map(
        lambda xs: ", ".join(map(repr, sorted(xs)))) | st.sampled_from(["1:3:0.5", "0:2:1"]),
}
_EDGE = {
    "str": st.sampled_from(["bogus", ""]),
    "int": _EDGE_INT,
    "float": _EDGE_FLOAT,
    "int_list": st.lists(_GOOD_INT | _EDGE_INT, min_size=1, max_size=5).map(", ".join),
    "float_list": st.lists(_GOOD_FLOAT | _EDGE_FLOAT, min_size=1, max_size=4).map(", ".join)
    | st.sampled_from(["3:1:0.5", "0:1e12:1", "0:1e308:1e-10", "0:nan:1", "1:2", "1:2:0"]),
}


@st.composite
def runs(draw):
    """A subcommand and config text setting a few of the keys it reads to plausible values, now
    and then a key of ``cli._KEYS`` it does not read, and at most one key it reads to an edge
    value, with comment and blank lines between. Unless drawn, ``code_rows`` is the fewest rows
    the subcommand runs and, for the two subcommands that read it, ``target_pmiss`` the one
    ``design`` needs."""
    subcommand = draw(st.sampled_from(sorted(cli.COMMANDS)))
    reads = sorted(cli.COMMANDS[subcommand].reads)
    rows = range(1, cli.COMMANDS[subcommand].surfaces[0] + 1)
    config = {"code_rows": ", ".join(map(str, rows))}
    if "target_pmiss" in reads:
        config["target_pmiss"] = "0.01"
    keys = draw(st.lists(st.sampled_from(reads), max_size=4, unique=True))
    if draw(st.integers(0, 9)) == 0:
        keys.append(draw(st.sampled_from(sorted(cli._KEYS.keys() - set(reads)))))
    config |= {key: draw(_GOOD[_syntax(key)]) for key in keys}
    if draw(st.booleans()):
        edge = draw(st.sampled_from(reads))
        config[edge] = draw(_EDGE[_syntax(edge)])
    lines = [f"{key} = {value}" for key, value in config.items()]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note"])))
    return subcommand, "".join(line + "\n" for line in lines)


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@given(run=runs(), trials=st.sampled_from([1, 50, 300]))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_every_config_exits_zero_or_two(run, trials):
    subcommand, text = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.txt", Path(tmp) / "out"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([subcommand, "--config", str(cfg), "--out", str(out),
                             "--trials", str(trials), "--threads", "1"])
        assert code in (0, 2)
        if code == 0:
            for path in out.iterdir():
                assert not _NON_FINITE.search(path.read_text()), path.name
            return
        assert not out.exists()
        (message,) = err.getvalue().splitlines()
        anchor = re.fullmatch(rf"(?:{re.escape(str(cfg))}:(\d+): )?config error: .+", message)
        assert anchor, message
        if anchor[1]:
            lines, at = text.splitlines(), int(anchor[1])
            assert 1 <= at <= len(lines), message
            key, eq, _ = lines[at - 1].split("#", 1)[0].partition("=")
            assert eq and key.strip() in cli._KEYS, message
