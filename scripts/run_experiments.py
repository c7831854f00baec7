#!/usr/bin/env python3
"""Drive the bundled experiment configs through the CLI.

Each subcommand writes CSV/JSON artifacts plus a manifest into its own
subdirectory of --out. The bundled trial counts are sized for a coffee-break
run; pass --trials to override them where a subcommand simulates (e.g.
10000000 for headline-grade confusion matrices). One line per config, then a
total line: runs, failures and wall seconds.
"""

import argparse
import sys
import time
from pathlib import Path

from risid.cli import COMMANDS, main as risid_main

CONFIG_DIR = Path(__file__).parent / "configs"

# (subcommand, config file): each config runs under the subcommand whose name, dashes as
# underscores, is its file stem or a prefix of the stem followed by "_" (five_ris_set1 runs
# under five-ris), in COMMANDS order, then in file name order
RUNS = [(sub, path.name) for sub in COMMANDS for path in sorted(CONFIG_DIR.glob("*.txt"))
        if f"{path.stem}_".startswith(sub.replace("-", "_") + "_")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--only", nargs="*", choices=list(dict.fromkeys(sub for sub, _ in RUNS)),
                        help="subcommand names to run")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    runs = failures = 0
    start = time.time()
    for sub, config in RUNS:
        if args.only and sub not in args.only:
            continue
        label = config.removesuffix(".txt")
        out = args.out / label
        argv = [sub, "--config", str(CONFIG_DIR / config), "--out", str(out)]
        if args.trials is not None and COMMANDS[sub].passes is not None:  # where a pass runs
            argv += ["--trials", str(args.trials)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        t0 = time.time()
        code = risid_main(argv)
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{label:<16} {status:<8} {time.time() - t0:7.1f}s -> {out}")
        runs += 1
        failures += code != 0
    print(f"{'total':<16} {runs} runs, {failures} failed, {time.time() - start:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
