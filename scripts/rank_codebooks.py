#!/usr/bin/env python3
"""Rank code subsets by their worst-pair correlation peak and print the
extremes as config lines (the bundled five-ris set1/set2 code rows come from here)."""

import argparse

from risid.codes import rank_code_subsets


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=16)
    parser.add_argument("--subset-size", type=int, default=5)
    parser.add_argument("--pad", type=int, default=None,
                        help="window budget (default length // 4)")
    parser.add_argument("--top", type=int, default=5)
    args = parser.parse_args()
    if args.top < 0:
        parser.error(f"--top must be nonnegative, got {args.top}")

    pad = args.pad if args.pad is not None else args.length // 4
    try:
        ranked = rank_code_subsets(args.length, args.subset_size, pad)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"{len(ranked)} subsets of size {args.subset_size} "
          f"(length {args.length}, pad {pad})")
    for q, rows in ranked[: args.top]:
        print(f"  quality {q:3d}  rows {rows}")
    print("  ...")
    for q, rows in ranked[max(len(ranked) - args.top, 0):]:
        print(f"  quality {q:3d}  rows {rows}")

    best_rows = ranked[0][1]
    worst_q = ranked[-1][0]
    worst_rows = sorted(rows for q, rows in ranked if q == worst_q)[0]
    for name, rows in (("set1", best_rows), ("set2", worst_rows)):
        print(f"# {name}\ncode_rows = {', '.join(str(r) for r in rows)}")


if __name__ == "__main__":
    main()
