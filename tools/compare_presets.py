"""Compare two sweep CSVs of one preset, written by a base commit and by a change.

    python tools/compare_presets.py BASE.csv CHANGE.csv

The rule: oracle columns may move only inside the shared cross-engine budget.
The header, the base columns, n_max, flag and every closed-form column (the
*_closed* columns and the *_over_g ones derived from them) must be
byte-identical.  Every oracle, residual, chi, qfi, crb and tail_mass cell may
move only while metrology.cross_ratio(base, change) <= 1.  Prints the largest
move of each budgeted column as a share of that budget and the number of
moved cells; exits 1 if any cell breaks the rule.
"""

from __future__ import annotations

import csv
import math
import sys

from spacmeter.metrology import cross_ratio

_BUDGETED = ("_oracle", "_residual", "chi[", "qfi[", "crb[", "tail_mass[")


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    return header, rows


def compare(base_path: str, change_path: str) -> tuple[list[str], list[str]]:
    """(report lines, faults) for two CSVs of one preset."""
    header, base = _read(base_path)
    other, change = _read(change_path)
    if header != other or len(base) != len(change):
        return [], [f"headers or row counts differ: {len(base)} rows vs {len(change)}"]
    faults, moved = [], 0
    worst = {col: 0.0 for col in header if any(tag in col for tag in _BUDGETED)}
    for index, (row, new) in enumerate(zip(base, change)):
        if not len(row) == len(new) == len(header):
            faults.append(f"row {index}: {len(row)} and {len(new)} cells for {len(header)} columns")
            continue
        for col, a, b in zip(header, row, new):
            if a == b:
                continue
            moved += 1
            if col not in worst:
                faults.append(f"row {index} {col}: {a!r} -> {b!r} (must be byte-identical)")
                continue
            share = cross_ratio(float(a), float(b)) if a and b else math.inf
            if not share <= worst[col]:
                worst[col] = share
            if not share <= 1.0:
                faults.append(f"row {index} {col}: {a} -> {b} is {share:.3g} of the budget")
    lines = [f"{col}: largest move {share:.3g} of the budget" for col, share in worst.items()]
    lines.append(f"{moved} moved cells in {len(base)} rows")
    return lines, faults


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    lines, faults = compare(*argv)
    print("\n".join(lines + faults))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
