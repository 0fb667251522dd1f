"""The K_n^lambda brackets on a fixed grid against ``data/brackets.json``.

Each row holds the best closed-form lower bound and the least-capacity
construction, so a change that moves a bound or a construction changes the
table, and its diff is that change's effect on the brackets.  To record the
file anew from the current tree, run this module as a script:

    PYTHONPATH=src python tests/test_brackets.py
"""

from __future__ import annotations

import json
from math import ceil, exp, fsum, log
from pathlib import Path

from bicover import bounds, covering
from bicover.cli import _METHODS, _best_construction

DATA = Path(__file__).parent / "data"
BRACKETS = DATA / "brackets.json"
NS = (3, 4, 5, 8, 16, 33, 64, 100, 256, 1000, 2048)
LAMS = (*range(1, 9), 10, 12, 16, 24, 32)


def bracket(n, lam):
    """The row of K_n^lam: the larger of the edge-count bound and the
    binomial-tail bound rounded up (edge-count winning ties), and the
    construction ``sweep`` and ``exact`` name as the best."""
    edge = bounds.edge_count_lower(n, lam)
    tail = ceil(bounds.tail_lower(n, lam) - bounds.GUARD)
    lower, lower_name = (edge, "edge-count") if edge >= tail else (tail, "binomial-tail")
    upper_name, upper = _best_construction(n, lam)
    return {"n": n, "lambda": lam, "lower": lower, "lower_name": lower_name,
            "upper": upper, "upper_name": upper_name, "closed": lower == upper}


def table():
    """The grid's rows, the count of closed rows and the geometric mean of
    upper / lower."""
    rows = [bracket(n, lam) for n in NS for lam in LAMS]
    mean = exp(fsum(log(r["upper"] / r["lower"]) for r in rows) / len(rows))
    return {"closed_rows": sum(r["closed"] for r in rows),
            "geomean_upper_over_lower": round(mean, 6), "rows": rows}


def render(tab):
    """The table as JSON text, one row per line."""
    rows = ",\n  ".join(json.dumps(r) for r in tab["rows"])
    return (f'{{\n "closed_rows": {tab["closed_rows"]},\n'
            f' "geomean_upper_over_lower": {tab["geomean_upper_over_lower"]},\n'
            f' "rows": [\n  {rows}\n ]\n}}\n')


def test_brackets_match_the_committed_table():
    committed = json.loads(BRACKETS.read_text())
    got = table()
    for row, want in zip(got["rows"], committed["rows"], strict=True):
        assert row == want
    assert got == committed


def test_committed_brackets_hold_every_pinned_value():
    rows = {(r["n"], r["lambda"]): r
            for r in json.loads(BRACKETS.read_text())["rows"]}
    assert all(r["lower"] <= r["upper"] for r in rows.values())
    pins = json.loads((DATA / "exact_pins.json").read_text())
    on_grid = [(tuple(map(int, key.split(","))), pin["value"])
               for key, pin in pins.items()]
    on_grid = [(key, value) for key, value in on_grid if key in rows]
    assert on_grid
    for key, value in on_grid:
        assert rows[key]["lower"] <= value <= rows[key]["upper"], key


def test_every_upper_builds_and_verifies():
    # Each row's upper end is a covering that construct writes: built by its
    # method's builder, it is valid at lambda and has exactly that capacity.
    for row in json.loads(BRACKETS.read_text())["rows"]:
        n, lam = row["n"], row["lambda"]
        cov, _ = _METHODS[row["upper_name"]][2](n, lam)
        report = covering.verify(cov, n, lam)
        assert report.ok and covering.capacity(cov) == row["upper"], row


if __name__ == "__main__":
    BRACKETS.write_text(render(table()))
    print(f"wrote {len(NS) * len(LAMS)} rows to {BRACKETS}")
