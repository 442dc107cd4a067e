"""Record the reports of the larger cells into data/tier2_golden.jsonl.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/record_tier2_golden.py

The default grid's cells are small; these reach 10^6 to 4 * 10^6 tables,
the p = 3 value-sum-only path and the p | n search, where the cell screens
do most of their work.  Each line is one report's JSON form with
``elapsed_ms`` popped, as in data/grid_golden.jsonl, and
``test_verify.py::test_tier2_cells_match_golden`` compares them line by
line.  Run it only on a commit whose reports are known to be right; it
refuses to write when a report fails.
"""

import json
from pathlib import Path

TIER2_GOLDEN = Path(__file__).parent / "data" / "tier2_golden.jsonl"

#: (statement, p, n), in file order.
TIER2_CELLS = [
    ("thm_1_2", 11, 4), ("thm_1_2", 13, 4),
    ("cor_1_3", 11, 4), ("cor_1_3", 13, 3),
    ("cor_2_3", 7, 5),
    ("prop_2_2", 7, 6),
    ("lemma_2_1", 7, 5), ("lemma_2_1", 5, 8),
    ("thm_1_7", 13, 3), ("thm_1_7", 3, 3334),
    ("prop_1_1", 13, 2),
    ("remark_p_divides_n", 5, 10), ("remark_p_divides_n", 3, 12),
]


def golden_line(report) -> str:
    """One report as a golden line: its JSON form without ``elapsed_ms``."""
    record = report.to_json_dict()
    record.pop("elapsed_ms")
    return json.dumps(record, sort_keys=True)


if __name__ == "__main__":
    from gausschar.verify import verify_grid

    lines = []
    for cell, report in zip(TIER2_CELLS, verify_grid(TIER2_CELLS)):
        if not report.success:
            raise SystemExit(f"error: {cell} failed; not recording")
        lines.append(golden_line(report))
    TIER2_GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"recorded {len(lines)} cells in {TIER2_GOLDEN.name}")
