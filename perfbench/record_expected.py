"""Record the grid workload's expected reports into grid_expected.json.

Usage, from the repository root: python3 perfbench/record_expected.py

Run it only on a commit whose reports are known to be right: the grid
gate compares every later run against this file.
"""

import json
import sys

import workloads

sys.path.insert(0, str(workloads.SRC))
import gausschar  # noqa: E402

expected = {}
for cell in gausschar.verify.default_grid():
    report = gausschar.verify.verify_grid([cell])[0]
    if not report.success:
        raise SystemExit(f"error: {workloads.grid_label(cell)} failed; not recording")
    expected[workloads.grid_label(cell)] = workloads.grid_summary(report.to_json_dict())
workloads.GRID_EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
print(f"recorded {len(expected)} cells in {workloads.GRID_EXPECTED.name}")
