"""The headline comparison: four variants side by side.

Sweeps all four controllers over single-flow 180 s runs (two seeds per
cell) and prints each table the matrix reports the way measurement papers
lay them out: best value in the row, everyone else tagged with their
relative distance from it.  Takes a few seconds.
"""

from cclab.config import LabConfig
from cclab.matrix import TABLE_METRICS, render_table, run_matrix

config = LabConfig()
config.matrix_flows = (1,)
config.matrix_runs = 2

cells = run_matrix(config)
for cell in cells:
    status = "ok" if cell.ok else f"FAILED: {cell.error}"
    print(f"ran {cell.scenario_tag} flows={cell.flows} {cell.variant}: {status}")

print()
tag = config.matrix_scenario("long_lived").tag
for metric in TABLE_METRICS:
    print(render_table(cells, metric, tag, config.matrix_variants, config.matrix_flows))

print("note the shape: goodput is nearly flat across variants, while the")
print("binary-search and cubic-curve controllers pay for it with a visibly")
print("larger standing RTT and more retransmission work.")
