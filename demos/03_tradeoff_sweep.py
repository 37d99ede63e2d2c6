"""A miniature safety/mobility sweep, from grid to CSV to scatter plot.

Desk-scale and full-scale grids ship as configs/desk.cfg and
configs/fullscale.cfg (run them with `grmsim sweep`); this demo keeps its
grid tiny so it finishes in under a minute.
"""

from pathlib import Path

from grmsim.dynamics import SimParams
from grmsim.harness import SweepGrid, emit_csv, emit_scatter_svg, run_sweep

params = SimParams(horizon_steps=1000)
grid = SweepGrid(cva_values_deg=(10.0, 50.0, 90.0),
                 t_grm_values=(2.0, 8.0, 32.0),
                 t_loom_values=(32.0,),
                 trials_per_cell=4, base_seed=11)

table = run_sweep(grid, params)
out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(parents=True, exist_ok=True)
csv_path = emit_csv(table, out_dir / "mini_sweep.csv")
svg_path = emit_scatter_svg(table.aggregates, out_dir / "mini_sweep.svg")

print(f"{len(table.rows)} trials -> {csv_path}")
print(f"{len(table.aggregates)} cells -> {svg_path}")
print("\ncell means (cva, t_grm -> mobility, safety):")
for agg in table.aggregates:
    mob = "undef" if agg.mean_mobility is None else f"{agg.mean_mobility:.2f}"
    saf = "undef" if agg.mean_safety is None else f"{agg.mean_safety:.2f}"
    print(f"  cva={agg.cva_deg:4.0f} t_grm={agg.t_grm:4.0f}: "
          f"mobility {mob}, safety {saf}")
print("\nlow thresholds buy safety with constant stopping; high thresholds")
print("keep the swarm moving but let collisions through.")
