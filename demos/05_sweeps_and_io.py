"""Parameter sweeps over squeezing and noise, with deterministic CSV and
JSON emission.  The same sweeps are available from the command line as
`gkp-readout fig1a|fig1b|fig1c`.

Run: python3 demos/05_sweeps_and_io.py
"""

from gkp_readout.sweep import (
    SweepConfig,
    rows_to_csv,
    run_fig1a,
    run_fig1c,
)

# Strategy comparison over a small squeezing range.
cfg = SweepConfig(delta_db_min=8.0, delta_db_max=10.0, delta_db_points=3,
                  rounds_list=(1, 3))
rows = run_fig1a(cfg)
print("strategy comparison (simulated p_err):")
print(f"{'strategy':>18} {'8.0 dB':>12} {'9.0 dB':>12} {'10.0 dB':>12}")
by_strategy = {}
for r in rows:
    val = r.p_err_simulated if r.p_err_simulated is not None else r.p_err_formula
    by_strategy.setdefault(r.strategy, []).append(val)
for name, vals in sorted(by_strategy.items()):
    print(f"{name:>18} " + " ".join(f"{v:12.3e}" for v in vals))

# Mixed-state sweep: Gaussian displacement noise before readout, with
# the interaction strength re-optimized against the simulated error.
noisy = run_fig1c(SweepConfig(delta_db_min=9.9, delta_db_max=10.0,
                              delta_db_points=2, sigma_list=(0.0, 0.1),
                              rounds_list=(1,)))
print("\nnoise at 10 dB:")
for r in noisy:
    if r.strategy == "improved_optimal" and abs(r.delta_db - 10) < 1e-9:
        print(f"  sigma = {r.sigma}: p_err = {r.p_err_simulated:.3e}, "
              f"purity = {r.purity:.4f}, delta_eff = {r.delta_eff_db:.2f} dB")

# Deterministic serialization: same config, byte-identical output.
csv_text = rows_to_csv(rows)
assert csv_text == rows_to_csv(run_fig1a(cfg))
print(f"\nCSV header: {csv_text.splitlines()[0]}")
print(f"CSV rows:   {len(csv_text.splitlines()) - 1} (byte-identical on rerun)")
