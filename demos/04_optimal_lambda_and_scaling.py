"""The interaction-strength optimization and the delta^6 error scaling.

Run: python3 demos/04_optimal_lambda_and_scaling.py
"""

import numpy as np

from gkp_readout import analytics

# The optimizer solves the stationarity condition
#   (2 lambda / delta^2) e^{-lambda^2/delta^2} = sqrt(pi) cos(sqrt(pi) lambda)
# by a scan and a bisection; the small-delta seed sqrt(pi) delta^2/2
# approaches it as delta shrinks.
print(f"{'delta':>8} {'lambda*':>10} {'seed':>10}")
for delta in (0.05, 0.1, 0.2, 0.3162, 0.4):
    lam = analytics.optimal_lambda(delta)
    seed = analytics.lambda_seed(delta)
    print(f"{delta:8.4f} {lam:10.6f} {seed:10.6f}")

# At small delta the optimized error follows a delta^6 power law.  The
# quoted coefficient 5 pi^3/384 describes the error at the approximate
# optimum sqrt(pi) delta^2/2; the exact stationary point lies a factor
# 2/5 lower, at pi^3/192.
deltas = np.linspace(0.05, 0.15, 12)
for label, lam_of in (("seed lambda", analytics.lambda_seed),
                      ("exact optimum", analytics.optimal_lambda)):
    logs = [np.log(analytics.p_err_improved_formula(d, lam_of(d))) for d in deltas]
    slope, intercept = np.polyfit(np.log(deltas), logs, 1)
    print(f"\n{label}: p_err ~ {np.exp(intercept):.4f} * delta^{slope:.3f}")
print(f"reference coefficients: 5 pi^3/384 = {5 * np.pi**3 / 384:.4f}, "
      f"pi^3/192 = {np.pi**3 / 192:.4f}")

# Where the improved circuit stops winning against ideal homodyne.
db = analytics.homodyne_crossover_db()
print(f"\nimproved/homodyne crossover: {db:.2f} dB of squeezing")
print("below this the improved circuit wins; above, homodyne does.")
