"""How the pairwise exceedance bounds behave and how calibration works.

The marginal-only worst-case bounds depend on the constants vector alone;
the pairwise bounds also see the joint CDF F(u, v) of two null p-values
and are never larger.  F is the equicorrelated-normal model, which is
independence at rho = 0.  Scanning the template scale beta shows both bounds
growing monotonically; calibration finds the beta* where the pairwise
bound hits the target level.
"""

from fdpctl import (Gamma, EquicorrelatedPairs, calibrate_pair_scale,
                    make_template, pair_sd_bound, pair_su_bound,
                    sd_marginal_bound, su_marginal_bound)

n = 20
gamma = Gamma.parse("1/10")
alpha = 0.05
template = make_template("lr", n, gamma=gamma)

print(f"stepdown bounds at n={n}, gamma={gamma} (LR-shaped template)\n")
print(f"{'beta':>8s}  {'marginal':>12s}  {'pair rho=0':>12s}  {'pair rho=.5':>12s}")
for beta in (0.005, 0.01, 0.02, 0.04, 0.08):
    vals = template.values(beta)
    marg = sd_marginal_bound(vals, gamma)
    pi = pair_sd_bound(template, gamma, 1, EquicorrelatedPairs(0.0), beta).value
    pe = pair_sd_bound(template, gamma, 1, EquicorrelatedPairs(0.5), beta).value
    print(f"{beta:8.3f}  {marg:12.6f}  {pi:12.6f}  {pe:12.6f}")
    assert pi <= marg and pe <= marg

print("\nThe pairwise bound never exceeds the marginal bound, so the scale"
      "\nthat solves pairwise_bound(beta) = alpha is at least as large as the"
      "\nmarginal-only rescaling -- which is exactly the power gain:\n")

for F in (EquicorrelatedPairs(0.0), EquicorrelatedPairs(0.5)):
    for direction, bound in (("sd", pair_sd_bound), ("su", pair_su_bound)):
        rep = calibrate_pair_scale(direction, template, gamma, 1, alpha, F)
        print(f"{direction} under {F.name:14s}: beta* = {rep.beta_star:.6f}, "
              f"bound(beta*) = {rep.scale:.10f}, "
              f"top constant = {rep.constants.values[-1]:.6f}")

# the marginal-only equivalent scale for comparison
vals = template.values(alpha)
print(f"\nmarginal-only equivalent scale (sd): "
      f"{alpha / (sd_marginal_bound(vals, gamma) / alpha):.6f}")
print(f"marginal-only equivalent scale (su): "
      f"{alpha / (su_marginal_bound(vals, gamma) / alpha):.6f}")
