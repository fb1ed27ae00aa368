"""Stepwise multiple testing with control of FDP exceedance probabilities.

The package provides, for a vector of p-values:

* stepdown/stepup engines over any nondecreasing critical constants,
* the critical-constant families that control Pr(FDP > gamma) and its
  generalization Pr(kFDP > gamma) under positive or arbitrary dependence,
  with or without pairwise joint-null information,
* a bivariate-normal pairwise null kernel,
* a Monte Carlo harness for level/power studies, and
* a brute-force oracle suite verifying the pointwise inequalities behind
  the constants.
"""

__version__ = "0.1.0"

from .core import (CriticalConstants, Gamma, RejectionResult, TruthLabels,
                   exceeds_counts, exceeds_gamma, kfdp_value)
from .engine import annotate_truth, step_counts, step_down, step_up
from .constants import (FAMILIES, BoundValue, CalibrationError,
                        ConstantsReport, Template, arbdep_sd_report,
                        arbdep_su_report, bh_template, calibrate_pair_scale,
                        family_report, gbs_template, lr_constants,
                        lr_template, make_template, pair_sd_bound, pair_su_bound,
                        pairwise_lr_report, posdep_sd_report,
                        posdep_su_report, sd_marginal_bound,
                        su_marginal_bound)
from .pairdist import (ComonotonePairs, EquicorrelatedPairs, IndependentPairs,
                       PairwiseNull, bvn_cdf, conditional_cdf, make_pairwise,
                       two_sided_equicorr_cdf, validate_pairwise)
from .simlab import (DependenceModel, MonteCarloConfig, MonteCarloReport,
                     ProcedureSpec, build_procedure, generate_sample,
                     generate_samples, procedure_constants, run_cell,
                     run_grid, two_sided_pvalues)

__all__ = [name for name in dir() if not name.startswith("_")]
