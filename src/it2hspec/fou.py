"""Footprint of uncertainty around the best-fit mixture.

The histogram values above and below the fitted curve define an upper and a
lower bound function; refitting a Gaussian sum to each yields the upper and
lower membership functions whose gap is the footprint of uncertainty. The
refits start at the best-fit mixture and take the full damped Gauss-Newton
step.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .gaussfit import FitConfig, MixtureFit, eval_mixture, fit_mixture
from .histogram import GRID, as_series
from .imagio import LEVELS

# the refits start at the main fit's optimum, where the step needs no shortening
_REFIT_RHO = 1.0


@dataclass(frozen=True)
class FOU:
    """Upper/lower membership fits plus their 256-level evaluations."""

    umf_fit: MixtureFit
    lmf_fit: MixtureFit
    umf: np.ndarray
    lmf: np.ndarray

    def __post_init__(self):
        umf = np.asarray(self.umf, dtype=float)
        lmf = np.asarray(self.lmf, dtype=float)
        if umf.size != LEVELS or lmf.size != LEVELS:
            raise ValueError(f"membership series must have {LEVELS} values")
        if lmf.min() < 0:
            raise ValueError("membership values must be non-negative")
        if np.any(lmf > umf + 1e-12):
            raise ValueError("lower membership must not exceed the upper one")
        object.__setattr__(self, "umf", umf)
        object.__setattr__(self, "lmf", lmf)


def bound_functions(h, fit: MixtureFit):
    """Pointwise max/min of the fitted curve and the histogram.

    Returns (upper, lower) arrays over all 256 levels.
    """
    values = as_series(h)
    curve = eval_mixture(fit, GRID)
    return np.maximum(curve, values), np.minimum(curve, values)


def extract_fou(h, fit: MixtureFit, cfg: FitConfig) -> FOU:
    """Fit Gaussian sums to the upper and lower bound functions.

    Both refits warm-start from the stage-1 parameters, so the component
    count is preserved, and take the full damped step (rho 1.0, whatever
    cfg.rho is); cfg.max_iters and fit_mixture's restart and divergence
    policy apply unchanged. Because the refits are independent, the
    evaluated series can cross at a handful of levels; a final pointwise swap
    restores lmf <= umf everywhere (the fitted parameters themselves are left
    as-is).
    """
    upper, lower = bound_functions(h, fit)
    refit_cfg = dataclasses.replace(cfg, rho=_REFIT_RHO)
    umf_fit = fit_mixture(upper, fit, refit_cfg)
    lmf_fit = fit_mixture(lower, fit, refit_cfg)
    u = eval_mixture(umf_fit, GRID)
    l = eval_mixture(lmf_fit, GRID)
    return FOU(umf_fit, lmf_fit, np.maximum(u, l), np.minimum(u, l))
