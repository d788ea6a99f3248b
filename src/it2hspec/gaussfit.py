"""Sum-of-Gaussians fitting of the normalized histogram.

A histogram with several modes is modelled as a sum of symmetric 1-D bell
curves a*exp(-(g-mu)^2/(2*sigma^2)). Initial parameters come from a
polynomial least-squares sketch of the histogram (peak positions, heights,
and distances to the surrounding minima/roots); descent on the
squared-residual objective then refines them. Each step moves a fraction
rho of the Marquardt-damped Gauss-Newton step (JtJ + diag JtJ)^-1 Jt r,
built from the analytic 256-row Jacobian whose rows also form the gradient
Jt r.

A mixture derives its gray-level partition from its components when it is
built:
  * partition points: midpoints between consecutive centers, used later to
    cluster gray levels;
  * reaches: per-component integer intervals [c1, c2] where that component
    dominates every other one, found by scanning dominance between each
    pair of consecutive peaks (consecutive reaches share exactly their
    crossover endpoint and together tile [0, 255]).
domain_map assigns each gray level the smallest component index whose
reach contains it.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from .histogram import GRID, as_series
from .imagio import LEVELS

A_MIN = 1e-6
A_MAX = 1.5
SIGMA_MIN = 0.5
SIGMA_MAX = 256.0
MU_MIN = 0.0
MU_MAX = float(LEVELS - 1)

_POLY_DEGREES = (4, 6, 8, 10, 12)
_POLY_RMS_TARGET = 0.05
_FALLBACK_SIGMA = 32.0
_ROOT_IMAG_TOL = 1e-9

_TOL = 1e-9
_DIVERGENCE_RUN = 20
_MAX_RESTARTS = 5

@dataclass(frozen=True)
class Gaussian1D:
    """Symmetric bell curve: height a, center mu, spread sigma."""

    a: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not (0.0 < self.a <= A_MAX):
            raise ValueError(f"height must lie in (0, {A_MAX}], got {self.a}")
        if not (MU_MIN <= self.mu <= MU_MAX):
            raise ValueError(f"center must lie in [{MU_MIN}, {MU_MAX}], got {self.mu}")
        if not (SIGMA_MIN <= self.sigma <= SIGMA_MAX):
            raise ValueError(
                f"sigma must lie in [{SIGMA_MIN}, {SIGMA_MAX}], got {self.sigma}"
            )


@dataclass(frozen=True)
class FitConfig:
    """Descent settings.

    rho is the fraction of the damped Gauss-Newton step taken each
    iteration, p_new = p_old - rho * (JtJ + diag JtJ)^-1 Jt r, where J is the
    Jacobian of the residual and Jt r the gradient dJ/dp. It sets the main
    fit's step; the footprint refits (fou.extract_fou) take the full step
    and use only max_iters from this config.
    peak_ignore_ratio drops initial peaks smaller than that fraction of the
    tallest polynomial value.
    """

    rho: float = 0.04
    max_iters: int = 30000
    peak_ignore_ratio: float = 0.2

    def __post_init__(self):
        if self.rho <= 0 or self.max_iters < 0:
            raise ValueError("rho must be positive, max_iters non-negative")
        if not (0.0 <= self.peak_ignore_ratio < 1.0):
            raise ValueError("peak_ignore_ratio must lie in [0, 1)")


@dataclass(frozen=True)
class MixtureFit:
    """Fitted sum of Gaussians with the partition its components induce.

    partition_points (midpoints of consecutive centers) and reaches (the
    dominance intervals) are computed from the components when the fit is
    built. iterations counts descent steps over all restarts (0 for an init).
    """

    gaussians: list
    final_objective: float = 0.0
    diverged: bool = False
    iterations: int = 0
    restarts: int = 0
    partition_points: list = field(init=False)
    reaches: list = field(init=False)

    def __post_init__(self):
        if not self.gaussians:
            raise ValueError("a mixture needs at least one component")
        mus = [g.mu for g in self.gaussians]
        if any(b < a for a, b in zip(mus, mus[1:])):
            raise ValueError("components must be ordered by ascending center")
        object.__setattr__(self, "partition_points",
                           [0.5 * (a + b) for a, b in zip(mus, mus[1:])])
        object.__setattr__(self, "reaches", _reach_intervals(*_arrays(self)))

    @property
    def n_components(self) -> int:
        return len(self.gaussians)


def _arrays(fit: MixtureFit):
    a = np.array([g.a for g in fit.gaussians], dtype=float)
    mu = np.array([g.mu for g in fit.gaussians], dtype=float)
    sg = np.array([g.sigma for g in fit.gaussians], dtype=float)
    return a, mu, sg


def _component_matrix(a, mu, sg, g):
    z = (np.asarray(g, dtype=float)[None, :] - mu[:, None]) / sg[:, None]
    return a[:, None] * np.exp(-0.5 * z * z)


def eval_mixture(fit: MixtureFit, g):
    """Evaluate the mixture sum at gray level(s) g (scalar or array)."""
    a, mu, sg = _arrays(fit)
    scalar = np.isscalar(g) or np.ndim(g) == 0
    gs = np.atleast_1d(np.asarray(g, dtype=float))
    total = _component_matrix(a, mu, sg, gs).sum(axis=0)
    return float(total[0]) if scalar else total


def component_values(fit: MixtureFit, g=None) -> np.ndarray:
    """Per-component values, shape (n_components, len(g)); g defaults to 0..255."""
    a, mu, sg = _arrays(fit)
    gs = GRID if g is None else np.atleast_1d(np.asarray(g, dtype=float))
    return _component_matrix(a, mu, sg, gs)


def mixture_objective(fit: MixtureFit, h) -> float:
    """Half the summed squared residual between the mixture and the series."""
    target = as_series(h)
    r = eval_mixture(fit, GRID) - target
    return 0.5 * float(r @ r)


def _reach_bounds(a, mu, sg) -> list:
    """Crossover level between each pair of consecutive components.

    The dominance switch is searched on the integer levels between the two
    rounded centers; scanning only that band keeps every reach an interval
    even when unequal sigmas would make a full-range argmax disconnected.
    """
    bounds = []
    for i in range(len(mu) - 1):
        lo = int(np.floor(mu[i] + 0.5))
        hi = int(np.floor(mu[i + 1] + 0.5))
        lo = max(0, min(lo, LEVELS - 1))
        hi = max(lo, min(hi, LEVELS - 1))
        gs = np.arange(lo, hi + 1, dtype=float)
        zi = (gs - mu[i]) / sg[i]
        zj = (gs - mu[i + 1]) / sg[i + 1]
        fi = a[i] * np.exp(-0.5 * zi * zi)
        fj = a[i + 1] * np.exp(-0.5 * zj * zj)
        hits = np.flatnonzero(fj >= fi)
        if hits.size:
            b = lo + int(hits[0])
        else:
            b = int(np.floor(0.5 * (mu[i] + mu[i + 1]) + 0.5))
        bounds.append(b)
    return bounds


def _reach_intervals(a, mu, sg) -> list:
    if len(mu) == 1:
        return [(0, LEVELS - 1)]
    bounds = _reach_bounds(a, mu, sg)
    starts = [0] + bounds
    ends = bounds + [LEVELS - 1]
    return list(zip(starts, ends))


def _pack(a, mu, sg, objective: float, diverged: bool = False, iterations: int = 0,
          restarts: int = 0) -> MixtureFit:
    order = np.argsort(mu, kind="stable")
    a, mu, sg = a[order], mu[order], sg[order]
    gaussians = [
        Gaussian1D(float(a[i]), float(mu[i]), float(sg[i])) for i in range(len(a))
    ]
    return MixtureFit(gaussians, float(objective), diverged, iterations, restarts)


def domain_map(fit: MixtureFit) -> np.ndarray:
    """Per gray level 0..255, the smallest component index whose reach contains it."""
    ends = np.array([r[1] for r in fit.reaches[:-1]])
    return np.searchsorted(ends, GRID, side="left")


def _polynomial_sketch(values: np.ndarray) -> Polynomial:
    for degree in _POLY_DEGREES:
        poly = Polynomial.fit(GRID, values, degree)
        rms = float(np.sqrt(np.mean((poly(GRID) - values) ** 2)))
        if rms < _POLY_RMS_TARGET:
            break
    return poly


def _real_in_range(roots: np.ndarray) -> np.ndarray:
    real = roots[np.abs(roots.imag) < _ROOT_IMAG_TOL].real
    return np.sort(real[(real >= 0.0) & (real <= MU_MAX)])


def _critical_points(poly: Polynomial):
    """(maxima, minima) positions of the polynomial inside [0, 255]."""
    crit = _real_in_range(poly.deriv().roots())
    if crit.size == 0:
        return crit, crit
    curvature = poly.deriv(2)(crit)
    return crit[curvature < 0], crit[curvature > 0]


def heuristic_init(h, cfg: FitConfig) -> MixtureFit:
    """Pick starting parameters from a polynomial sketch of the histogram.

    1. Fit polynomials of degree 4, 6, ... 12 and keep the first whose RMS
       residual drops below 0.05 (or the degree-12 one).
    2. Take its positive maxima (derivative roots with negative curvature),
       dropping peaks below peak_ignore_ratio times the global maximum.
    3. Per surviving peak: height and location seed a and mu; sigma is the
       distance to the nearest polynomial minimum or real root (floored at
       0.5).

    With no usable peaks, a single component at the histogram argmax with
    sigma 32 is used instead.
    """
    values = as_series(h)
    if not np.any(values > 0):
        raise ValueError("cannot initialize from an all-zero histogram")
    poly = _polynomial_sketch(values)
    maxima, minima = _critical_points(poly)
    peaks = maxima[poly(maxima) > 0] if maxima.size else maxima
    if peaks.size:
        global_max = max(float(poly(GRID).max()), float(poly(peaks).max()))
        peaks = peaks[poly(peaks) >= cfg.peak_ignore_ratio * global_max]
    if peaks.size == 0:
        top = int(np.argmax(values))
        a = np.array([min(max(float(values[top]), A_MIN), A_MAX)])
        mu = np.array([float(top)])
        sg = np.array([_FALLBACK_SIGMA])
    else:
        markers = np.concatenate((minima, _real_in_range(poly.roots())))
        a = np.clip(poly(peaks), A_MIN, A_MAX)
        mu = peaks.astype(float)
        if markers.size:
            dist = np.abs(mu[:, None] - markers[None, :]).min(axis=1)
        else:
            dist = np.full(mu.shape, _FALLBACK_SIGMA)
        sg = np.clip(dist, SIGMA_MIN, SIGMA_MAX)
    fit = _pack(a, mu, sg, 0.0)
    return dataclasses.replace(fit, final_objective=mixture_objective(fit, values))


def _step_direction(jt, eye, d, f, r, sg) -> np.ndarray:
    """Marquardt-damped Gauss-Newton direction (JtJ + diag JtJ)^-1 Jt r.

    Rows of jt are the residual's derivatives with respect to a, mu and
    sigma (in that block order), so jt @ r is the objective's gradient; the
    a block (the bells e) is already in place and the other two are written
    here. The system is solved in variables scaled by 1/sqrt(diag JtJ):
    there its matrix is a correlation matrix plus the identity, whose
    eigenvalues are at least 1. A parameter with no effect on the residual
    gets no step. sg is a (k, 1) column.
    """
    k = sg.shape[0]
    w = f * d
    np.divide(w, sg * sg, out=jt[k:2 * k])
    sg_block = np.multiply(w, d, out=jt[2 * k:])
    sg_block /= sg ** 3
    jtj = jt @ jt.T
    norms = np.sqrt(jtj.diagonal())
    inv = 1.0 / np.where(norms > 0, norms, np.inf)
    scaled = inv[:, None] * jtj * inv + eye
    return inv * np.linalg.solve(scaled, inv * (jt @ r))


def _descent(target, a_init, mu_init, sg_init, rho, max_iters):
    """Steps of rho times the damped Gauss-Newton step; policy as in fit_mixture."""
    k = a_init.size
    lo = np.repeat([A_MIN, MU_MIN, SIGMA_MIN], k)
    hi = np.repeat([A_MAX, MU_MAX, SIGMA_MAX], k)
    eye = np.eye(3 * k)
    jt = np.empty((3 * k, GRID.size))
    e = jt[:k]
    p_init = np.concatenate((a_init, mu_init, sg_init))

    def state(p):
        col = p[:, None]
        a, mu, sg = col[:k], col[k:2 * k], col[2 * k:]
        d = GRID - mu
        np.exp(-0.5 * (d / sg) ** 2, out=e)
        f = a * e
        r = f.sum(axis=0) - target
        return (d, f, r, sg), 0.5 * float(r @ r)

    p = p_init
    terms, j_cur = state(p)
    best_p, best_j = p, j_cur
    grow = restarts = iterations = 0
    diverged = False
    for iterations in range(1, max_iters + 1):
        p = p - rho * _step_direction(jt, eye, *terms)
        np.minimum(np.maximum(p, lo, out=p), hi, out=p)
        terms, j_new = state(p)
        if j_new < best_j:
            best_p, best_j = p, j_new
        if abs(j_new - j_cur) < _TOL and j_new <= best_j + _TOL:
            break
        # a step counts toward divergence if it grew, or stalled above the
        # best objective seen (clamped blow-ups plateau instead of growing)
        if j_new > j_cur or (j_new >= j_cur and j_new > best_j):
            grow += 1
        else:
            grow = 0
        j_cur = j_new
        if grow >= _DIVERGENCE_RUN:
            if restarts >= _MAX_RESTARTS:
                diverged = True
                break
            restarts += 1
            rho *= 0.5
            p = p_init
            terms, j_cur = state(p)
            grow = 0
    return (best_p[:k], best_p[k:2 * k], best_p[2 * k:], best_j, diverged, iterations,
            restarts)


def fit_mixture(h, init: MixtureFit, cfg: FitConfig) -> MixtureFit:
    """Refine mixture parameters by damped Gauss-Newton descent.

    Each step moves all parameters by -rho times the Marquardt-damped
    Gauss-Newton direction (JtJ + diag JtJ)^-1 Jt r of the
    half-squared-residual objective, then clamps them back into the allowed
    box. The descent stops when the objective changes by less than 1e-9 (and
    is within 1e-9 of the best seen) or after max_iters steps. After 20
    consecutive steps that each grow the objective or stall above the best
    objective seen, the step fraction rho is halved and the parameters
    restart from init (at most 5 times); after that the best parameters seen
    so far are returned with diverged=True. The best-so-far parameters are
    also what a normal exit returns, so the reported objective never exceeds
    the initial one. rho is cfg.rho: 0.04 by default for the main fit from the
    polynomial sketch, 1.0 for the footprint refits, which start at the main
    fit's optimum.
    """
    return _pack(*_descent(as_series(h), *_arrays(init), float(cfg.rho),
                           int(cfg.max_iters)))
