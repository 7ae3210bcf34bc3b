"""Turn an evaluated population into likelihood summary statistics.

Candidates are weighted by their sampling density, rank-paired (weights in
descending order against points in ascending fitness order), and combined
into a mean estimate and a Monte-Carlo bias-corrected covariance estimate.
Both estimators cancel back to the simulation-distribution parameters
whenever the fitness ranking agrees with the density ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NonFiniteFitness, NonPositiveDensity, RepairFailed
from .linalg import scaled_jitter_eps, spd_repair
from .niw import SummaryStats

_WEIGHT_SUM_TOL = 1e-12

STRATEGIES = ("s1", "s2")


def compute_weights(densities: np.ndarray) -> np.ndarray:
    """Normalize strictly positive densities to weights summing to one."""
    densities = np.asarray(densities, dtype=float)
    if densities.ndim != 1:
        raise ValueError("densities must be a vector")
    if np.any(~np.isfinite(densities)) or np.any(densities <= 0):
        raise NonPositiveDensity("all densities must be finite and strictly positive")
    return densities / densities.sum()


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """A sampled population with fitness, densities and density-derived weights."""

    points: np.ndarray
    fitness: np.ndarray
    densities: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        fitness = np.asarray(self.fitness, dtype=float)
        densities = np.asarray(self.densities, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if points.ndim != 2 or points.shape[0] < 2:
            raise InvariantViolation("need a (k, d) matrix of at least k=2 points")
        k = points.shape[0]
        if fitness.shape != (k,) or densities.shape != (k,) or weights.shape != (k,):
            raise InvariantViolation("fitness/densities/weights must have length k")
        if np.any(densities <= 0):
            raise NonPositiveDensity("densities must be strictly positive")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise InvariantViolation("weights must be nonnegative and sum to one")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "fitness", fitness)
        object.__setattr__(self, "densities", densities)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_evaluations(
        cls, points: np.ndarray, fitness: np.ndarray, densities: np.ndarray
    ) -> "CandidateSet":
        """Build a candidate set, deriving the weights from the densities."""
        return cls(points=points, fitness=fitness, densities=densities,
                   weights=compute_weights(densities))

    @property
    def k(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class RankedCandidateSet:
    """The doubly-sorted pairing.

    ``points_f_asc[i]`` is the i-th point by ascending fitness (stably,
    preserving descending-weight order among fitness ties) and pairs with
    ``weights_w_desc[i]``, the i-th weight by descending magnitude. The
    provenance arrays map each slot back to indices of the originating
    candidate set.
    """

    points_f_asc: np.ndarray
    weights_w_desc: np.ndarray
    point_provenance: np.ndarray
    weight_provenance: np.ndarray


def rank_candidates(c: CandidateSet) -> RankedCandidateSet:
    """Apply the two-stage sort: weights descending, then fitness ascending (stable).

    Stage one jointly orders (point, weight) pairs by weight descending,
    ties broken by original index. Stage two stably reorders the points of
    that sequence by fitness ascending while the weight sequence keeps its
    stage-one order, yielding the rank pairing (best point, largest weight).

    Raises
    ------
    NonFiniteFitness
        If any fitness value is NaN (infinities are orderable and allowed).
    """
    if np.any(np.isnan(c.fitness)):
        raise NonFiniteFitness("fitness contains NaN")
    order_w = np.argsort(-c.weights, kind="stable")
    fitness_w = c.fitness[order_w]
    order_f_within = np.argsort(fitness_w, kind="stable")
    point_idx = order_w[order_f_within]
    return RankedCandidateSet(
        points_f_asc=c.points[point_idx],
        weights_w_desc=c.weights[order_w],
        point_provenance=point_idx,
        weight_provenance=order_w,
    )


def strategy_one_mean(r: RankedCandidateSet, c: CandidateSet, prior_mean: np.ndarray) -> np.ndarray:
    """Rank-paired weighted mean, corrected by the raw-estimate Monte-Carlo bias.

    Returns ``sum_i w_desc[i] * x_fasc[i] - (sum_i w[i] * x[i] - prior_mean)``:
    the reordered weighted mean minus the bias of the raw weighted mean
    relative to the known simulation mean. When the fitness and density
    orderings agree the two sums coincide and the prior mean is returned.
    """
    prior_mean = np.asarray(prior_mean, dtype=float)
    ranked_mean = r.weights_w_desc @ r.points_f_asc
    raw_mean = c.weights @ c.points
    return ranked_mean - (raw_mean - prior_mean)


def strategy_two_mean(c: CandidateSet) -> np.ndarray:
    """The population's fitness argmin; ties resolve to the lowest index."""
    if np.any(np.isnan(c.fitness)):
        raise NonFiniteFitness("fitness contains NaN")
    return c.points[int(np.argmin(c.fitness))].copy()


def corrected_covariance(
    r: RankedCandidateSet, c: CandidateSet, prior_cov: np.ndarray
) -> np.ndarray:
    """Rank-paired weighted scatter, bias-corrected by the raw weighted scatter.

    Computes ``A - (B - prior_cov)`` where A is the weighted scatter of the
    fitness-sorted points about their rank-paired mean and B is the weighted
    scatter of the raw pairing about the raw weighted mean. The result is
    symmetrized and, if indefinite, jitter-repaired; when the jitter ladder
    fails, the eigenvalues are floored at ``scaled_jitter_eps(prior_cov)``
    instead, which yields a positive-definite estimate.
    """
    prior_cov = np.asarray(prior_cov, dtype=float)
    ranked_mean = r.weights_w_desc @ r.points_f_asc
    dev_r = r.points_f_asc - ranked_mean
    a = (r.weights_w_desc[:, None] * dev_r).T @ dev_r
    raw_mean = c.weights @ c.points
    dev = c.points - raw_mean
    b = (c.weights[:, None] * dev).T @ dev
    out = a - (b - prior_cov)
    out = 0.5 * (out + out.T)
    try:
        return spd_repair(out)[0]
    except RepairFailed:
        # With k < d the two rank-(k-1) scatters can leave an indefinite part
        # at the scale of prior_cov itself, beyond the jitter ladder: project
        # onto the positive-definite cone, flooring eigenvalues relative to prior_cov.
        eigvals, eigvecs = np.linalg.eigh(out)
        out = (eigvecs * np.maximum(eigvals, scaled_jitter_eps(prior_cov))) @ eigvecs.T
        return 0.5 * (out + out.T)


def summarize(
    c: CandidateSet,
    prior_mean: np.ndarray,
    prior_cov: np.ndarray,
    strategy: str,
) -> SummaryStats:
    """Produce the update summary for one population.

    The mean estimate follows the selected strategy ("s1" rank-paired,
    "s2" argmin); the covariance estimate is the bias-corrected scatter for
    both. The full population size is credited as the observation count.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    r = rank_candidates(c)
    if strategy == "s1":
        mu_bar = strategy_one_mean(r, c, prior_mean)
    else:
        mu_bar = strategy_two_mean(c)
    sigma_bar = corrected_covariance(r, c, prior_cov)
    return SummaryStats(mu_bar=mu_bar, sigma_bar=sigma_bar, n_obs=c.k)
