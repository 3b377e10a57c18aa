"""Maximum likelihood estimation of the association parameter.

Strict concavity of the log-likelihood on (-1, 1) (every score term is
nonincreasing and at least one is strictly decreasing) means there are
only three outcomes:

* the score changes sign inside the interval: the unique interior root
  is the global maximizer;
* all effective shift values coincide: the likelihood is monotone and
  the maximizer is the boundary matching the sign of the common value;
* otherwise: the maximizer is whichever endpoint carries the larger
  log-likelihood.

Observations with zero weight contribute a constant to the likelihood
and are dropped; a dataset with nothing left has a flat likelihood and
no estimate at all, which is reported as :class:`NoDataError` rather
than an arbitrary value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mldegree, model, roots
from .model import Dataset, log_likelihood_weights

__all__ = ["FitResult", "NoDataError", "fit", "fit_from_weights"]


class NoDataError(ValueError):
    """Every observation is degenerate; the likelihood does not depend on
    theta and no maximizer exists."""


@dataclass(frozen=True)
class FitResult:
    """Fitted association parameter with diagnostics.

    ``loglik`` is the constant-free log-likelihood at ``theta_hat``.
    ``interior_root`` repeats ``theta_hat`` for an interior fit and is
    None at a boundary.  ``tie_broken`` flags the degenerate case of
    exactly equal endpoint likelihoods, resolved toward +1.
    """

    theta_hat: float
    loglik: float
    at_boundary: bool
    interior_root: float | None
    n_effective: int
    dropped: int
    tie_broken: bool = False

    def to_json_dict(self) -> dict:
        return {
            "theta_hat": self.theta_hat,
            "loglik": self.loglik,
            "at_boundary": self.at_boundary,
            "n_effective": self.n_effective,
            "dropped": self.dropped,
        }


def _boundary_loglik(w: np.ndarray, side: float) -> float:
    """Constant-free log-likelihood at an endpoint, moved inward by
    :func:`fgmexp.model.endpoint` when that endpoint is a pole."""
    return log_likelihood_weights(w, model.endpoint(w, side))


def _one_group(eff: np.ndarray) -> bool:
    """Whether the shifts 1/eff are all one group, as
    :func:`fgmexp.mldegree.profile` groups floats."""
    # A power of two taking the largest |w| into [0.5, 1] scales every
    # shift and its relative grouping tolerance exactly, so the groups are
    # those of 1/eff, yet tiny equal weights do not overflow.  A shift
    # that still overflows is over 2**1023 times another: they cannot be
    # one group.
    scaled = np.ldexp(eff, -min(int(np.frexp(np.abs(eff).max())[1]), 0))
    with np.errstate(over="ignore"):
        c = 1.0 / scaled
    return bool(np.isfinite(c).all()) and mldegree.profile(c).p == 1


def fit_from_weights(weights: Sequence[float]) -> FitResult:
    """Fit from a weight vector; see :func:`fit` for the contract.

    Raises ValueError for a weight that is not finite or lies outside
    [-1, 1], where the model's likelihood is not defined; the root
    search, which runs on every vector with a nonzero weight, checks it.
    """
    w_all = np.asarray(weights, dtype=float)
    eff = w_all[w_all != 0.0]
    dropped = int(w_all.size - eff.size)
    n_eff = int(eff.size)
    if n_eff == 0:
        raise NoDataError(
            "all observations have zero weight; the likelihood is flat in "
            "theta and no MLE exists"
        )
    root = roots.score_root_from_weights(eff)
    if root is not None:
        return FitResult(
            theta_hat=root,
            loglik=log_likelihood_weights(eff, root),
            at_boundary=False,
            interior_root=root,
            n_effective=n_eff,
            dropped=dropped,
        )
    # no interior root; equal shifts share one sign, so their score never
    # changes sign, and they always land here.  Shifts of opposite signs
    # are at least 2 apart and never one group, so only a one-signed
    # vector is grouped.
    if np.count_nonzero(eff > 0.0) in (0, n_eff) and _one_group(eff):
        # monotone likelihood: boundary by the sign of the common value
        theta = 1.0 if eff[0] > 0.0 else -1.0
        return FitResult(
            theta_hat=theta,
            loglik=_boundary_loglik(eff, theta),
            at_boundary=True,
            interior_root=None,
            n_effective=n_eff,
            dropped=dropped,
        )
    ll_neg = _boundary_loglik(eff, -1.0)
    ll_pos = _boundary_loglik(eff, 1.0)
    tie = ll_neg == ll_pos
    theta = -1.0 if ll_neg > ll_pos else 1.0
    return FitResult(
        theta_hat=theta,
        loglik=ll_neg if theta < 0 else ll_pos,
        at_boundary=True,
        interior_root=None,
        n_effective=n_eff,
        dropped=dropped,
        tie_broken=tie,
    )


def fit(data: Dataset) -> FitResult:
    """Maximum likelihood estimate of the association parameter.

    Degenerate observations are dropped first (their score terms vanish
    identically).  A sign change of the score yields the unique interior
    root.  Failing that, if all remaining shift values are equal
    (grouped as :func:`fgmexp.mldegree.profile` groups floats), the
    result is the boundary matching the sign of the common value;
    otherwise the endpoint with the larger log-likelihood wins, ties
    broken toward +1 and flagged.
    """
    return fit_from_weights(data.weights)
