"""Maximum likelihood estimation of the association parameter.

Every log-likelihood term log(1 + theta w_i) with w_i != 0 is strictly
concave on (-1, 1), so there are only two outcomes:

* the score changes sign inside the interval: its unique zero is the
  global maximizer;
* otherwise: the likelihood is monotone on the interval, and the
  maximizer is the endpoint that the sign of the score at 0, the exact
  sign of the sum of the given weights, points to.  The sign is exact
  for those float weights, not for the data they were rounded from.

Observations with zero weight contribute a constant to the likelihood
and are dropped; a dataset with nothing left has a flat likelihood and
no estimate at all, which is reported as :class:`NoDataError` rather
than an arbitrary value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import roots
from .model import Dataset, _log_likelihood, _weight_array

__all__ = ["FitResult", "NoDataError", "fit", "fit_from_weights"]


class NoDataError(ValueError):
    """Every observation is degenerate; the likelihood does not depend on
    theta and no maximizer exists."""


@dataclass(frozen=True)
class FitResult:
    """Fitted association parameter with diagnostics.

    ``loglik`` is the constant-free log-likelihood at ``theta_hat``.
    ``interior_root`` repeats ``theta_hat`` for an interior fit and is
    None at a boundary.
    """

    theta_hat: float
    loglik: float
    at_boundary: bool
    interior_root: float | None
    n_effective: int
    dropped: int

    def to_json_dict(self) -> dict:
        return {
            "theta_hat": self.theta_hat,
            "loglik": self.loglik,
            "at_boundary": self.at_boundary,
            "n_effective": self.n_effective,
            "dropped": self.dropped,
        }


def fit_from_weights(weights: Sequence[float]) -> FitResult:
    """Fit from a weight vector; see :func:`fit` for the contract.

    The weights are converted as every weight entry point converts them
    (see :func:`~fgmexp.model.log_likelihood_weights`): ValueError unless
    they are one-dimensional, of a bool, integer or float dtype.  Raises
    ValueError for a weight that is not finite or lies outside [-1, 1],
    where the model's likelihood is not defined; the root search, which
    runs on every vector with a nonzero weight, checks it.
    """
    w_all = _weight_array(weights)
    eff = w_all if np.logical_and.reduce(w_all) else w_all[w_all != 0.0]
    dropped = int(w_all.size - eff.size)
    n_eff = int(eff.size)
    if n_eff == 0:
        raise NoDataError(
            "all observations have zero weight; the likelihood is flat in "
            "theta and no MLE exists"
        )
    root = roots.score_root_from_weights(eff)
    if root is not None:
        theta = root
    else:
        # each log(1 + theta w_i) is strictly concave, so a score with no
        # zero in (-1, 1) keeps the sign it has at 0 and the likelihood
        # rises toward that endpoint; that sign, the exact sign of the sum
        # of the weights, is never 0 here, as the search returns 0.0 for
        # a zero sum.  No weight is -theta here: its term is -1e12 at the
        # search's bracket, 1e-12 inside theta, which outweighs fewer than
        # 2e12 other terms of at most 1/2 each and so gives a root
        theta = 1.0 if roots._exact_sign_sum(eff, np.add.reduce(eff), n_eff) > 0.0 else -1.0
    return FitResult(
        theta_hat=theta,
        loglik=_log_likelihood(eff, theta),
        at_boundary=root is None,
        interior_root=root,
        n_effective=n_eff,
        dropped=dropped,
    )


def fit(data: Dataset) -> FitResult:
    """Maximum likelihood estimate of the association parameter.

    Degenerate observations are dropped first (their score terms vanish
    identically).  A sign change of the score yields the unique interior
    root.  Failing that, the likelihood is monotone and the result is
    the boundary +1 when the remaining weights sum to a positive value,
    -1 when they sum to a negative one, by the exact sign of their sum,
    not of its float rounding.
    """
    return fit_from_weights(data.weights)
