"""Elementary symmetric polynomials, Garding cones, and the quotient operator.

The operator of interest is G(lam) = (sigma_k(lam)/sigma_l(lam))^(1/(k-l)),
restricted to the cone Gamma_k = {lam : sigma_1 > 0, ..., sigma_k > 0} where
it is positive, 1-homogeneous, elliptic and concave.  The solver's entry
points are batched over (batch, n) arrays, and `sigma_batch` is the one sigma
recurrence; the scalar reference forms the tests compare against are in
tests/oracles.py and call it on one row.

Conventions fixed here and relied on everywhere else:
  sigma_0 = 1,  sigma_j = 0 for j < 0 or j > len(lam).

All indices in this module are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb

import numpy as np

__all__ = [
    "QuotientParams",
    "sigma_batch",
    "log_quotient_grad_batch",
]


@dataclass(frozen=True)
class QuotientParams:
    """Quotient indices (k, l) in dimension n, with 2 <= k <= n, 0 <= l <= k-2."""

    n: int
    k: int
    l: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 2 <= self.k <= self.n:
            raise ValueError(f"k must satisfy 2 <= k <= n, got k={self.k}, n={self.n}")
        if not 0 <= self.l <= self.k - 2:
            raise ValueError(f"l must satisfy 0 <= l <= k-2, got l={self.l}, k={self.k}")

    @property
    def gap(self) -> int:
        return self.k - self.l

    @property
    def binomial_ratio(self) -> float:
        """C(n,k) / C(n,l), the quotient value of the all-ones spectrum."""
        return comb(self.n, self.k) / comb(self.n, self.l)


def sigma_batch(values: np.ndarray, jmax: int) -> np.ndarray:
    """All sigma_0..sigma_jmax for a (batch, n) array, via the one-entry update.

    Expanding prod_m (1 + lam_m x) one factor at a time costs O(n*jmax) and
    avoids the cancellation blowup of subset enumeration.  Each factor updates
    every sigma_j at once from the previous factor's sigma_{j-1}.  The result
    is the transpose of a (jmax + 1, batch) array, so each column sigma_j is
    contiguous.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    nbatch, n = vals.shape
    e = np.zeros((jmax + 1, nbatch))
    e[0] = 1.0
    for m in range(n):
        top = min(jmax, m + 1)
        e[1:top + 1] += vals[:, m] * e[:top]
    return e.T


def log_quotient_grad_batch(values: np.ndarray, sig: np.ndarray, k: int, l: int) -> np.ndarray:
    """d log(sigma_k/sigma_l) / d lam_i for a (batch, n) array, given its
    sigma_batch(values, k); the grad_G of log G^(k-l) (solver hot path).

    Entry i is sigma_{k-1}(lam|i)/sigma_k - sigma_{l-1}(lam|i)/sigma_l, with
    sigma_{-1} = 0, where lam|i drops entry i.  Dividing prod_m (1 + lam_m x)
    by the factor (1 + lam_i x) gives sigma_j(lam|i) = sigma_j(lam) -
    lam_i sigma_{j-1}(lam|i), for all i at once.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    reduced = [np.ones_like(vals)]
    for j in range(1, k):
        reduced.append(sig[:, j, None] - vals * reduced[-1])
    out = reduced[k - 1] / sig[:, k, None]
    if l >= 1:
        out -= reduced[l - 1] / sig[:, l, None]
    return out


def gamma_margins(values: np.ndarray, k: int) -> np.ndarray:
    """Per-row min over sigma_1..sigma_k for a (batch, n) array."""
    return reduce(np.minimum, sigma_batch(values, k).T[1:])
