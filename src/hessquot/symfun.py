"""Elementary symmetric polynomials, Garding cones, and the quotient operator.

The operator of interest is G(lam) = (sigma_k(lam)/sigma_l(lam))^(1/(k-l)),
restricted to the cone Gamma_k = {lam : sigma_1 > 0, ..., sigma_k > 0} where
it is positive, 1-homogeneous, elliptic and concave.  Scalar entry points take
any 1-D sequence; `sigma_batch` is the one sigma recurrence, vectorized for
the solver's hot paths, and the scalar entry points call it on one row.

Conventions fixed here and relied on everywhere else:
  sigma_0 = 1,  sigma_j = 0 for j < 0 or j > len(lam).

All indices in this module are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConeViolation, SamplingExhausted

__all__ = [
    "QuotientParams",
    "ConeReport",
    "as_spectrum",
    "sigma_batch",
    "log_quotient_grad_batch",
    "elementary_symmetric",
    "elementary_symmetric_excluding",
    "in_gamma_k",
    "quotient_G",
    "grad_G",
    "offdiag_second_G",
    "f_tensor",
    "newton_maclaurin_slack",
    "sample_gamma_k",
]

SAMPLING_CUBE = (-1.0, 2.0)
SAMPLING_DRAW_CAP = 1_000_000
_SAMPLING_BLOCK = 4096


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


@dataclass(frozen=True)
class ConeReport:
    """Membership report for Gamma_k: sigma_1..sigma_k, flag, and min margin."""

    sigmas: tuple
    member: bool
    margin: float


def as_spectrum(values) -> np.ndarray:
    lam = np.asarray(values, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("spectrum must be a 1-D sequence with at least 2 entries")
    if not np.all(np.isfinite(lam)):
        raise ValueError("spectrum entries must be finite")
    return lam


def sigma_batch(values: np.ndarray, jmax: int) -> np.ndarray:
    """All sigma_0..sigma_jmax for a (batch, n) array, via the one-entry update.

    Expanding prod_m (1 + lam_m x) one factor at a time costs O(n*jmax) and
    avoids the cancellation blowup of subset enumeration.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    nbatch, n = vals.shape
    e = np.zeros((nbatch, jmax + 1))
    e[:, 0] = 1.0
    for m in range(n):
        top = min(jmax, m + 1)
        for j in range(top, 0, -1):
            e[:, j] += vals[:, m] * e[:, j - 1]
    return e


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


def elementary_symmetric(values, j: int) -> float:
    """sigma_j(lam); 1 for j = 0, 0 for j < 0 or j > len(lam)."""
    lam = as_spectrum(values)
    if j < 0 or j > lam.size:
        return 0.0
    return float(sigma_batch(lam[None], j)[0, j])


def elementary_symmetric_excluding(values, j: int, excluded) -> float:
    """sigma_j of the spectrum with the entries at `excluded` removed.

    `excluded` holds one or two distinct 0-based indices.
    """
    lam = as_spectrum(values)
    idx = sorted(set(int(i) for i in excluded))
    if len(idx) != len(list(excluded)):
        raise IndexError(f"excluded indices must be distinct, got {sorted(excluded)}")
    if not 1 <= len(idx) <= 2:
        raise ValueError("excluded must contain one or two indices")
    for i in idx:
        if not 0 <= i < lam.size:
            raise IndexError(f"excluded index {i} out of range for n={lam.size}")
    reduced = np.delete(lam, idx)
    if j < 0 or j > reduced.size:
        return 0.0
    return float(sigma_batch(reduced[None], j)[0, j])


def in_gamma_k(values, k: int) -> ConeReport:
    """Report sigma_1..sigma_k, strict membership in Gamma_k, and the margin."""
    lam = as_spectrum(values)
    if not 1 <= k <= lam.size:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={lam.size}")
    sig = sigma_batch(lam[None], k)[0, 1:].tolist()
    margin = min(sig)
    return ConeReport(sigmas=tuple(sig), member=margin > 0.0, margin=margin)


def gamma_margins(values: np.ndarray, k: int) -> np.ndarray:
    """Per-row min over sigma_1..sigma_k for a (batch, n) array."""
    e = sigma_batch(values, k)
    return e[:, 1:].min(axis=1)


def _require_cone(lam: np.ndarray, k: int) -> ConeReport:
    report = in_gamma_k(lam, k)
    if not report.member:
        raise ConeViolation(
            f"spectrum outside Gamma_{k} (margin {report.margin:.3e})",
            margin=report.margin,
        )
    return report


def quotient_G(values, p: QuotientParams) -> float:
    """(sigma_k / sigma_l)^(1/(k-l)), defined and positive on Gamma_k."""
    lam = as_spectrum(values)
    report = _require_cone(lam, p.k)
    sig = (1.0,) + report.sigmas
    return (sig[p.k] / sig[p.l]) ** (1.0 / p.gap)


def grad_G(values, p: QuotientParams) -> np.ndarray:
    """Diagonal first derivatives of G at diag(lam); strictly positive on Gamma_k.

    Larger entries of lam get smaller derivatives, so a sorted spectrum yields
    a reverse-sorted gradient.
    """
    lam = as_spectrum(values)
    report = _require_cone(lam, p.k)
    # dG = G/(k-l) d log(sigma_k/sigma_l)
    sig = np.array([(1.0,) + report.sigmas])
    G = (sig[0, p.k] / sig[0, p.l]) ** (1.0 / p.gap)
    return G / p.gap * log_quotient_grad_batch(lam[None], sig, p.k, p.l)[0]


def offdiag_second_G(values, p: QuotientParams, i: int) -> float:
    """Second derivative of G in the symmetric off-diagonal pair (0, i).

    For eta = diag(lam) this is d^2 G / d eta_{0i} d eta_{i0}, always <= 0 on
    Gamma_k, and equal to (G^{00} - G^{ii}) / (lam_0 - lam_i) whenever the two
    entries differ.  `i` is 0-based and must be >= 1.
    """
    lam = as_spectrum(values)
    if not 1 <= i < lam.size:
        raise IndexError(f"pair index must satisfy 1 <= i < n, got {i}")
    _require_cone(lam, p.k)
    sig = sigma_batch(lam[None], p.k)[0].tolist()
    sk, sl = sig[p.k], sig[p.l]
    pref = (1.0 / p.gap) * (sk / sl) ** (1.0 / p.gap - 1.0)
    sk2, sl2 = (elementary_symmetric_excluding(lam, j - 2, {0, i}) for j in (p.k, p.l))
    return -pref * (sk2 * sl - sl2 * sk) / sl**2


def f_tensor(values, p: QuotientParams) -> np.ndarray:
    """Complementary sums F^{ii} = sum_{j != i} G^{jj}; sorted like lam."""
    g = grad_G(values, p)
    return g.sum() - g


def newton_maclaurin_slack(values, p: QuotientParams) -> tuple:
    """Slacks (rhs - lhs) of the two Newton-Maclaurin inequalities on Gamma_k.

    First:  k (n-l+1) sigma_{l-1} sigma_k  <=  l (n-k+1) sigma_l sigma_{k-1}.
    Second: the normalized-quotient comparison of exponent 1/(k-l) against the
    (k-1, l) quotient of exponent 1/(k-1-l).  Both slacks are >= 0 on Gamma_k.
    """
    lam = as_spectrum(values)
    _require_cone(lam, p.k)
    n, k, l = p.n, p.k, p.l
    if lam.size != n:
        raise ValueError(f"spectrum length {lam.size} does not match n={n}")
    sig = sigma_batch(lam[None], k)[0].tolist()
    s_lm1 = sig[l - 1] if l >= 1 else 0.0
    lhs1 = k * (n - l + 1) * s_lm1 * sig[k]
    rhs1 = l * (n - k + 1) * sig[l] * sig[k - 1]
    slack1 = rhs1 - lhs1

    norm = lambda j: sig[j] / comb(n, j)
    lhs2 = (norm(k) / norm(l)) ** (1.0 / (k - l))
    rhs2 = (norm(k - 1) / norm(l)) ** (1.0 / (k - 1 - l))
    slack2 = rhs2 - lhs2
    return slack1, slack2


def sample_gamma_k(p: QuotientParams, seed: int, count: int) -> np.ndarray:
    """Seeded rejection samples of Gamma_k spectra from the cube [-1, 2]^n.

    Returns a (count, n) array; identical seeds give identical output.  Raises
    SamplingExhausted past the fixed draw cap.
    """
    n, k = p.n, p.k
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = SAMPLING_CUBE
    accepted = []
    total = 0
    drawn = 0
    while total < count:
        if drawn >= SAMPLING_DRAW_CAP:
            raise SamplingExhausted(
                f"needed {count} samples of Gamma_{k} in n={n}, got {total} "
                f"after {drawn} draws"
            )
        block = rng.uniform(lo, hi, size=(_SAMPLING_BLOCK, n))
        drawn += _SAMPLING_BLOCK
        keep = block[gamma_margins(block, k) > 0.0]
        accepted.append(keep)
        total += keep.shape[0]
    return np.concatenate(accepted, axis=0)[:count]
