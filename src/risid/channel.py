"""Spatially correlated Rayleigh channels and the cascaded reflection gain.

The two hops of a reflected link are zero-mean complex Gaussian vectors with a
sinc-kernel spatial correlation across the surface elements. The whole
reflected path collapses to one complex scalar per frame (block fading), which
is all the detector ever sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299792458.0

__all__ = [
    "SPEED_OF_LIGHT",
    "RisGeometry",
    "LinkBudget",
    "CorrelationMatrix",
    "path_gain",
    "correlation_matrix",
    "identity_correlation",
    "sample_channel",
    "cascaded_gain",
    "compound_gains",
]


@dataclass(frozen=True)
class RisGeometry:
    """Element layout of one surface: counts, spacing and carrier wavelength."""

    n: int
    n_h: int
    d_h: float
    d_v: float
    wavelength: float

    def __post_init__(self):
        if self.n <= 0 or self.n_h <= 0 or self.n % self.n_h != 0:
            raise ValueError("element count must be positive and divisible by row length")
        if min(self.d_h, self.d_v, self.wavelength) <= 0:
            raise ValueError("spacings and wavelength must be positive")

    def element_positions(self) -> np.ndarray:
        """(N, 3) positions: x fixed at 0, columns along y, rows along z."""
        w = np.arange(self.n)
        i_h = w % self.n_h
        i_v = w // self.n_h
        return np.stack(
            [np.zeros(self.n), i_h * self.d_h, i_v * self.d_v], axis=1
        )


@dataclass(frozen=True)
class LinkBudget:
    """Per-hop and overall path gains of one UE-surface-BS link."""

    f_c: float
    d_ur: float
    d_rb: float
    beta_ur: float
    beta_rb: float

    def __post_init__(self):
        if min(self.f_c, self.d_ur, self.d_rb, self.beta_ur, self.beta_rb) <= 0:
            raise ValueError("link budget values must be positive")

    @property
    def beta(self) -> float:
        return self.beta_ur * self.beta_rb

    @classmethod
    def from_distances(cls, f_c: float, d_ur: float, d_rb: float) -> "LinkBudget":
        """Split the overall path gain evenly between the two hops."""
        beta = path_gain(f_c, d_ur, d_rb)
        hop = float(np.sqrt(beta))
        return cls(f_c=f_c, d_ur=d_ur, d_rb=d_rb, beta_ur=hop, beta_rb=hop)


def path_gain(f_c: float, d_ur: float, d_rb: float) -> float:
    """Overall two-hop path gain: lambda^4 / (256 pi^2 d_ur^2 d_rb^2)."""
    if min(f_c, d_ur, d_rb) <= 0:
        raise ValueError("frequency and distances must be positive")
    lam = SPEED_OF_LIGHT / f_c
    return lam**4 / (256.0 * np.pi**2 * d_ur**2 * d_rb**2)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Element correlation matrix R together with a sampling factor F, F F^T ~ R.

    ``weights`` reads the compound law's weights off F, once per matrix, and
    ``sample_channel`` draws explicit hop vectors with it.
    """

    r: np.ndarray
    factor: np.ndarray

    @property
    def n(self) -> int:
        return self.r.shape[0]

    @cached_property
    def weights(self) -> np.ndarray | None:
        """``compound_gains`` weights lambda_i^2, computed once: R's squared eigenvalues above
        1e-12 times the largest, off F's column norms; None exactly when R is the identity."""
        if np.count_nonzero(self.r) == self.n and (np.diagonal(self.r) == 1.0).all():
            return None
        lam = np.einsum("ij,ij->j", self.factor, self.factor)
        return lam[lam > 1e-12 * lam.max()] ** 2


def correlation_matrix(geom: RisGeometry, eig_floor: float = -1e-9) -> CorrelationMatrix:
    """Sinc-kernel correlation across elements with a PSD sampling factor.

    R[w, w~] = sinc(2 ||u_w - u_w~|| / lambda). The kernel is analytically
    PSD but numerically rank deficient at dense spacing, so the factor comes
    from a symmetric eigendecomposition with tiny negative eigenvalues
    (>= eig_floor) clipped to zero; anything below the floor indicates model
    misuse and raises.
    """
    pos = geom.element_positions()
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    r = np.sinc(2.0 * dist / geom.wavelength)  # np.sinc(x) = sin(pi x)/(pi x)
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    eigval, eigvec = np.linalg.eigh(r)
    if eigval.min() < eig_floor:
        raise ValueError(
            f"correlation matrix has eigenvalue {eigval.min():.3e} below the "
            f"PSD tolerance {eig_floor:.1e}"
        )
    factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    return CorrelationMatrix(r=r, factor=factor)


def identity_correlation(n: int) -> CorrelationMatrix:
    """Uncorrelated elements; used by all closed-form analysis."""
    eye = np.eye(n)
    return CorrelationMatrix(r=eye, factor=eye.copy())


def sample_channel(
    corr: CorrelationMatrix,
    beta_hop: float,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Draw a (size, N) batch of CN(0, beta_hop * R) vectors: sqrt(beta_hop / 2) * z F^T.

    The explicit-hop reference that ``compound_gains`` is tested against; reproducible
    bit-for-bit for a given generator state.
    """
    z = rng.standard_normal((size, corr.n, 2)).view(np.complex128)[..., 0]
    return math.sqrt(beta_hop / 2.0) * (z @ corr.factor.T)


def compound_gains(
    rng: np.random.Generator, n: int, weights, size: int,
    power_w: float, beta_ur: float, beta_rb: float, stop: int | None = None,
) -> np.ndarray:
    """``size`` cascaded gains drawn from their exact compound law, without hops.

    With F = Q sqrt(Lambda), F^T F = Lambda, so the unscaled gain of two
    hops z F^T, z' F^T with z, z' ~ CN(0, 2 I) (``sample_channel`` before its
    sqrt(beta_hop / 2) scale) is sum_i lambda_i z_i z'_i. Given z it is
    CN(0, 4 s) with s = sum_i lambda_i^2 E_i, E_i = |z_i|^2 / 2 ~ Exp(1):
    the gain is sqrt(2 s) w with w a standard normal pair. ``weights`` None stands for R = I,
    where s ~ Gamma(n) (at n = 1, the Exp(1) that weights [1] draw); otherwise it holds
    ``CorrelationMatrix.weights``. Draws s, then w; with ``stop``, w and the gains only for the
    first ``stop`` trials, which are those of a full draw (arrays fill in C order from one stream).
    """
    if weights is None:
        s = rng.standard_gamma(n, size)
    else:
        s = rng.standard_exponential((size, len(weights))) @ weights
    w = rng.standard_normal((size if stop is None else stop, 2)).view(np.complex128)[:, 0]
    return math.sqrt(power_w) * (math.sqrt(beta_ur * beta_rb) / 2.0) * (np.sqrt(2.0 * s[: len(w)]) * w)


def cascaded_gain(h_ur: np.ndarray, h_rb: np.ndarray, power_w: float) -> complex:
    """Scalar gain of the whole reflected path: sqrt(P) * sum_i h_ur_i h_rb_i."""
    h_ur = np.asarray(h_ur)
    h_rb = np.asarray(h_rb)
    if h_ur.shape != h_rb.shape:
        raise ValueError("hop vectors must have equal length")
    return complex(np.sqrt(power_w) * (h_ur * h_rb).sum())
