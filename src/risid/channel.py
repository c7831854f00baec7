"""Spatially correlated Rayleigh channels and the cascaded reflection gain.

The two hops of a reflected link are zero-mean complex Gaussian vectors with a
sinc-kernel spatial correlation across the surface elements. The whole
reflected path collapses to one complex scalar per frame (block fading), which
is all the detector ever sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

SPEED_OF_LIGHT = 299792458.0
CHUNK_BYTES = 2**18  # most bytes of one chunk of draws or products (``chunk_rows``), about an L2 share
EIG_FLOOR = -1e-9  # most negative eigenvalue ``correlation_matrix`` clips to zero

__all__ = [
    "SPEED_OF_LIGHT",
    "RisGeometry",
    "LinkBudget",
    "CorrelationMatrix",
    "path_gain",
    "correlation_matrix",
    "correlation_weights",
    "identity_correlation",
    "sample_channel",
    "compound_scales",
    "compound_gains",
    "chunk_rows",
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
    """Per-hop path gains of one UE-surface-BS link."""

    beta_ur: float
    beta_rb: float

    def __post_init__(self):
        if min(self.beta_ur, self.beta_rb) <= 0:
            raise ValueError("link budget values must be positive")

    @classmethod
    def from_distances(cls, f_c: float, d_ur: float, d_rb: float) -> "LinkBudget":
        """Split the overall path gain evenly between the two hops."""
        beta = path_gain(f_c, d_ur, d_rb)
        hop = float(np.sqrt(beta))
        return cls(beta_ur=hop, beta_rb=hop)


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
        """``compound_scales`` weights lambda_i^2, computed once: R's squared eigenvalues above
        1e-12 times the largest, off F's column norms; None exactly when R is the identity."""
        if np.count_nonzero(self.r) == self.n and (np.diagonal(self.r) == 1.0).all():
            return None
        lam = np.einsum("ij,ij->j", self.factor, self.factor)
        return lam[lam > 1e-12 * lam.max()] ** 2


def correlation_matrix(geom: RisGeometry) -> CorrelationMatrix:
    """Sinc-kernel correlation across elements with a PSD sampling factor.

    R[w, w~] = sinc(2 ||u_w - u_w~|| / lambda). The kernel is analytically
    PSD but numerically rank deficient at dense spacing, so the factor comes
    from a symmetric eigendecomposition with tiny negative eigenvalues
    (>= ``EIG_FLOOR``) clipped to zero; anything below the floor indicates model
    misuse and raises. R is built in place beside one N x N temporary, dropped
    before ``np.linalg.eigh``, by the steps of ``np.linalg.norm``, ``np.sinc`` and
    (R + R^T) / 2 in their own order, so its bits are those of that expression.
    """
    pos = geom.element_positions()
    r, tmp = np.zeros((geom.n, geom.n)), np.empty((geom.n, geom.n))
    for u in pos.T:  # squared coordinate differences, summed x, y, z as np.linalg.norm does
        np.subtract.outer(u, u, out=tmp)
        tmp *= tmp
        r += tmp
    np.sqrt(r, out=r)
    r *= 2.0
    r /= geom.wavelength
    r *= np.pi  # np.sinc(x) = sin(pi x)/(pi x): pi x, eps where it is 0, then sin(y)/y
    np.copyto(r, np.finfo(float).eps, where=r == 0)
    np.sin(r, out=tmp)
    np.divide(tmp, r, out=r)
    np.copyto(tmp, r.T)
    r += tmp
    r /= 2.0
    del tmp
    np.fill_diagonal(r, 1.0)
    eigval, factor = np.linalg.eigh(r)
    if eigval.min() < EIG_FLOOR:
        raise ValueError(
            f"correlation matrix has eigenvalue {eigval.min():.3e} below the "
            f"PSD tolerance {EIG_FLOOR:.1e}"
        )
    factor *= np.sqrt(np.clip(eigval, 0.0, None))
    return CorrelationMatrix(r=r, factor=factor)


@lru_cache(maxsize=32)
def correlation_weights(geom: RisGeometry) -> np.ndarray | None:
    """``correlation_matrix(geom).weights``, read-only and kept per geometry: frames and the
    engine read only these, so neither keeps R or its factor."""
    weights = correlation_matrix(geom).weights
    if weights is not None:
        weights.flags.writeable = False
    return weights


def identity_correlation(n: int) -> CorrelationMatrix:
    """R = I, uncorrelated elements: the override for frames' ``correlations`` and ``sample_channel``."""
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


def chunk_rows(cols: int, least: int = 1) -> int:
    """Rows per chunk of ``cols`` float64 columns: the largest power of two whose rows fit in
    ``CHUNK_BYTES``, and at least ``least``."""
    return max(least, 1 << (max(CHUNK_BYTES // (8 * max(cols, 1)), 1).bit_length() - 1))


def compound_scales(rng: np.random.Generator, n: int, weights, size: int) -> np.ndarray:
    """``size`` scales s of the cascaded gain's compound law (``compound_gains``).

    With F = Q sqrt(Lambda), F^T F = Lambda, so the unscaled gain of two
    hops z F^T, z' F^T with z, z' ~ CN(0, 2 I) (``sample_channel`` before its
    sqrt(beta_hop / 2) scale) is sum_i lambda_i z_i z'_i. Given z it is
    CN(0, 4 s) with s = sum_i lambda_i^2 E_i, E_i = |z_i|^2 / 2 ~ Exp(1). ``weights`` None stands
    for R = I, where s ~ Gamma(n) (at n = 1, the Exp(1) that weights [1] draw); otherwise it
    holds ``CorrelationMatrix.weights``. Past 4 rows and ``CHUNK_BYTES``, the E_i are drawn and
    reduced in chunks of ``chunk_rows`` rows, at least 4, all of one shape: memory holds one
    chunk, and on OpenBLAS an 8192-row block gets the bits of one full-size product, which
    chunks of 1, 2 or 7 rows do not give.
    """
    if weights is None:
        return rng.standard_gamma(n, size)
    if size <= 4 or 8 * size * len(weights) <= CHUNK_BYTES:
        return rng.standard_exponential((size, len(weights))) @ weights
    step = chunk_rows(len(weights), 4)
    draws, s = np.empty((step, len(weights))), np.empty(size)
    for i in range(0, size, step):
        rng.standard_exponential(out=draws[: size - i])
        s[i : i + step] = (draws @ weights)[: size - i]
    return s


def compound_gains(rng: np.random.Generator, s: np.ndarray, power_w: float,
                   beta_ur: float, beta_rb: float) -> np.ndarray:
    """The cascaded gains of scales ``s`` (``compound_scales``): sqrt(P) sqrt(beta_ur beta_rb) / 2
    times sqrt(2 s) w, with w the stream's next len(s) standard normal pairs. The pairs fill in
    C order from one stream, so gains drawn for consecutive row ranges are those of one draw.
    """
    w = rng.standard_normal((len(s), 2)).view(np.complex128)[:, 0]
    return math.sqrt(power_w) * (math.sqrt(beta_ur * beta_rb) / 2.0) * (np.sqrt(2.0 * s) * w)
