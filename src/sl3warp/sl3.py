"""sl(3) basis, exponential map, and the six-factor homography parameterization.

A homography is described here by eight coefficients ``b = (b1..b8)``
weighting a fixed basis of 3x3 matrices: x/y translation, rotation,
isotropic scale, aspect stretch, x shear, and the two perspective
directions.  Group elements come either from the matrix exponential of the
full algebra element or from the closed-form product of six subgroup
factors; factor by factor the two agree up to projective scale.

Matrices are plain ``(3, 3)`` float arrays.  ``normalize_homography`` fixes
the projective scale so that ``det H = 1``; comparisons that should ignore
scale go through ``projective_distance``.  Points are projected through a
homography by ``apply_homography``, which owns the in-front rule: a point
with homogeneous ``w <= 0`` lies behind the camera and maps to NaN.
Internally it projects coordinate planes, ``(3, n)`` rows ``x, y, 1`` to
``(2, n)`` rows ``x, y``, so each elementwise step runs over a long row.

Coefficients outside the group fail one way: for every finite ``b``,
``params_from_coeffs``, ``factor_matrices`` and ``compose_homography``
return finite values or raise ``ValueError`` (``SingularMatrixError`` where
the product is numerically singular), with no ``OverflowError`` and no
numpy warning.  The exponential is a Taylor series with scaling and
squaring (Moler & Van Loan, SIAM Review 2003, method 3).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "SingularMatrixError",
    "UnrepresentableError",
    "generators",
    "params_from_coeffs",
    "coeffs_from_params",
    "translation_matrix",
    "rotation_scale_matrix",
    "aspect_matrix",
    "shear_matrix",
    "perspective_x_matrix",
    "perspective_y_matrix",
    "FACTOR_COEFFS",
    "factor_matrices",
    "compose_homography",
    "decompose_homography",
    "exp_sl3",
    "normalize_homography",
    "projective_distance",
    "apply_homography",
]


class SingularMatrixError(ValueError):
    """Matrix is singular or numerically indistinguishable from singular."""


class UnrepresentableError(ValueError):
    """Homography lies outside the orientation-preserving six-factor family."""


def _basis() -> np.ndarray:
    a = np.zeros((8, 3, 3))
    a[0, 0, 2] = 1.0                      # x translation
    a[1, 1, 2] = 1.0                      # y translation
    a[2, 0, 1], a[2, 1, 0] = -1.0, 1.0    # rotation
    a[3, 2, 2] = -1.0                     # isotropic scale
    a[4, 0, 0], a[4, 1, 1] = 1.0, -1.0    # aspect stretch
    a[5, 0, 1] = 1.0                      # x shear
    a[6, 2, 0] = 1.0                      # perspective, x direction
    a[7, 2, 1] = 1.0                      # perspective, y direction
    a.setflags(write=False)
    return a


_GENERATORS = _basis()


def generators() -> list[np.ndarray]:
    """Return the eight basis matrices, in the fixed subgroup order.

    The arrays are read-only views; copy before mutating.  Note the scale
    generator is the projective representative ``diag(0, 0, -1)`` (trace -1);
    the other seven are traceless.  All eight are linearly independent.
    """
    return list(_GENERATORS)


def _as_coeffs(b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (8,):
        raise ValueError(f"coefficient vector must have shape (8,), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("coefficient vector contains non-finite entries")
    return b


def _as_matrix(h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.shape != (3, 3):
        raise ValueError(f"homography must have shape (3, 3), got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("homography contains non-finite entries")
    return h


# Largest |b4|, |b5|: gamma, k1 and 1 / k1 stay finite normal floats.
_MAX_LOG = 708.0


def params_from_coeffs(b) -> np.ndarray:
    """Map coefficients to the parameter vector ``[t1, t2, theta, gamma, k1, k2, v1, v2]``.

    ``gamma = exp(b4)`` and ``k1 = exp(b5)``; the remaining entries pass
    through unchanged.  Raises ``ValueError`` when ``|b4|`` or ``|b5|``
    exceeds 708, past which gamma, k1 or the aspect factor's ``1 / k1``
    would overflow or underflow.
    """
    b = _as_coeffs(b)
    if abs(b[3]) > _MAX_LOG or abs(b[4]) > _MAX_LOG:
        raise ValueError(f"b4 and b5 must lie within +-{_MAX_LOG:g}, got {b[3]:g} and {b[4]:g}")
    x = b.copy()
    x[3] = math.exp(b[3])
    x[4] = math.exp(b[4])
    return x


def coeffs_from_params(x) -> np.ndarray:
    """Inverse of :func:`params_from_coeffs`; requires ``gamma > 0`` and ``k1 > 0``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (8,):
        raise ValueError(f"parameter vector must have shape (8,), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("parameter vector contains non-finite entries")
    if x[3] <= 0.0 or x[4] <= 0.0:
        raise ValueError("gamma and k1 must be strictly positive")
    b = x.copy()
    b[3] = math.log(x[3])
    b[4] = math.log(x[4])
    return b


def translation_matrix(t1: float, t2: float) -> np.ndarray:
    return np.array([[1.0, 0.0, t1], [0.0, 1.0, t2], [0.0, 0.0, 1.0]])


def rotation_scale_matrix(theta: float, gamma: float) -> np.ndarray:
    c, s = gamma * math.cos(theta), gamma * math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def aspect_matrix(k1: float) -> np.ndarray:
    return np.array([[k1, 0.0, 0.0], [0.0, 1.0 / k1, 0.0], [0.0, 0.0, 1.0]])


def shear_matrix(k2: float) -> np.ndarray:
    return np.array([[1.0, k2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def perspective_x_matrix(v1: float) -> np.ndarray:
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [v1, 0.0, 1.0]])


def perspective_y_matrix(v2: float) -> np.ndarray:
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, v2, 1.0]])


# Coefficient positions of each of the six factors, in product order:
# translation, rotation+scale, aspect, shear, then the two perspective
# directions.  The estimation stages follow the same order.
FACTOR_COEFFS = ((0, 1), (2, 3), (4,), (5,), (6,), (7,))


def factor_matrices(b) -> tuple[np.ndarray, ...]:
    """The six subgroup factors of ``b``, one per entry of ``FACTOR_COEFFS``."""
    x = params_from_coeffs(b)
    return (
        translation_matrix(x[0], x[1]),
        rotation_scale_matrix(x[2], x[3]),
        aspect_matrix(x[4]),
        shear_matrix(x[5]),
        perspective_x_matrix(x[6]),
        perspective_y_matrix(x[7]),
    )


def compose_homography(b) -> np.ndarray:
    """Build the homography as the ordered product of the six subgroup factors.

    The factors of :func:`factor_matrices` are multiplied left to right and
    the result is normalized to ``det = 1``.  A product that overflows is
    reported by the normalization's checks as ``ValueError``.
    """
    factors = factor_matrices(b)
    with np.errstate(all="ignore"):
        return normalize_homography(functools.reduce(np.matmul, factors))


def decompose_homography(h) -> np.ndarray:
    """Recover the coefficient vector of a homography in the six-factor family.

    The perspective row is peeled off first, then the remaining affine part
    is factored as translation times rotation times diagonal stretch times
    shear (a 2x2 QR with a proper-rotation Q).  Raises
    :class:`UnrepresentableError` if the affine block reverses orientation:
    the factor family contains no reflections.
    """
    h = normalize_homography(_as_matrix(h))
    w = h[2, 2]
    if abs(w) < 1e-12:
        raise UnrepresentableError("origin maps to the line at infinity")
    v1 = h[2, 0] / w
    v2 = h[2, 1] / w
    # Right-multiplying by the inverse perspective factors zeroes the last row.
    a = h @ np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-v1, -v2, 1.0]])
    a = a / w
    m = a[:2, :2]
    det_m = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det_m <= 0.0:
        raise UnrepresentableError(
            "affine block is orientation-reversing or singular (det <= 0)"
        )
    t1, t2 = a[0, 2], a[1, 2]
    r11 = math.hypot(m[0, 0], m[1, 0])
    c, s = m[0, 0] / r11, m[1, 0] / r11
    r12 = c * m[0, 1] + s * m[1, 1]
    r22 = -s * m[0, 1] + c * m[1, 1]  # equals det_m / r11 > 0
    theta = math.atan2(s, c)
    if theta == -math.pi:
        theta = math.pi
    gamma = math.sqrt(r11 * r22)
    k1 = math.sqrt(r11 / r22)
    k2 = r12 / r11
    return np.array([t1, t2, theta, math.log(gamma), math.log(k1), k2, v1, v2])


def exp_sl3(b) -> np.ndarray:
    """Matrix exponential of the algebra element ``sum_i b_i A_i``.

    Taylor series with scaling and squaring: the element is halved until
    its 1-norm is at most 2, summed over 30 terms in Horner form and squared
    back, to about 3e-15 relative error over the working coefficient range
    (``max |b_i| <= 5``).  On a nilpotent element (translation or
    perspective alone) the series ends by itself and the squarings are
    exact, so the result is exactly ``I + m``.  The raw exponential is
    returned without projective renormalization.
    """
    b = _as_coeffs(b)
    m = np.tensordot(b, _GENERATORS, axes=1)
    return _expm3(m)


def normalize_homography(h) -> np.ndarray:
    """Rescale so that ``det H = 1`` (the unique real cube-root scaling)."""
    h, d, _ = _nonsingular(h)
    return h / np.cbrt(d)


def projective_distance(h1, h2) -> float:
    """Frobenius distance between scale-canonicalized homographies.

    Each input is scaled to unit Frobenius norm with the sign fixed so its
    largest-magnitude entry is positive; the distance is zero exactly when
    the two matrices are proportional.
    """
    return float(np.linalg.norm(_unit_projective(h1) - _unit_projective(h2)))


def _nonsingular(h) -> tuple[np.ndarray, float, float]:
    """``h`` as a matrix with its determinant and Frobenius norm.

    Raises :class:`SingularMatrixError` when the determinant is negligible
    against the norm, and ``ValueError`` when it overflows.
    """
    h = _as_matrix(h)
    d = float(np.linalg.det(h))
    scale = float(np.linalg.norm(h))
    if not math.isfinite(d):
        raise ValueError("matrix determinant is not finite")
    try:
        negligible = abs(d) < (1e-9 * scale) ** 3
    except OverflowError:  # a bound past the float range exceeds every finite d
        negligible = True
    if scale == 0.0 or negligible:
        raise SingularMatrixError("matrix is singular or nearly singular")
    return h, d, scale


def _unit_projective(h) -> np.ndarray:
    h, _, scale = _nonsingular(h)
    u = h / scale
    if u.flat[np.abs(u).argmax()] < 0:
        u = -u
    return u


def apply_homography(h, points) -> np.ndarray:
    """Map center-origin points ``(..., 2)`` through a homography.

    The sign of ``h`` is meaningful, as for every :func:`compose_homography`
    result and its inverse: a point whose homogeneous ``w`` is not positive
    lies on or behind the line at infinity and comes back as NaN.
    """
    h = _as_matrix(h)
    p = np.asarray(points, dtype=float)
    if p.shape[-1:] != (2,):
        raise ValueError(f"points must have shape (..., 2), got {p.shape}")
    planes = np.vstack([p.reshape(-1, 2).T, np.ones(p.size // 2)])
    return np.ascontiguousarray(_project(h, planes).T).reshape(p.shape)


def _project(h: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """``(x / w, y / w)`` planes ``(2, n)`` of ``h @ planes`` for homogeneous
    coordinate planes ``(3, n)``; NaN where ``w <= 0``."""
    q = h @ planes
    with np.errstate(all="ignore"):
        out = q[:2] / q[2]
    out[:, q[2] <= 0.0] = np.nan
    return out


def _expm3(m: np.ndarray) -> np.ndarray:
    a, squarings = m, 0
    while float(np.max(np.abs(a).sum(axis=0))) > 2.0:
        a, squarings = a / 2.0, squarings + 1
    r = ident = np.eye(3)
    for k in range(30, 0, -1):  # Horner: I + a (I + a/2 (I + ... a/30))
        r = ident + a @ r / k
    for _ in range(squarings):
        r = r @ r
    return r
