"""Direct photometric refinement of a homography in its sl(3) coefficients.

Correlation captures at most translation and scale-rotation, one at a
time.  This stage solves every enabled coefficient, coupling included, from
that estimate by minimizing the photometric residual

    r(x) = search(H(b) x) - template(x)

over the pixels both images cover, coarse to fine on a 2x2 box pyramid,
with Levenberg-Marquardt steps on the coefficient vector ``b`` itself.  The
Jacobian pairs the ESM-averaged gradient ``(grad T + grad I_w) / 2`` of
Benhimane & Malis (IROS 2004) with the tangent of the six-factor product:
a change of ``b_i`` moves ``H`` to ``H (I + db_i M_i)``, where ``M_i`` is
the generator ``A_i`` carried through the factors after its own.  Updating
``b`` directly keeps ``h == compose_homography(b)`` exact and leaves every
coefficient outside ``free`` untouched.

Pixels that are exactly zero (masked-out regions) become NaN, and the
search is padded with NaN.  NaN carries through the box pyramid, the
bilinear blend and the central differences, so a pixel counts only where
its residual and ESM gradient are finite: both images cover it and its
four neighbors, and no sample falls off the search image.  The coarse
levels run from every given start plus the identity (in
``estimate``: the capture estimate, the plain windowed translation peak,
the identity) and keep the one with the lowest cost, so the photometric
cost alone arbitrates between the correlation routes.  A step that is
singular, non-finite or brings the horizon into the template is rejected,
and if the finest level ends no lower than the first start, that start
comes back unchanged.  The stage never raises on images of matching shape
and is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import ImageGrid, _centered_grid, _pad_planes, _sample_padded
from .sl3 import FACTOR_COEFFS, _project, compose_homography, factor_matrices, generators

__all__ = ["refine", "residual_jacobian"]

# Pyramid: 2x2 box reductions while both sides stay at least _MIN_SIDE
# (an 8-pixel level has too few pixels for eight coefficients and
# sends the identity start astray).  The finest level refined is the first
# whose larger side is at most _FINEST_SIDE, and the _START_LEVELS
# coarsest levels run from every start.
_MIN_SIDE = 16
_FINEST_SIDE = 128
_START_LEVELS = 2
# Levenberg-Marquardt schedule, per level.
_MAX_ITERATIONS = 12
_LAMBDA_START = 1e-3
_LAMBDA_MIN = 1e-7
_LAMBDA_MAX = 1e4
_RELATIVE_DECREASE = 1e-2
# Fewer valid pixels than this make a level's cost meaningless.
_MIN_VALID = 16

_GENERATORS = np.stack(generators())


@dataclass(frozen=True)
class _Level:
    """One pyramid level: the template side precomputed, the search as one
    NaN-padded plane.  NaN marks every missing pixel, and the template's
    gradients are NaN wherever a neighbor is missing.  ``points`` holds one
    row each for x, y and 1, so projection and the Jacobian work on rows."""

    template: np.ndarray
    grad_x: np.ndarray
    grad_y: np.ndarray
    search: np.ndarray  # (1, h + 2, w + 2), see raster._pad_planes
    points: np.ndarray  # (3, h*w) homogeneous center-origin planes, row-major pixels
    offset: np.ndarray  # (2, 1) ``points`` minus the level's own center-origin coordinates
    scale: np.ndarray   # level coefficients are ``scale * b``


@dataclass(frozen=True)
class _Evaluation:
    cost: float
    residual: np.ndarray  # over ``valid`` pixels, like the ESM gradients
    grad_x: np.ndarray
    grad_y: np.ndarray
    valid: np.ndarray


def refine(template: ImageGrid, search: ImageGrid, starts, free) -> np.ndarray:
    """The best refinement of ``starts`` so that ``search(H(b) x)`` matches
    ``template(x)``.

    ``starts`` is one 8-vector or a stack of them; the coarse levels run
    from each, then from the identity, and the finer levels continue the
    one with the lowest cost.  Only the coefficient positions in ``free``
    change: the other entries of every start are taken from the first.
    Returns a new 8-vector, or a copy of the first start when refinement
    cannot lower its photometric cost.  Raises ``ValueError`` only for
    images of different shapes.
    """
    if template.pixels.shape != search.pixels.shape:
        raise ValueError("template and search must have identical dimensions")
    rows = np.atleast_2d(np.array(starts, dtype=float))
    first = rows[0]
    free = np.array(sorted(set(free)), dtype=int)
    if free.size == 0:
        return first
    levels = _pyramid(template, search)
    coarse, fine = levels[:_START_LEVELS], levels[_START_LEVELS:]

    candidates: list[np.ndarray] = []
    for row in (*rows, np.zeros(8)):
        start = first.copy()
        start[free] = row[free]
        if not any(np.array_equal(start, c) for c in candidates):
            candidates.append(start)
    best_b, best = first, None
    for start in candidates:
        b, ev = start, None
        for level in coarse:
            b, ev = _solve_level(level, b, free)
        if ev is not None and (best is None or ev.cost < best.cost):
            best_b, best = b, ev
    b, ev = best_b, best
    for level in fine:
        b, ev = _solve_level(level, b, free)
    baseline = _evaluate(levels[-1], first)
    if ev is None or (baseline is not None and ev.cost >= baseline.cost):
        return first
    return b


def residual_jacobian(
    template: ImageGrid, search: ImageGrid, b, free
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-resolution residual, its valid-pixel mask and the ESM Jacobian.

    Returns ``(r, valid, J)``: ``r`` and the rows of ``J`` follow the valid
    pixels in row-major order, and ``J`` has one column per entry of
    ``free``.  Empty arrays (and an all-false mask) when ``H(b)`` is
    unusable or fewer than ``_MIN_VALID`` pixels are valid.
    """
    free = np.array(free, dtype=int)
    level = _level(_plane(template), _plane(search), np.zeros(2), 0)
    ev = _evaluate(level, np.asarray(b, dtype=float))
    if ev is None:
        return np.zeros(0), np.zeros(template.pixels.shape[:2], bool), np.zeros((0, free.size))
    return ev.residual, ev.valid, _jacobian(level, np.asarray(b, dtype=float), ev, free)


def _plane(image: ImageGrid) -> np.ndarray:
    """The image's intensity, with NaN where it is exactly zero (masked)."""
    p = image.pixels[:, :, 0] if image.channels == 1 else image.pixels.mean(axis=2)
    return np.where(p == 0.0, np.nan, p)


def _pyramid(template: ImageGrid, search: ImageGrid) -> list[_Level]:
    """Levels from the coarsest to the finest one refined.

    The box average keeps NaN, so a reduced pixel is valid only when its
    whole full-resolution footprint is.  An odd last row or column is
    dropped before a reduction; the half-pixel shift this puts between the
    level's center and the full image's accumulates in the level's offset.
    """
    planes = [(_plane(template), _plane(search), np.zeros(2))]
    while all(side // 2 >= _MIN_SIDE for side in planes[-1][0].shape):
        h, w = planes[-1][0].shape
        t, s = (p[: h - h % 2, : w - w % 2] for p in planes[-1][:2])
        offset = (planes[-1][2] - 0.5 * np.array([w % 2, h % 2])) / 2.0
        planes.append((_reduce(t), _reduce(s), offset))
    finest = next(
        (k for k, p in enumerate(planes) if max(p[0].shape) <= _FINEST_SIDE),
        len(planes) - 1,
    )
    return [_level(*planes[k], k) for k in range(len(planes) - 1, finest - 1, -1)]


def _reduce(plane: np.ndarray) -> np.ndarray:
    """2x2 box average of an even-sized plane."""
    return 0.25 * (plane[0::2, 0::2] + plane[0::2, 1::2] + plane[1::2, 0::2] + plane[1::2, 1::2])


def _level(template, search, offset, k: int) -> _Level:
    h, w = template.shape
    factor = 2.0**k
    points = _centered_grid(w, h)
    points[:2] += offset[:, None]
    grad_x, grad_y = _gradient(template)
    return _Level(
        template=template,
        grad_x=grad_x,
        grad_y=grad_y,
        search=_pad_planes(search[:, :, None], np.nan),
        points=points,
        offset=offset[:, None],
        scale=np.array([1 / factor, 1 / factor, 1, 1, 1, 1, factor, factor]),
    )


def _gradient(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences along x and y; NaN on the border, which has no
    neighbor to difference against, and wherever a neighbor is NaN."""
    gx = np.full_like(plane, np.nan)
    gy = np.full_like(plane, np.nan)
    gx[:, 1:-1] = 0.5 * (plane[:, 2:] - plane[:, :-2])
    gy[1:-1] = 0.5 * (plane[2:] - plane[:-2])
    return gx, gy


def _evaluate(level: _Level, b: np.ndarray) -> _Evaluation | None:
    """Cost of ``b`` at one level, or None when ``H(b)`` is unusable there."""
    try:
        h = compose_homography(level.scale * b)
    except (ValueError, OverflowError):
        return None
    uv = _project(h, level.points) - level.offset
    if not np.all(np.isfinite(uv)):  # the horizon crosses the template
        return None
    warped = _sample_padded(level.search, uv).reshape(level.template.shape)
    wx, wy = _gradient(warped)
    gx = 0.5 * (level.grad_x + wx)
    gy = 0.5 * (level.grad_y + wy)
    residual = warped - level.template
    valid = np.isfinite(residual + gx + gy)
    count = int(np.count_nonzero(valid))
    if count < _MIN_VALID:
        return None
    residual = residual[valid]
    return _Evaluation(float(residual @ residual) / count, residual, gx[valid], gy[valid], valid)


def _jacobian(level: _Level, b: np.ndarray, ev: _Evaluation, free: np.ndarray) -> np.ndarray:
    """Rows: valid pixels; columns: d r / d b_i for ``i`` in ``free``.

    For a perturbation ``H (I + M)`` the point ``x`` moves by
    ``(M x~)_xy - x (M x~)_z``; contracting with the ESM gradient gives one
    row per pixel over the nine entries of ``M``, which the tangents map to
    the coefficients.
    """
    gx, gy = ev.grad_x, ev.grad_y
    pts = level.points[:, ev.valid.ravel()]
    gz = -(gx * pts[0] + gy * pts[1])
    rows = np.concatenate([gx * pts, gy * pts, gz * pts])
    tangents = _tangents(level.scale * b)[free] * level.scale[free, None, None]
    return rows.T @ tangents.reshape(free.size, 9).T


def _tangents(b: np.ndarray) -> np.ndarray:
    """``H(b)^-1 dH/db_i`` up to multiples of the identity, shape (8, 3, 3).

    Each factor is the exponential of its own generators, so differentiating
    factor ``k`` inserts ``A_i`` after it; moving it to the right end of the
    product conjugates it by the factors that follow.
    """
    factors = factor_matrices(b)
    tails = [np.eye(3)]
    for factor in reversed(factors[1:]):
        tails.insert(0, factor @ tails[0])
    stacked = np.stack([tails[k] for k, coeffs in enumerate(FACTOR_COEFFS) for _ in coeffs])
    return np.linalg.solve(stacked, _GENERATORS @ stacked)


def _solve_level(
    level: _Level, b: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, _Evaluation | None]:
    """Levenberg-Marquardt on one level; only cost-lowering steps are kept."""
    ev = _evaluate(level, b)
    if ev is None:
        return b, None
    lam = _LAMBDA_START
    for _ in range(_MAX_ITERATIONS):
        try:
            jac = _jacobian(level, b, ev, free)
        except (ValueError, OverflowError):  # no tangent at an extreme b
            break
        normal = jac.T @ jac
        grad = jac.T @ ev.residual
        norms = np.sqrt(np.diag(normal))
        live = norms > 0.0
        if not live.any():
            break
        scaled = normal[np.ix_(live, live)] / np.outer(norms[live], norms[live])
        rhs = -grad[live] / norms[live]
        accepted = None
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(scaled + lam * np.eye(int(live.sum())), rhs)
            except np.linalg.LinAlgError:  # singular step
                step = None
            if step is not None and np.all(np.isfinite(step)):
                candidate = b.copy()
                candidate[free[live]] += step / norms[live]
                trial = _evaluate(level, candidate)
                if trial is not None and trial.cost < ev.cost:
                    accepted = candidate, trial
                    break
            lam *= 10.0
        if accepted is None:
            break
        decrease = ev.cost - accepted[1].cost
        b, ev = accepted
        lam = max(lam / 10.0, _LAMBDA_MIN)
        if decrease <= _RELATIVE_DECREASE * (ev.cost + decrease):
            break
    return b, ev
