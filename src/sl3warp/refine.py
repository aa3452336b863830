"""Direct photometric refinement of a homography in its sl(3) coefficients.

The cascade measures one subgroup at a time and cannot take up the
coupling between them.  This stage polishes its estimate by minimizing the
photometric residual

    r(x) = search(H(b) x) - template(x)

over the pixels both images cover, coarse to fine on a 2x2 box pyramid,
with Levenberg-Marquardt steps on the coefficient vector ``b`` itself.  The
Jacobian pairs the ESM-averaged gradient ``(grad T + grad I_w) / 2`` of
Benhimane & Malis (IROS 2004) with the tangent of the six-factor product:
a change of ``b_i`` moves ``H`` to ``H (I + db_i M_i)``, where ``M_i`` is
the generator ``A_i`` carried through the factors after its own.  Updating
``b`` directly keeps ``h == compose_homography(b)`` exact and leaves every
coefficient outside ``free`` untouched.

Pixels that are exactly zero in either image (masked-out regions) and
pixels whose sample falls off the search image are skipped; both masks are
eroded by one pixel so that no gradient reads a skipped neighbor.  The
coarse levels run from two starts, the given estimate and the identity,
and keep the one with the lower cost.  A step that is singular, non-finite
or brings the horizon into the template is rejected, and if the finest
level ends no lower than the given estimate, that estimate comes back
unchanged.  The stage never raises on images of matching shape and is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import ImageGrid, bilinear_sample
from .sl3 import FACTOR_COEFFS, compose_homography, factor_matrices, generators

__all__ = ["refine", "residual_jacobian"]

# Pyramid: 2x2 box reductions while both sides stay at least _MIN_SIDE
# (an 8-pixel level has too few pixels for eight coefficients and
# sends the identity start astray).  The finest level refined is the first
# whose larger side is at most _FINEST_SIDE, and the _DUAL_START_LEVELS
# coarsest levels run from both starts.
_MIN_SIDE = 16
_FINEST_SIDE = 128
_DUAL_START_LEVELS = 2
# Levenberg-Marquardt schedule, per level.
_MAX_ITERATIONS = 12
_LAMBDA_START = 1e-3
_LAMBDA_MIN = 1e-7
_LAMBDA_MAX = 1e4
_RELATIVE_DECREASE = 1e-2
# Fewer valid pixels than this make a level's cost meaningless.
_MIN_VALID = 16
# A bilinear blend of the 0/1 search mask reads this high only when every
# neighbor it weights is valid.
_MASK_FULL = 1.0 - 1e-9

_GENERATORS = np.stack(generators())


@dataclass(frozen=True)
class _Level:
    """One pyramid level: the template side precomputed, the search as a
    two-channel raster (intensity, validity) so one lookup warps both."""

    template: np.ndarray
    grad_x: np.ndarray
    grad_y: np.ndarray
    valid: np.ndarray
    search: ImageGrid
    points: np.ndarray  # (h*w, 3) homogeneous center-origin coordinates
    offset: np.ndarray  # (2,) ``points`` minus the level's own center-origin coordinates
    scale: np.ndarray   # level coefficients are ``scale * b``


@dataclass(frozen=True)
class _Evaluation:
    cost: float
    residual: np.ndarray  # over ``valid`` pixels
    warped: np.ndarray
    valid: np.ndarray


def refine(template: ImageGrid, search: ImageGrid, b_init, free) -> np.ndarray:
    """Refine ``b_init`` so that ``search(H(b) x)`` matches ``template(x)``.

    Only the coefficient positions in ``free`` change.  Returns a new
    8-vector, or a copy of ``b_init`` when refinement cannot lower the
    photometric cost.  Raises ``ValueError`` only for images of different
    shapes.
    """
    if template.pixels.shape != search.pixels.shape:
        raise ValueError("template and search must have identical dimensions")
    b_init = np.array(b_init, dtype=float)
    free = np.array(sorted(set(free)), dtype=int)
    if free.size == 0:
        return b_init
    levels = _pyramid(template, search)
    dual, single = levels[:_DUAL_START_LEVELS], levels[_DUAL_START_LEVELS:]
    identity = b_init.copy()
    identity[free] = 0.0

    starts = (b_init,) if np.array_equal(identity, b_init) else (b_init, identity)
    best_b, best = b_init, None
    for start in starts:
        b, ev = start, None
        for level in dual:
            b, ev = _solve_level(level, b, free)
        if ev is not None and (best is None or ev.cost < best.cost):
            best_b, best = b, ev
    b, ev = best_b, best
    for level in single:
        b, ev = _solve_level(level, b, free)
    baseline = _evaluate(levels[-1], b_init)
    if ev is None or (baseline is not None and ev.cost >= baseline.cost):
        return b_init
    return b


def residual_jacobian(
    template: ImageGrid, search: ImageGrid, b, free
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-resolution residual, its valid-pixel mask and the ESM Jacobian.

    Returns ``(r, valid, J)``: ``r`` and the rows of ``J`` follow the valid
    pixels in row-major order, and ``J`` has one column per entry of
    ``free``.  Empty arrays when no pixel is valid.
    """
    free = np.array(free, dtype=int)
    t, s = _plane(template), _plane(search)
    level = _level(t, t != 0.0, s, s != 0.0, np.zeros(2), 0)
    ev = _evaluate(level, np.asarray(b, dtype=float))
    if ev is None:
        return np.zeros(0), np.zeros(template.pixels.shape[:2], bool), np.zeros((0, free.size))
    return ev.residual, ev.valid, _jacobian(level, np.asarray(b, dtype=float), ev, free)


def _plane(image: ImageGrid) -> np.ndarray:
    return image.pixels[:, :, 0] if image.channels == 1 else image.pixels.mean(axis=2)


def _pyramid(template: ImageGrid, search: ImageGrid) -> list[_Level]:
    """Levels from the coarsest to the finest one refined.

    Validity is min-pooled alongside the box average, so a reduced pixel is
    valid only when its whole full-resolution footprint is.  An odd last row
    or column is dropped before a reduction; the half-pixel shift this puts
    between the level's center and the full image's accumulates in the
    level's offset.
    """
    t, s = _plane(template), _plane(search)
    planes = [(t, t != 0.0, s, s != 0.0, np.zeros(2))]
    while all(side // 2 >= _MIN_SIDE for side in planes[-1][0].shape):
        h, w = planes[-1][0].shape
        t, tm, s, sm = (p[: h - h % 2, : w - w % 2] for p in planes[-1][:4])
        offset = (planes[-1][4] - 0.5 * np.array([w % 2, h % 2])) / 2.0
        planes.append((_reduce(t), _pool(tm), _reduce(s), _pool(sm), offset))
    finest = next(
        (k for k, p in enumerate(planes) if max(p[0].shape) <= _FINEST_SIDE),
        len(planes) - 1,
    )
    return [_level(*planes[k], k) for k in range(len(planes) - 1, finest - 1, -1)]


def _reduce(plane: np.ndarray) -> np.ndarray:
    """2x2 box average of an even-sized plane."""
    return 0.25 * (plane[0::2, 0::2] + plane[0::2, 1::2] + plane[1::2, 0::2] + plane[1::2, 1::2])


def _pool(mask: np.ndarray) -> np.ndarray:
    return mask[0::2, 0::2] & mask[0::2, 1::2] & mask[1::2, 0::2] & mask[1::2, 1::2]


def _level(template, template_valid, search, search_valid, offset, k: int) -> _Level:
    h, w = template.shape
    factor = 2.0**k
    xs = np.arange(w) - (w - 1) / 2.0 + offset[0]
    ys = np.arange(h) - (h - 1) / 2.0 + offset[1]
    xx, yy = np.meshgrid(xs, ys)
    grad_x, grad_y = _gradient(template)
    return _Level(
        template=template,
        grad_x=grad_x,
        grad_y=grad_y,
        valid=_erode(template_valid),
        search=ImageGrid(np.stack([search, search_valid.astype(float)], axis=-1)),
        points=np.stack([xx.ravel(), yy.ravel(), np.ones(h * w)], axis=1),
        offset=offset,
        scale=np.array([1 / factor, 1 / factor, 1, 1, 1, 1, factor, factor]),
    )


def _erode(mask: np.ndarray) -> np.ndarray:
    """Keep pixels whose four neighbors are in the mask; drops the border."""
    out = np.zeros_like(mask)
    out[1:-1, 1:-1] = (
        mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[2:, 1:-1] & mask[1:-1, :-2] & mask[1:-1, 2:]
    )
    return out


def _gradient(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences along x and y; border values are never used."""
    gx = np.zeros_like(plane)
    gy = np.zeros_like(plane)
    gx[:, 1:-1] = 0.5 * (plane[:, 2:] - plane[:, :-2])
    gy[1:-1] = 0.5 * (plane[2:] - plane[:-2])
    return gx, gy


def _evaluate(level: _Level, b: np.ndarray) -> _Evaluation | None:
    """Cost of ``b`` at one level, or None when ``H(b)`` is unusable there."""
    try:
        h = compose_homography(level.scale * b)
    except (ValueError, OverflowError):
        return None
    q = level.points @ h.T
    if not np.all(q[:, 2] > 0.0):  # the horizon crosses the template
        return None
    uv = q[:, :2] / q[:, 2:3] - level.offset
    if not np.all(np.isfinite(uv)):
        return None
    sampled = bilinear_sample(level.search, uv).reshape(level.template.shape + (2,))
    warped = sampled[:, :, 0]
    valid = level.valid & _erode(sampled[:, :, 1] >= _MASK_FULL)
    count = int(np.count_nonzero(valid))
    if count < _MIN_VALID:
        return None
    residual = warped[valid] - level.template[valid]
    return _Evaluation(float(residual @ residual) / count, residual, warped, valid)


def _jacobian(level: _Level, b: np.ndarray, ev: _Evaluation, free: np.ndarray) -> np.ndarray:
    """Rows: valid pixels; columns: d r / d b_i for ``i`` in ``free``.

    For a perturbation ``H (I + M)`` the point ``x`` moves by
    ``(M x~)_xy - x (M x~)_z``; contracting with the ESM gradient gives one
    row per pixel over the nine entries of ``M``, which the tangents map to
    the coefficients.
    """
    wx, wy = _gradient(ev.warped)
    gx = 0.5 * (level.grad_x[ev.valid] + wx[ev.valid])
    gy = 0.5 * (level.grad_y[ev.valid] + wy[ev.valid])
    pts = level.points[ev.valid.ravel()]
    gz = -(gx * pts[:, 0] + gy * pts[:, 1])
    rows = np.concatenate([gx[:, None] * pts, gy[:, None] * pts, gz[:, None] * pts], axis=1)
    tangents = _tangents(level.scale * b)[free] * level.scale[free, None, None]
    return rows @ tangents.reshape(free.size, 9).T


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
    return np.stack([
        np.linalg.solve(tails[k], _GENERATORS[i] @ tails[k])
        for k, coeffs in enumerate(FACTOR_COEFFS)
        for i in coeffs
    ])


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
