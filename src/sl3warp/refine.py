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
coefficient outside ``free`` untouched.  ``_objective`` is the one place
that defines the residual, the cost and the ESM gradient.

Pixels that are exactly zero (masked-out regions) become NaN, and the
search is padded with NaN.  NaN carries through the box pyramid, the
bilinear blend and the central differences, so a pixel counts only where
its residual and ESM gradient are finite: both images cover it and its
four neighbors, and no sample falls off the search image.

The coarsest level runs from every distinct start plus the identity (in
``estimate``: the capture estimate, the plain windowed translation peak,
the identity), and the row with the lowest cost there, the first of equal
ones, goes on alone through the finer levels, so the photometric cost
alone arbitrates between the correlation routes.  The starts run in lock
step as the rows of one ``(K, 8)`` coefficient stack.  Each round
evaluates the next trial of every row still running with one composition,
projection, plan and gather, and forms the tangents of the rows that start
an iteration at once, from the factors and their inverses with no solve,
so the coarsest level pays its per-call overhead once per round instead of
once per start.  Every row keeps its own damping, iteration count and stop
rule, and no row's numbers depend on another's, so each start ends bit for
bit where it would alone.  A row stops when an accepted step lowers its
cost by at most ``_RELATIVE_DECREASE`` of it, and, once a trial has been
rejected, as soon as the decrease of the summed squared residual that the
linear model predicts for its next, more damped step is at most that share
of the sum: more damping only shrinks the step and its predicted decrease,
so the row could at best take one step that the first rule then stops at
(Madsen, Nielsen & Tingleff, "Methods for non-linear least squares
problems", 2004).  A step that is singular, non-finite or brings the
horizon into the template is rejected, and a level whose template has no
finite nonzero gradient takes no step at all: on a flat pair the only
gradient left is the round-off of the warped search, on which a start would
drift.  Given images of matching shape and well-formed starts and ``free``,
the stage never raises, and it is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import ImageGrid, _centered_grid, _gather, _pad_planes, _plan
from .sl3 import FACTOR_COEFFS, _compose_rows, _factor_rows, _project, generators

__all__ = ["refine", "residual_jacobian"]

# Pyramid: 2x2 box reductions while both sides stay at least _MIN_SIDE
# (an 8-pixel level has too few pixels for eight coefficients and
# sends the identity start astray).  The finest level refined is the first
# whose larger side is at most _FINEST_SIDE.
_MIN_SIDE = 16
_FINEST_SIDE = 128
# Levenberg-Marquardt schedule, per level.
_MAX_ITERATIONS = 12
_LAMBDA_START = 1e-3
_LAMBDA_MIN = 1e-7
_LAMBDA_MAX = 1e4
_RELATIVE_DECREASE = 1e-2
# Fewer valid pixels than this make a level's cost meaningless.
_MIN_VALID = 16

_GENERATORS = np.stack(generators())
# the factor each coefficient belongs to
_FACTOR_OF_COEFF = [k for k, coeffs in enumerate(FACTOR_COEFFS) for _ in coeffs]


@dataclass(frozen=True)
class _Level:
    """One pyramid level: the template side precomputed, the search as one
    NaN-padded plane.  NaN marks every missing pixel, and the template's
    gradients are NaN wherever a neighbor is missing.  ``points`` holds one
    row each for x, y and 1, so projection and the Jacobian work on rows."""

    template: np.ndarray
    grad_x: np.ndarray
    grad_y: np.ndarray
    covered: np.ndarray  # where the template and its gradients are finite
    search: np.ndarray  # (1, h + 2, w + 2), see raster._pad_planes
    points: np.ndarray  # (3, h*w) homogeneous center-origin planes, row-major pixels
    offset: np.ndarray  # (2, 1) ``points`` minus the level's own center-origin coordinates
    scale: np.ndarray   # level coefficients are ``scale * b``


@dataclass(frozen=True)
class _Evaluation:
    cost: float  # cost, residual and ESM gradients: see _objective
    residual: np.ndarray  # over ``valid`` pixels, like the ESM gradients
    grad_x: np.ndarray
    grad_y: np.ndarray
    valid: np.ndarray  # flat indices of the valid pixels, ascending
    coeffs: np.ndarray  # (8,) level coefficients ``scale * b``, see _tangents


def refine(template: ImageGrid, search: ImageGrid, starts, free) -> np.ndarray:
    """The best refinement of ``starts`` so that ``search(H(b) x)`` matches
    ``template(x)``.

    ``starts`` is one 8-vector or a stack of them; the coarsest level runs
    from each, then from the identity, and the finer levels continue the
    one with the lowest cost there, the first of equal ones.  Only the
    coefficient positions in ``free`` change: the other entries of every
    start are taken from the first.  Returns a new 8-vector: where that row
    ends on the finest level, or the first start when no row can be
    evaluated.  Raises ``ValueError`` for images of different shapes, for
    ``starts`` that are neither an 8-vector nor a ``(K, 8)`` stack of at
    least one row, and for an entry of ``free`` that is not an integer in
    0..7.  A start with a non-finite entry is a row that cannot be
    evaluated.
    """
    return _refine(_pyramid(template, search), starts, free)


def _refine(levels: list[_Level], starts, free) -> np.ndarray:
    """:func:`refine` on the levels of a :func:`_pyramid`."""
    rows = np.atleast_2d(np.array(starts, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != 8 or not len(rows):
        raise ValueError(f"starts must be an 8-vector or a (K, 8) stack, got shape "
                         f"{np.shape(starts)}")
    first = rows[0]
    free = np.array(sorted(set(_positions(free))), dtype=int)
    if free.size == 0:
        return first

    candidates: list[np.ndarray] = []
    for row in (*rows, np.zeros(8)):
        start = first.copy()
        start[free] = row[free]
        if not any(np.array_equal(start, c) for c in candidates):
            candidates.append(start)
    bs, evs = _solve_level(levels[0], np.array(candidates), free)
    for level in levels[1:]:
        bs, evs = _lowest(bs, evs, first)
        bs, evs = _solve_level(level, bs, free)
    (b,), _ = _lowest(bs, evs, first)
    return b


def _lowest(bs: np.ndarray, evs: list, first: np.ndarray) -> tuple[np.ndarray, list]:
    """The row of lowest cost, the first of equal ones, as a stack of one
    with its evaluation; ``first`` without one when no row has a cost."""
    if all(ev is None for ev in evs):
        return first[None], [None]
    costs = [np.inf if ev is None else ev.cost for ev in evs]
    k = costs.index(min(costs))
    return bs[k : k + 1], [evs[k]]


def residual_jacobian(
    template: ImageGrid, search: ImageGrid, b, free
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-resolution residual, its valid-pixel mask and the ESM Jacobian.

    Returns ``(r, valid, J)``: ``r`` and the rows of ``J`` follow the valid
    pixels in row-major order, and ``J`` has one column per entry of
    ``free``.  Empty arrays (and an all-false mask) when ``H(b)`` is
    unusable or fewer than ``_MIN_VALID`` pixels are valid.  Raises
    ``ValueError`` for a ``b`` not of shape ``(8,)`` and for an entry of
    ``free`` that is not an integer in 0..7.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (8,):
        raise ValueError(f"b must have shape (8,), got {b.shape}")
    free = np.array(_positions(free), dtype=int)
    level = _level(_plane(template), _plane(search), np.zeros(2), 0)
    ev = _evaluate(level, b[None])[0]
    valid = np.zeros(template.pixels.shape[:2], bool)
    if ev is None:
        return np.zeros(0), valid, np.zeros((0, free.size))
    valid.flat[ev.valid] = True
    return ev.residual, valid, _jacobian(level, ev, _tangents(ev.coeffs[None])[0], free)


def _positions(free) -> list:
    """The entries of ``free``; ``ValueError`` unless each is an integer
    coefficient position, 0 to 7."""
    free = list(free)
    if not all(isinstance(i, (int, np.integer)) and 0 <= i <= 7 for i in free):
        raise ValueError(f"free entries must be integers in 0..7, got {free}")
    return free


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
    ``estimate`` also runs its correlation captures on the last level.
    Raises ``ValueError`` for images of different shapes.
    """
    if template.pixels.shape != search.pixels.shape:
        raise ValueError("template and search must have identical dimensions")
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
        covered=np.isfinite(template + grad_x + grad_y),
        search=_pad_planes(search[:, :, None], np.nan),
        points=points,
        offset=offset[:, None],
        scale=np.array([1 / factor, 1 / factor, 1, 1, 1, 1, factor, factor]),
    )


def _gradient(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences along x and y of a plane or a stack of them; NaN
    on the border, which has no neighbor to difference against, and
    wherever a neighbor is NaN."""
    gx = np.empty_like(plane)
    gy = np.empty_like(plane)
    inner_x, inner_y = gx[..., 1:-1], gy[..., 1:-1, :]
    np.subtract(plane[..., 2:], plane[..., :-2], out=inner_x)
    np.subtract(plane[..., 2:, :], plane[..., :-2, :], out=inner_y)
    inner_x *= 0.5
    inner_y *= 0.5
    gx[..., 0] = gx[..., -1] = gy[..., 0, :] = gy[..., -1, :] = np.nan
    return gx, gy


def _evaluate(level: _Level, bs: np.ndarray) -> list[_Evaluation | None]:
    """The :func:`_objective` of each row of ``bs`` ``(K, 8)`` at one level,
    or None where ``H(b)`` is unusable there or has too few valid pixels.

    The rows share one composition, projection, plan, gather and central
    difference; a pixel is valid where both planes and their differences
    are finite.  Each row's numbers are bit for bit a one-row call's.
    """
    out: list[_Evaluation | None] = [None] * len(bs)
    coeffs = level.scale * bs
    hs, _, errors = _compose_rows(coeffs)
    rows = [k for k, error in enumerate(errors) if error is None]
    if not rows:
        return out
    uv = _project(hs[rows] if len(rows) < len(bs) else hs, level.points)
    uv -= level.offset
    if not np.isfinite(uv).all():  # the horizon crosses the template of some rows
        finite = np.isfinite(uv).reshape(len(rows), -1).all(axis=1)
        rows, uv = [k for k, f in zip(rows, finite) if f], uv[finite]
        if not rows:
            return out
    # the search may differ in size from the template (``residual_jacobian``)
    h, w = level.search.shape[1:]
    plan = _plan(uv.swapaxes(0, 1).reshape(2, -1), h - 2, w - 2)
    warped = _gather(level.search, plan).reshape((len(rows),) + level.template.shape)
    gx, gy = _gradient(warped)
    finite = np.isfinite(warped + gx + gy) & level.covered
    kept = [(j, v) for j, v in enumerate(map(np.flatnonzero, finite)) if v.size >= _MIN_VALID]
    for (j, valid), obj in zip(kept, _objective(level, warped, gx, gy, kept)):
        out[rows[j]] = _Evaluation(*obj, valid, coeffs[rows[j]])
    return out


def _objective(level: _Level, warped: np.ndarray, gx: np.ndarray, gy: np.ndarray,
               rows: list[tuple[int, np.ndarray]]) -> list[tuple]:
    """The one definition of what the refinement lowers: for each
    ``(j, valid)`` of ``rows``, the cost, the residual ``warped - template``
    and the ESM gradient ``(grad T + grad I_w) / 2`` in x and y at the flat
    indices ``valid``, from row ``j`` of the ``(K, h, w)`` warped search
    stack and its central differences ``gx``, ``gy``, all three of which it
    overwrites.  The cost is the residual's mean square.  A level whose
    template has no finite nonzero gradient takes no step
    (:func:`_solve_level`): on a flat pair the only gradient left is the
    round-off of the warped search, on which a start would drift.
    """
    gx += level.grad_x
    gx *= 0.5
    gy += level.grad_y
    gy *= 0.5
    residual = np.subtract(warped, level.template, out=warped)
    takes = [[a[j].take(valid) for a in (residual, gx, gy)] for j, valid in rows]
    return [(float(r @ r) / r.size, r, ex, ey) for r, ex, ey in takes]


def _jacobian(level: _Level, ev: _Evaluation, tangents: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Rows: valid pixels; columns: d r / d b_i for ``i`` in ``free``, given
    the :func:`_tangents` of the evaluated coefficients.

    For a perturbation ``H (I + M)`` the point ``x`` moves by
    ``(M x~)_xy - x (M x~)_z``; contracting with the ESM gradient gives one
    row per pixel over the nine entries of ``M``, which the tangents map to
    the coefficients.
    """
    gx, gy = ev.grad_x, ev.grad_y
    pts = level.points.take(ev.valid, axis=1)
    gz = -(gx * pts[0] + gy * pts[1])
    rows = np.concatenate([gx * pts, gy * pts, gz * pts])
    tangents = tangents[free] * level.scale[free, None, None]
    return rows.T @ tangents.reshape(free.size, 9).T


def _tangents(coeffs: np.ndarray) -> np.ndarray:
    """``H(b)^-1 dH/db_i`` up to multiples of the identity, shape
    ``(K, 8, 3, 3)``, for the ``(K, 8)`` level coefficients of ``K``
    evaluations.

    Each factor is the exponential of its own generators, so differentiating
    factor ``k`` inserts ``A_i`` after it; moving it to the right end of the
    product conjugates it by the product ``T_k`` of the factors that follow,
    to ``T_k^-1 A_i T_k``.  A factor's inverse is the factor of the negated
    coefficients, so ``T_k^-1`` is the reversed product of those, and no
    system is solved.  Each row is bit for bit a one-row call's.
    """
    factors, _ = _factor_rows(coeffs)
    inverses, _ = _factor_rows(-coeffs)
    tails = np.empty(factors.shape)
    inverse_tails = np.empty(factors.shape)
    tails[:, -1] = inverse_tails[:, -1] = np.eye(3)
    for k in range(len(FACTOR_COEFFS) - 1, 0, -1):
        tails[:, k - 1] = factors[:, k] @ tails[:, k]
        inverse_tails[:, k - 1] = inverse_tails[:, k] @ inverses[:, k]
    return inverse_tails[:, _FACTOR_OF_COEFF] @ _GENERATORS @ tails[:, _FACTOR_OF_COEFF]


def _solve_level(
    level: _Level, bs: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, list[_Evaluation | None]]:
    """Levenberg-Marquardt on one level from every row of ``bs``, in lock
    step.

    Every row keeps its own damping, iteration count and stop rule, and only
    its cost-lowering steps are kept.  A row ends when an accepted step
    lowers its cost by at most ``_RELATIVE_DECREASE`` of it, after
    ``_MAX_ITERATIONS`` accepted steps, when no damping up to
    ``_LAMBDA_MAX`` gives a usable step, or, after a rejected trial, when
    the next step's predicted decrease of the summed squared residual is at
    most ``_RELATIVE_DECREASE`` of the sum, ``r @ r`` of the residual; it
    keeps its current coefficients.  No row takes a step when the level's
    template has no finite nonzero gradient.  A round evaluates the next
    trial of every active row as one stack, after one :func:`_tangents`
    call for the rows that start an iteration, so each row ends bit for bit
    where it would alone.
    Returns the final rows and their evaluations.
    """
    bs = bs.copy()
    evs = _evaluate(level, bs)
    flat = all(np.fmax.reduce(g, axis=None) == 0.0 == np.fmin.reduce(g, axis=None)
               for g in (level.grad_x, level.grad_y))
    active = [] if flat else [k for k, ev in enumerate(evs) if ev is not None]
    lam = dict.fromkeys(active, _LAMBDA_START)
    iterations = dict.fromkeys(active, 0)
    systems: dict = {}  # the scaled system of each row's current iteration
    while active:
        fresh = [k for k in active if k not in systems]
        if fresh:
            for k, tangents in zip(fresh, _tangents(np.array([evs[k].coeffs for k in fresh]))):
                systems[k] = _scaled_system(_jacobian(level, evs[k], tangents, free),
                                            evs[k].residual)
        trials = {}
        for k in active:
            if systems[k]:  # else no Jacobian column of nonzero norm
                trial, lam[k], predicted = _damped_step(bs[k], systems[k], lam[k], free)
                # after a rejection, a step predicted to fail the continue
                # rule ends the row
                if trial is not None and (k in fresh or predicted > _RELATIVE_DECREASE
                                          * (evs[k].residual @ evs[k].residual)):
                    trials[k] = trial
        if not trials:
            break
        active = []
        for k, ev in zip(trials, _evaluate(level, np.array(list(trials.values())))):
            if ev is None or ev.cost >= evs[k].cost:
                lam[k] *= 10.0
                active.append(k)
                continue
            decrease = evs[k].cost - ev.cost
            bs[k], evs[k] = trials[k], ev
            lam[k] = max(lam[k] / 10.0, _LAMBDA_MIN)
            iterations[k] += 1
            del systems[k]
            if (decrease > _RELATIVE_DECREASE * (ev.cost + decrease)
                    and iterations[k] < _MAX_ITERATIONS):
                active.append(k)
    return bs, evs


def _scaled_system(jac: np.ndarray, residual: np.ndarray):
    """The Gauss-Newton system of one Jacobian, its columns scaled to unit
    norm: the normal matrix and right-hand side over the columns of nonzero
    norm, those norms and their mask; False when every column is zero."""
    normal = jac.T @ jac
    grad = jac.T @ residual
    norms = np.sqrt(np.diag(normal))
    live = norms > 0.0
    if not live.all():
        if not live.any():
            return False
        normal, grad, norms = normal[np.ix_(live, live)], grad[live], norms[live]
    return normal / np.outer(norms, norms), -grad / norms, norms, live


def _damped_step(b: np.ndarray, system, lam: float, free: np.ndarray):
    """The next trial from ``b``, its damping and the decrease of the
    summed squared residual that the linear model predicts for it: the
    first of ``lam, 10 lam, ...`` up to ``_LAMBDA_MAX`` whose step is
    regular and finite, or None (and no prediction) when there is none."""
    scaled, rhs, norms, live = system
    while lam <= _LAMBDA_MAX:
        try:
            step = np.linalg.solve(scaled + lam * np.eye(rhs.size), rhs)
        except np.linalg.LinAlgError:  # singular step
            step = None
        if step is not None and np.all(np.isfinite(step)):
            trial = b.copy()
            trial[free[live]] += step / norms
            # |r|^2 - |r + J d|^2 in the scaled coordinates
            return trial, lam, float(step @ (2.0 * rhs - scaled @ step))
        lam *= 10.0
    return None, lam, None
