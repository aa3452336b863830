"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: the matrix
exponential is a truncated power series in exact rational arithmetic, the
factor product is re-multiplied in extended precision, correlation peaks
come from exhaustive spatial search, and point mapping is done one corner
at a time in plain Python.
"""

from fractions import Fraction
import math

import numpy as np


def expm_series_exact(m, terms=80):
    """Truncated exponential power series evaluated with Fractions.

    Float inputs are exact binary rationals, so the only error is the
    series truncation; ``terms`` must be large enough for the norm of ``m``.
    """
    mf = [[Fraction(float(m[i][j])) for j in range(3)] for i in range(3)]
    acc = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    term = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for k in range(1, terms + 1):
        term = [
            [sum(term[i][l] * mf[l][j] for l in range(3)) / k for j in range(3)]
            for i in range(3)
        ]
        acc = [[acc[i][j] + term[i][j] for j in range(3)] for i in range(3)]
    return np.array([[float(acc[i][j]) for j in range(3)] for i in range(3)])


def six_factor_product_longdouble(b):
    """Explicit six-matrix product in extended precision, det-normalized."""
    b = np.asarray(b, dtype=np.longdouble)
    t1, t2, th = b[0], b[1], b[2]
    g, k1, k2, v1, v2 = np.exp(b[3]), np.exp(b[4]), b[5], b[6], b[7]
    one, zero = np.longdouble(1), np.longdouble(0)
    ht = np.array([[one, zero, t1], [zero, one, t2], [zero, zero, one]])
    hs = np.array(
        [[g * np.cos(th), -g * np.sin(th), zero],
         [g * np.sin(th), g * np.cos(th), zero],
         [zero, zero, one]]
    )
    hsc = np.array([[k1, zero, zero], [zero, one / k1, zero], [zero, zero, one]])
    hsh = np.array([[one, k2, zero], [zero, one, zero], [zero, zero, one]])
    hp1 = np.array([[one, zero, zero], [zero, one, zero], [v1, zero, one]])
    hp2 = np.array([[one, zero, zero], [zero, one, zero], [zero, v2, one]])
    h = ht @ hs @ hsc @ hsh @ hp1 @ hp2
    det = (
        h[0, 0] * (h[1, 1] * h[2, 2] - h[1, 2] * h[2, 1])
        - h[0, 1] * (h[1, 0] * h[2, 2] - h[1, 2] * h[2, 0])
        + h[0, 2] * (h[1, 0] * h[2, 1] - h[1, 1] * h[2, 0])
    )
    return np.asarray(h / np.cbrt(det), dtype=float)


def compose_by_factors(b):
    """``compose_homography`` spelled out: the single-factor builders at
    ``params_from_coeffs(b)``, multiplied left to right one matrix product
    at a time and normalized by ``normalize_homography``.  Returns the
    matrix and the six factors; raises what those functions raise."""
    from sl3warp.sl3 import (aspect_matrix, normalize_homography, params_from_coeffs,
                             perspective_x_matrix, perspective_y_matrix,
                             rotation_scale_matrix, shear_matrix, translation_matrix)

    x = params_from_coeffs(b)
    factors = [translation_matrix(x[0], x[1]), rotation_scale_matrix(x[2], x[3]),
               aspect_matrix(x[4]), shear_matrix(x[5]), perspective_x_matrix(x[6]),
               perspective_y_matrix(x[7])]
    h = factors[0]
    with np.errstate(all="ignore"):
        for factor in factors[1:]:
            h = h @ factor
    return normalize_homography(h), factors


def map_corner(h, corner):
    """Dehomogenized image of one point, computed with scalar arithmetic."""
    x, y = float(corner[0]), float(corner[1])
    u = h[0][0] * x + h[0][1] * y + h[0][2]
    v = h[1][0] * x + h[1][1] * y + h[1][2]
    w = h[2][0] * x + h[2][1] * y + h[2][2]
    if w == 0.0:
        return (math.inf, math.inf)
    return (u / w, v / w)


def brute_force_circular_peak(a, b):
    """Best integer circular shift of ``b`` relative to ``a``.

    Scores every offset with the plain dot product of ``a`` and the
    rolled-back ``b``; returns the (dx, dy) displacement of ``b``'s content.
    """
    h, w = a.shape
    best, best_off = -np.inf, (0, 0)
    for dy in range(h):
        for dx in range(w):
            score = float(np.sum(a * np.roll(b, (-dy, -dx), axis=(0, 1))))
            if score > best:
                best, best_off = score, (dx, dy)
    dx, dy = best_off
    if dx > w // 2:
        dx -= w
    if dy > h // 2:
        dy -= h
    return (dx, dy)


def bilinear_reference(pixels, x, y):
    """Scalar zero-padded bilinear lookup in center-origin coordinates."""
    h, w = pixels.shape[:2]
    if not (math.isfinite(x) and math.isfinite(y)) or abs(x) > w / 2 or abs(y) > h / 2:
        return np.zeros(pixels.shape[2])
    col = x + (w - 1) / 2.0
    row = y + (h - 1) / 2.0
    c0, r0 = math.floor(col), math.floor(row)
    fc, fr = col - c0, row - r0
    out = np.zeros(pixels.shape[2])
    for dr, wr in ((0, 1.0 - fr), (1, fr)):
        for dc, wc in ((0, 1.0 - fc), (1, fc)):
            rr, cc = r0 + dr, c0 + dc
            if 0 <= rr < h and 0 <= cc < w and wr * wc != 0.0:
                out += wr * wc * pixels[rr, cc]
    return out


def padded_bilinear_reference(pixels, x, y, pad):
    """Scalar bilinear lookup that reads ``pad`` off the lattice.

    Out of the ``[-w/2, w/2] x [-h/2, h/2]`` box, or at a non-finite point,
    the result is ``pad`` itself.  Inside it every one of the four terms is
    added, a zero weight included, so a NaN pad or a NaN pixel next to the
    point makes the sample NaN.
    """
    h, w = pixels.shape[:2]
    if not (math.isfinite(x) and math.isfinite(y)) or abs(x) > w / 2 or abs(y) > h / 2:
        return np.full(pixels.shape[2], pad)
    col = x + (w - 1) / 2.0
    row = y + (h - 1) / 2.0
    c0, r0 = math.floor(col), math.floor(row)
    fc, fr = col - c0, row - r0
    out = None
    for dr, wr in ((0, 1.0 - fr), (1, fr)):
        for dc, wc in ((0, 1.0 - fc), (1, fc)):
            rr, cc = r0 + dr, c0 + dc
            inside = 0 <= rr < h and 0 <= cc < w
            term = wr * wc * (pixels[rr, cc] if inside else np.full(pixels.shape[2], pad))
            out = term if out is None else out + term
    return out


def refine_valid_reference(template, search, h):
    """Pixels the photometric refinement counts, decided one at a time.

    ``template`` and ``search`` are 2-D intensity planes in which exact
    zero marks a masked pixel.  A template pixel is valid when it is off
    the border, the template is nonzero at it and at its four neighbors,
    and each of those five points maps through ``h`` to a spot whose four
    lattice neighbors all lie inside the search and are nonzero there.
    """
    th, tw = template.shape
    sh, sw = search.shape

    def covered(r, c):
        x, y = map_corner(h, (c - (tw - 1) / 2.0, r - (th - 1) / 2.0))
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        c0 = math.floor(x + (sw - 1) / 2.0)
        r0 = math.floor(y + (sh - 1) / 2.0)
        return all(
            0 <= rr < sh and 0 <= cc < sw and search[rr, cc] != 0.0
            for rr in (r0, r0 + 1)
            for cc in (c0, c0 + 1)
        )

    valid = np.zeros((th, tw), dtype=bool)
    for r in range(1, th - 1):
        for c in range(1, tw - 1):
            cross = ((r, c), (r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
            valid[r, c] = all(template[rr, cc] != 0.0 and covered(rr, cc) for rr, cc in cross)
    return valid


def objective_reference(template, warped):
    """The refinement's objective on one warped plane, one pixel at a time.

    ``template`` and ``warped`` are 2-D planes with NaN where a pixel is
    missing.  A pixel counts when it is off the border and both planes are
    finite at it and at its four neighbors.  Returns the flat indices of
    the pixels that count, in row-major order, and over them the residual
    ``warped - template``, the ESM gradients ``(grad T + grad I_w) / 2``
    along x and y from central differences, and the cost, the residual's
    mean square summed with exact float summation.
    """
    h, w = template.shape
    t = [[float(v) for v in row] for row in template]
    s = [[float(v) for v in row] for row in warped]
    valid, residual, grad_x, grad_y = [], [], [], []
    for r in range(1, h - 1):
        for c in range(1, w - 1):
            cross = ((r, c), (r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
            if not all(math.isfinite(p[rr][cc]) for p in (t, s) for rr, cc in cross):
                continue
            valid.append(r * w + c)
            residual.append(s[r][c] - t[r][c])
            grad_x.append(((s[r][c + 1] - s[r][c - 1]) * 0.5
                           + (t[r][c + 1] - t[r][c - 1]) * 0.5) * 0.5)
            grad_y.append(((s[r + 1][c] - s[r - 1][c]) * 0.5
                           + (t[r + 1][c] - t[r - 1][c]) * 0.5) * 0.5)
    cost = math.fsum(x * x for x in residual) / len(residual) if residual else math.nan
    return (np.array(valid, dtype=int), np.array(residual), np.array(grad_x),
            np.array(grad_y), cost)


def predicted_decrease_reference(r, jac, delta):
    """``|r|^2 - |r + J delta|^2``, the decrease of the summed squared
    residual that the linearized residual predicts for the step ``delta``,
    summed pixel by pixel with exact float summation."""
    moved = [float(ri) + math.fsum(float(j) * float(d) for j, d in zip(row, delta))
             for ri, row in zip(r, jac)]
    return math.fsum([float(ri) ** 2 for ri in r] + [-m * m for m in moved])


def phase_correlate_full_complex(a, b, window_power, circular_vertical, subpixel, band_limit):
    """Phase correlation on full complex spectra, for ``(h, w, c)`` arrays.

    Same definition as the package's correlator (Hann window to a power,
    per-channel normalized cross spectrum with a relative floor, optional
    Gaussian band limit locating a radius-2 neighborhood, three-point
    parabolic refinement), but with ``fft2``/``ifft2`` over every
    frequency and the neighborhood search and the fit in plain Python.
    Returns ``((dx, dy), confidence)``.
    """
    h, w, c = a.shape
    wx = np.hanning(w) ** window_power
    wy = np.ones(h) if circular_vertical else np.hanning(h) ** window_power
    win = wy[:, None] * wx[None, :]
    spectrum = np.zeros((h, w), dtype=complex)
    for ch in range(c):
        cross = np.conj(np.fft.fft2(a[:, :, ch] * win)) * np.fft.fft2(b[:, :, ch] * win)
        mag = np.abs(cross)
        floor = mag.max() * 1e-15
        if floor > 0.0:
            keep = mag > floor
            spectrum[keep] += cross[keep] / mag[keep]
    surface = np.fft.ifft2(spectrum).real / c
    total = np.abs(surface).sum()
    if total == 0.0:
        return (0.0, 0.0), 0.0
    if band_limit is None:
        iy, ix = divmod(int(np.argmax(surface)), w)
    else:
        fy, fx = np.meshgrid(np.fft.fftfreq(h), np.fft.fftfreq(w), indexing="ij")
        smooth = np.fft.ifft2(spectrum * np.exp(-(fx**2 + fy**2) / (2.0 * band_limit**2))).real
        cy, cx = divmod(int(np.argmax(smooth)), w)
        best = None
        for r in range(cy - 2, cy + 3):
            for col in range(cx - 2, cx + 3):
                value = surface[r % h, col % w]
                if best is None or value > best[0]:
                    best = (value, r % h, col % w)
        _, iy, ix = best
    peak = float(surface[iy, ix])

    def fit(left, right):
        denom = left - 2.0 * peak + right
        off = 0.0 if denom == 0.0 else 0.5 * (left - right) / denom
        return off if abs(off) < 1.0 else 0.0

    dx = float(ix - w if ix > w // 2 else ix)
    dy = float(iy - h if iy > h // 2 else iy)
    if subpixel:
        dx += fit(surface[iy, (ix - 1) % w], surface[iy, (ix + 1) % w])
        dy += fit(surface[(iy - 1) % h, ix], surface[(iy + 1) % h, ix])
    return (dx, dy), min(max(peak / total, 0.0), 1.0)
