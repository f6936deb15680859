"""Hot numeric kernels: batch polynomial evaluation and 4-D occupancy binning.

One numpy backend.  Both kernels walk the points in fixed blocks of
``_ROWS`` rows and work in place in buffers allocated once per call, so
their scratch memory does not grow with the number of points and a
block's working set stays in cache.

Evaluation performs, for each output element, the same sequence of IEEE
multiply/add operations as :meth:`Polynomial.evaluate`: powers by
repeated multiplication, terms accumulated in the polynomial's canonical
order, and each complex multiply expanded into the real multiplies and
adds that scalar code performs (numpy's complex128 vector path differs
from it at the last ulp).  Blocking changes only which elements share a
numpy call, never the operations applied to one element, and the real
and imaginary sums are written straight into the parts of the complex
output, so the two agree bit for bit; the determinism tests rely on
that.  Binning adds up integer bincounts over the blocks, which equals
the one-shot count exactly.
"""

from __future__ import annotations

import numpy as np

# Rows per block.  2^14 rows keep the six evaluation buffers and the
# block's coordinates (≈ 1 MB at n = 2) in a core's cache; evaluating a
# degree-5 map at 2·10^6 points on a 2-core x86-64 machine took 32 ms
# with 2^14 rows, 35 ms with 2^13 and 39 ms with 2^15.
_ROWS = 1 << 14


def active_backend():
    """Name of the numeric backend, recorded with benchmark results."""
    return "numpy"


# ---------------------------------------------------------------------------
# batch polynomial evaluation
# ---------------------------------------------------------------------------


def evaluate_batch(poly, points):
    """Evaluate ``poly`` at each row of ``points`` (complex128, shape (N, nvars)).

    Powers expand by repeated multiplication and terms accumulate in the
    canonical order, matching :meth:`Polynomial.evaluate` bit for bit.
    """
    points = np.ascontiguousarray(points, dtype=np.complex128)
    if points.ndim != 2 or points.shape[1] != poly.nvars:
        raise ValueError(
            f"points must have shape (N, {poly.nvars}), got {points.shape}"
        )
    npts = points.shape[0]
    if not poly.terms or npts == 0:
        return np.zeros(npts, dtype=np.complex128)
    # per term: the (variable, exponent) factors in order, then the
    # coefficient's real and imaginary parts
    terms = []
    for m, c in poly.terms:
        c = complex(c)
        terms.append(([(v, e) for v, e in enumerate(m) if e], c.real, c.imag))
    out = np.empty(npts, dtype=np.complex128)
    rows = min(_ROWS, npts)
    zre = np.empty((poly.nvars, rows))
    zim = np.empty((poly.nvars, rows))
    buffers = [np.empty(rows) for _ in range(6)]
    for start in range(0, npts, rows):
        stop = min(start + rows, npts)
        k = stop - start
        block = points[start:stop]
        np.copyto(zre[:, :k], block.real.T)
        np.copyto(zim[:, :k], block.imag.T)
        acc_re, acc_im, *scratch = (buf[:k] for buf in buffers)
        acc_re.fill(0.0)
        acc_im.fill(0.0)
        for factors, cre, cim in terms:
            # the term (xr, xi) starts as the scalar coefficient; each
            # multiply by z = zr + i zi leaves it in the buffers (tr, ti):
            #   (xr zr - xi zi) + i (xr zi + xi zr)
            tr, ti, a, b = scratch
            xr, xi = cre, cim
            for v, e in factors:
                zr = zre[v, :k]
                zi = zim[v, :k]
                for _ in range(e):
                    np.multiply(xr, zr, out=a)
                    np.multiply(xi, zi, out=b)
                    np.subtract(a, b, out=a)
                    np.multiply(xr, zi, out=b)
                    np.multiply(xi, zr, out=tr)
                    np.add(b, tr, out=ti)
                    tr, a = a, tr
                    xr, xi = tr, ti
            np.add(acc_re, xr, out=acc_re)
            np.add(acc_im, xi, out=acc_im)
        out.real[start:stop] = acc_re
        out.imag[start:stop] = acc_im
    return out


# ---------------------------------------------------------------------------
# occupancy binning
# ---------------------------------------------------------------------------


def _bin_hits(u, v, radius, bins, counts):
    """Add the hits of one block to ``counts``."""
    r2 = radius * radius
    inside = (
        (u.real * u.real + u.imag * u.imag < r2)
        & (v.real * v.real + v.imag * v.imag < r2)
    )
    if not inside.any():
        return
    width = (2.0 * radius) / bins
    idx = None
    for part in (u.real, u.imag, v.real, v.imag):
        cell = np.minimum(((part[inside] + radius) / width).astype(np.int64), bins - 1)
        if idx is None:
            idx = cell
        else:
            idx *= bins
            idx += cell
    hits = np.bincount(idx)
    counts[: hits.size] += hits


def bin_hits(u, v, radius, bins):
    """Per-bin hit counts on the 4-D grid over the open target polydisk.

    The grid splits each of (Re u, Im u, Re v, Im v) into ``bins`` cells
    over [-radius, radius]; only samples strictly inside the polydisk
    {|u| < radius, |v| < radius} are counted.  Counts are additive, so the
    result is independent of sample order and of the blocking.
    """
    u = np.ascontiguousarray(u, dtype=np.complex128)
    v = np.ascontiguousarray(v, dtype=np.complex128)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be 1-D arrays of equal length")
    radius = float(radius)
    bins = int(bins)
    counts = np.zeros(bins**4, dtype=np.int64)
    for start in range(0, u.shape[0], _ROWS):
        stop = start + _ROWS
        _bin_hits(u[start:stop], v[start:stop], radius, bins, counts)
    return counts


def centers_inside_polydisk(radius, bins):
    """Boolean mask (length bins**4) of grid cells whose center lies in the polydisk."""
    width = (2.0 * radius) / bins
    centers = -radius + width * (np.arange(bins) + 0.5)
    c2 = centers * centers
    u_in = (c2[:, None] + c2[None, :]) < radius * radius
    mask4 = u_in[:, :, None, None] & u_in[None, None, :, :]
    return mask4.reshape(-1)
