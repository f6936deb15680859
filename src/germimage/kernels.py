"""Hot numeric kernels: batch polynomial evaluation and 4-D occupancy binning.

One numpy backend.  Both kernels walk the points in fixed blocks of
``_ROWS`` rows and work in place in buffers allocated once per call, so
their scratch memory does not grow with the number of points and a
block's working set stays in cache.  :func:`bin_hits` is fused: per
block it copies the coordinates once, evaluates both components of the
map into block buffers and bins them, so a probe never holds the images
u = f(points) and v = g(points) at full length.  :func:`evaluate_batch`
writes one polynomial's values at every point, for the residual probe.
Both evaluate through one block routine, ``_evaluate_block``.

Two threads share the rows.  Each kernel cuts the row range at the
block edge nearest its middle; the calling thread walks the first half
and one helper thread, started and joined inside the call, walks the
second.  The calling thread allocates each half's buffers before the
helper starts: a coordinate and scratch set of ``_ROWS`` rows, the value
buffers of both components and an integer count array for binning; only
binning's per-block temporaries are made on the helper.  A thread writes
only its own rows of the output (evaluation) or its own count array
(binning), and the two count arrays are added once both halves are done.
The helper runs private code and numpy only, never a public function of
this package.  Its error is re-raised by the call, after the helper has
stopped, so no call returns rows left unwritten and no thread outlives
a call.  With fewer than two blocks' worth of rows the calling thread
runs alone.

Evaluation performs, for each output element, the same sequence of IEEE
multiply/add operations as :meth:`Polynomial.evaluate`: powers by
repeated multiplication, terms accumulated in the polynomial's canonical
order, and each complex multiply expanded into the real multiplies and
adds that scalar code performs (numpy's complex128 vector path differs
from it at the last ulp).  Blocking, the split and the fusion change
only which elements share a numpy call, which thread makes it and where
the sums accumulate, never the operations applied to one element, so the
values agree bit for bit; the determinism tests rely on that.  Binning
adds up integer bincounts over the blocks and the halves, which equals
the one-shot count exactly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

# Rows per block.  2^14 rows keep a thread's four scratch buffers and
# the block's coordinates (≈ 1 MB at n = 2) in a core's cache; evaluating
# a degree-5 map at 2·10^6 points on one core of a 2-core x86-64 machine
# took 32 ms with 2^14 rows, 35 ms with 2^13 and 39 ms with 2^15.  Split
# over two threads, evaluating both components of the corpus map
# ``rouche`` (degrees 5 and 9) at 2·10^6 points in slices of 2^18 took
# 40.6 ms with 2^14 rows, 56.6 ms with 2^13 (contention for the
# interpreter lock) and 47.0 ms with 2^15, against 52.2 ms on one thread
# (same machine, medians of seven).
_ROWS = 1 << 14


def active_backend():
    """Name of the numeric backend, recorded with benchmark results."""
    return "numpy"


# ---------------------------------------------------------------------------
# the two-thread split
# ---------------------------------------------------------------------------


def _halves(npts):
    """Row ranges (lo, hi) of the two threads, cut at the block edge nearest npts / 2.

    One range, all rows, when that edge is 0 or the end.
    """
    cut = (npts + _ROWS) // (2 * _ROWS) * _ROWS
    return [(0, cut), (cut, npts)] if 0 < cut < npts else [(0, npts)]


def _on_two_threads(task, jobs):
    """``[task(*job) for job in jobs]``, with the second of two jobs on a helper thread.

    The calling thread runs the first job while the helper runs the
    second.  The helper is joined before this returns or raises, and an
    error it raised is raised here.
    """
    if len(jobs) == 1:
        return [task(*jobs[0])]
    with ThreadPoolExecutor(max_workers=1) as helper:
        second = helper.submit(task, *jobs[1])
        first = task(*jobs[0])
        return [first, second.result()]


# ---------------------------------------------------------------------------
# batch polynomial evaluation
# ---------------------------------------------------------------------------


def _terms(poly):
    """Per term: the (variable, exponent) factors in order, then the coefficient's parts."""
    terms = []
    for m, c in poly.terms:
        c = complex(c)
        terms.append(([(v, e) for v, e in enumerate(m) if e], c.real, c.imag))
    return terms


def _checked_points(points, nvars):
    points = np.ascontiguousarray(points, dtype=np.complex128)
    if points.ndim != 2 or points.shape[1] != nvars:
        raise ValueError(f"points must have shape (N, {nvars}), got {points.shape}")
    return points


def _load_block(points, start, stop, coords):
    """Copy the real and imaginary coordinates of rows [start, stop) into ``coords``."""
    k = stop - start
    block = points[start:stop]
    np.copyto(coords[0, :, :k], block.real.T)
    np.copyto(coords[1, :, :k], block.imag.T)


def _evaluate_block(terms, coords, k, scratch, acc_re, acc_im):
    """Sum the terms at the first ``k`` points of ``coords`` into ``acc_re``, ``acc_im``.

    ``coords`` (2, nvars, _ROWS) holds a block's real and imaginary
    coordinates and ``scratch`` (4, _ROWS) takes the term buffers; the
    accumulators (k floats each) are zeroed first.
    """
    zre, zim = coords
    acc_re.fill(0.0)
    acc_im.fill(0.0)
    for factors, cre, cim in terms:
        # the term (xr, xi) starts as the scalar coefficient; each
        # multiply by z = zr + i zi leaves it in the buffers (tr, ti):
        #   (xr zr - xi zi) + i (xr zi + xi zr)
        tr, ti, a, b = scratch[:, :k]
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


def _evaluate_rows(terms, points, out, lo, hi, coords, scratch):
    """Write the values at rows [lo, hi) of ``points`` into ``out[lo:hi]``, block by block.

    The sums accumulate straight in the real and imaginary parts of ``out``.
    """
    for start in range(lo, hi, _ROWS):
        stop = min(start + _ROWS, hi)
        _load_block(points, start, stop, coords)
        _evaluate_block(
            terms, coords, stop - start, scratch, out.real[start:stop], out.imag[start:stop]
        )


def evaluate_batch(poly, points):
    """Evaluate ``poly`` at each row of ``points`` (complex128, shape (N, nvars)).

    Powers expand by repeated multiplication and terms accumulate in the
    canonical order, matching :meth:`Polynomial.evaluate` bit for bit.
    """
    points = _checked_points(points, poly.nvars)
    npts = points.shape[0]
    if not poly.terms or npts == 0:
        return np.zeros(npts, dtype=np.complex128)
    out = np.empty(npts, dtype=np.complex128)
    rows = min(_ROWS, npts)
    jobs = [
        (lo, hi, np.empty((2, poly.nvars, rows)), np.empty((4, rows)))
        for lo, hi in _halves(npts)
    ]
    _on_two_threads(partial(_evaluate_rows, _terms(poly), points, out), jobs)
    return out


# ---------------------------------------------------------------------------
# occupancy binning
# ---------------------------------------------------------------------------


def _bin_rows(fterms, gterms, points, radius, bins, lo, hi, coords, scratch, uv, counts):
    """``counts`` plus the hits of F at rows [lo, hi) of ``points``, block by block.

    Each block's coordinates go into ``coords`` once; f and g are
    evaluated into the rows of ``uv`` (4, _ROWS): Re u, Im u, Re v, Im v.
    """
    r2 = radius * radius
    width = (2.0 * radius) / bins
    for start in range(lo, hi, _ROWS):
        stop = min(start + _ROWS, hi)
        k = stop - start
        _load_block(points, start, stop, coords)
        ure, uim, vre, vim = uv[:, :k]
        _evaluate_block(fterms, coords, k, scratch, ure, uim)
        _evaluate_block(gterms, coords, k, scratch, vre, vim)
        inside = (ure * ure + uim * uim < r2) & (vre * vre + vim * vim < r2)
        if not inside.any():
            continue
        idx = None
        for part in (ure, uim, vre, vim):
            cell = np.minimum(((part[inside] + radius) / width).astype(np.int64), bins - 1)
            if idx is None:
                idx = cell
            else:
                idx *= bins
                idx += cell
        hits = np.bincount(idx)
        counts[: hits.size] += hits
    return counts


def bin_hits(points, f, g, radius, bins):
    """Per-bin hit counts of F = (f, g) at ``points`` on the 4-D grid over the target polydisk.

    ``points`` is complex128 of shape (N, nvars).  The grid splits each of
    (Re u, Im u, Re v, Im v) into ``bins`` cells over [-radius, radius];
    only images strictly inside the polydisk {|u| < radius, |v| < radius}
    are counted.  u = f(x) and v = g(x) are the bits of
    :meth:`Polynomial.evaluate`, and counts are additive, so the result is
    independent of sample order, of the blocking and of the split.
    """
    if f.nvars != g.nvars:
        raise ValueError("f and g must have the same number of variables")
    points = _checked_points(points, f.nvars)
    npts = points.shape[0]
    radius = float(radius)
    bins = int(bins)
    rows = min(_ROWS, npts)
    jobs = [
        (
            lo,
            hi,
            np.empty((2, f.nvars, rows)),
            np.empty((4, rows)),
            np.empty((4, rows)),
            np.zeros(bins**4, dtype=np.int64),
        )
        for lo, hi in _halves(npts)
    ]
    task = partial(_bin_rows, _terms(f), _terms(g), points, radius, bins)
    counts, *other = _on_two_threads(task, jobs)
    for more in other:
        counts += more
    return counts


def centers_inside_polydisk(radius, bins):
    """Boolean mask (length bins**4) of grid cells whose center lies in the polydisk."""
    width = (2.0 * radius) / bins
    centers = -radius + width * (np.arange(bins) + 0.5)
    c2 = centers * centers
    u_in = (c2[:, None] + c2[None, :]) < radius * radius
    mask4 = u_in[:, :, None, None] & u_in[None, None, :, :]
    return mask4.reshape(-1)
