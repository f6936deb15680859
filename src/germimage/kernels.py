"""Hot numeric kernels: batch polynomial evaluation and 4-D occupancy binning.

One numpy backend.  Both kernels walk the points in fixed blocks of
``_ROWS`` rows and work in place in buffers allocated once per call, so
their scratch memory does not grow with the number of points and a
block's working set stays in cache.  :func:`bin_hits` is fused: per
block it copies the coordinates once, evaluates the map into block
buffers and bins the images, so a probe never holds u = f(points) and
v = g(points) at full length.  A point counts only if |u| < r and
|v| < r, so the component with fewer complex multiplies per point
(f on a tie) is evaluated first, at every row, and the other one only
where the first lies in the disk: a block with no such row is done, and
when few rows are left their coordinates are packed into a block buffer
first.  Dropping a row whose first image is outside the disk drops
nothing that could count, and a kept row's values take the same
operations wherever it sits, so the counts are those of evaluating both
components everywhere.  :func:`evaluate_batch` writes one polynomial's
values at every point, for the residual probe.  Both evaluate through
one block routine, ``_evaluate_block``.

Two threads share the rows.  Each kernel cuts the row range at the
block edge nearest its middle; the calling thread walks the first half
and one helper thread, started and joined inside the call, walks the
second.  The calling thread allocates each half's buffers before the
helper starts: a coordinate and scratch set of ``_ROWS`` rows, and for
binning the packed coordinates, the values of both components, the cell
indices, the disk masks and an integer count array; only the row
indices of a gather are made per block.  A thread writes only its own
rows of the output (evaluation) or its own count array (binning), and
the two count arrays are added once both halves are done.  The helper runs private code and numpy only, never a
public function of this package.  Its error is re-raised by the call,
after the helper has stopped, so no call returns rows left unwritten and
no thread outlives a call.  With fewer than two blocks' worth of rows
the calling thread runs alone.

Evaluation performs, for each output element, the same sequence of IEEE
multiply/add operations as :meth:`Polynomial.evaluate` (see there, also
for the sign of zero parts; numpy's complex128 vector path differs at
the last ulp).  Blocking, the split, the fusion and the packing change
only which elements share a numpy call, which thread makes it and where
the sums accumulate, never the operations applied to one element, so the
values agree bit for bit; the determinism tests rely on that.  Binning
adds one to a count per hit, over the blocks and the halves, which
equals the one-shot count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

# Rows per block.  2^14 rows keep a thread's four scratch buffers and
# the block's coordinates (≈ 1 MB at n = 2) in a core's cache; evaluating
# a degree-5 map at 2·10^6 points on one core of a 2-core x86-64 machine
# took 32 ms with 2^14 rows, 35 ms with 2^13 and 39 ms with 2^15.  Split
# over two threads, evaluating f and g of the corpus map ``rouche``
# (degrees 5 and 9) at all of 2·10^6 points in slices of 2^18 took
# 40.6 ms with 2^14 rows, 56.6 ms with 2^13 (contention for the
# interpreter lock) and 47.0 ms with 2^15, against 52.2 ms on one thread
# (same machine, medians of seven).  Binning those points, where g is
# evaluated only at the few rows whose f lies in the disk, took 126 ms
# with 2^14 rows, 200 ms with 2^13 and 103 ms with 2^15 (medians of seven,
# the same machine under other load).
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
    coordinates and ``scratch`` (4, _ROWS) takes the term buffers.  The
    sum starts at the first term, whose last multiply writes straight into
    the accumulators (k floats each).
    """
    zre, zim = coords
    for j, (factors, cre, cim) in enumerate(terms or [((), 0.0, 0.0)]):  # no terms: 0
        # the term (xr, xi) starts as the scalar coefficient; each
        # multiply by z = zr + i zi leaves it in the buffers (tr, ti), or
        # in the accumulators at the first term's last multiply:
        #   (xr zr - xi zi) + i (xr zi + xi zr)
        tr, ti, a, b = scratch[:, :k]
        xr, xi = cre, cim
        steps = [v for v, e in factors for _ in range(e)]
        for i, v in enumerate(steps):
            zr, zi = zre[v, :k], zim[v, :k]
            last = j == 0 and i == len(steps) - 1
            if i == 0 and cim == 0.0:
                # a real c scales z's parts, (c zr, c zi); c = 1.0 leaves them as they are
                if cre == 1.0 and not last:
                    xr, xi = zr, zi
                else:
                    xr, xi = (acc_re, acc_im) if last else (tr, ti)
                    np.multiply(cre, zr, out=xr)
                    np.multiply(cre, zi, out=xi)
                continue
            np.multiply(xr, zr, out=a)
            np.multiply(xi, zi, out=b)
            np.subtract(a, b, out=acc_re if last else a)
            np.multiply(xr, zi, out=b)
            np.multiply(xi, zr, out=tr)
            np.add(b, tr, out=acc_im if last else ti)
            tr, a = a, tr
            xr, xi = tr, ti
        if j == 0 and not steps:  # a constant first term
            acc_re.fill(cre)
            acc_im.fill(cim)
        elif j:
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


def _multiplies(terms):
    """Complex multiplies per point of :func:`_evaluate_block` over ``terms``."""
    return sum(e for factors, _, _ in terms for _, e in factors)


def _below(re, im, r2, tmp, out):
    """``out`` = (re*re + im*im < r2), with ``tmp`` (2, len(re)) for the squares."""
    a, b = tmp
    np.multiply(re, re, out=a)
    np.multiply(im, im, out=b)
    np.add(a, b, out=a)
    np.less(a, r2, out=out)


def _gather(rows, sources, targets):
    """Copy ``source[rows]`` into each target, for ascending in-range ``rows``."""
    for source, target in zip(sources, targets):
        # mode="clip" writes straight into ``out``; "raise" would buffer it
        np.take(source, rows, out=target, mode="clip")


def _bin_rows(
    first, second, f_first, points, radius, bins, lo, hi, coords, packed, scratch, uv, cells,
    masks, counts,
):
    """``counts`` plus the hits of F at rows [lo, hi) of ``points``, block by block.

    ``first`` and ``second`` are the terms of the components in the order
    they are evaluated, and ``f_first`` says whether ``first`` is f.  Per
    block the coordinates go into ``coords``, the first component into
    rows 0 and 1 of ``uv`` (4, _ROWS) and its disk test into ``masks[0]``.
    The second goes into rows 2 and 3 at every row or, when that saves
    more than it copies, into rows 0 and 1 at the surviving rows, packed
    into ``packed`` (the first's values move to rows 2 and 3).
    ``masks[1]`` takes the hits and ``cells`` their cell indices.
    """
    r2 = radius * radius
    width = (2.0 * radius) / bins
    cost = _multiplies(second)
    nvars = coords.shape[1]
    for start in range(lo, hi, _ROWS):
        stop = min(start + _ROWS, hi)
        k = stop - start
        _load_block(points, start, stop, coords)
        _evaluate_block(first, coords, k, scratch, uv[0, :k], uv[1, :k])
        near = masks[0, :k]
        _below(uv[0, :k], uv[1, :k], r2, scratch[:2, :k], near)
        m = int(np.count_nonzero(near))
        if m == 0:
            continue
        # packing costs a pass to find the m rows and a gather of each of
        # the 2 nvars + 2 arrays; it saves the six array passes of each
        # complex multiply at the k - m other rows
        if 6 * cost * (k - m) > k + (2 * nvars + 2) * m:
            _gather(
                np.flatnonzero(near),
                (*coords[0, :, :k], *coords[1, :, :k], *uv[:2, :k]),
                (*packed[0, :, :m], *packed[1, :, :m], *uv[2:, :m]),
            )
            at, n, a, b = packed, m, uv[2:, :m], uv[:2, :m]
        else:
            at, n, a, b = coords, k, uv[:2, :k], uv[2:, :k]
        _evaluate_block(second, at, n, scratch, *b)
        hit = masks[1, :n]
        _below(*b, r2, scratch[:2, :n], hit)
        if at is coords:
            np.logical_and(hit, near, out=hit)
        h = int(np.count_nonzero(hit))
        if h == 0:
            continue
        # each hit's cell, by the operations of
        # min(((part + radius) / width).astype(int64), bins - 1)
        parts = (*a, *b) if f_first else (*b, *a)
        tmp = scratch[:, :h]
        if h < n:
            _gather(np.flatnonzero(hit), parts, tmp)
            parts = tmp
        for part, out in zip(parts, tmp):
            np.add(part, radius, out=out)
        np.divide(tmp, width, out=tmp)
        cell = cells[:, :h]
        np.copyto(cell, tmp, casting="unsafe")
        np.minimum(cell, bins - 1, out=cell)
        idx = cell[0]
        for i in (1, 2, 3):
            idx *= bins
            idx += cell[i]
        np.add.at(counts, idx, 1)
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
    fterms, gterms = _terms(f), _terms(g)
    f_first = _multiplies(fterms) <= _multiplies(gterms)
    first, second = (fterms, gterms) if f_first else (gterms, fterms)
    rows = min(_ROWS, npts)
    jobs = [
        (
            lo,
            hi,
            np.empty((2, f.nvars, rows)),
            np.empty((2, f.nvars, rows)),
            np.empty((4, rows)),
            np.empty((4, rows)),
            np.empty((4, rows), dtype=np.int64),
            np.empty((2, rows), dtype=bool),
            np.zeros(bins**4, dtype=np.int64),
        )
        for lo, hi in _halves(npts)
    ]
    task = partial(_bin_rows, first, second, f_first, points, radius, bins)
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
