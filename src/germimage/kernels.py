"""Hot numeric kernels: batch polynomial evaluation and 4-D occupancy binning.

One numpy backend.  Evaluation performs the same sequence of IEEE
multiply/add operations per output element as :meth:`Polynomial.evaluate`
(powers by repeated multiplication, terms accumulated in the polynomial's
canonical order), so the two agree bit for bit; the determinism tests rely
on that.
"""

from __future__ import annotations

import numpy as np


def active_backend():
    """Name of the numeric backend, recorded with benchmark results."""
    return "numpy"


# ---------------------------------------------------------------------------
# batch polynomial evaluation
# ---------------------------------------------------------------------------


# The complex multiply is expanded into real multiplies/adds, the sequence
# scalar code performs (numpy's complex128 vector path differs from it at
# the last ulp).


def _eval_terms(exps, cre, cim, pre, pim):
    npts = pre.shape[0]
    acc_re = np.zeros(npts)
    acc_im = np.zeros(npts)
    for t in range(cre.shape[0]):
        term_re = np.full(npts, cre[t])
        term_im = np.full(npts, cim[t])
        for v in range(pre.shape[1]):
            zr = pre[:, v]
            zi = pim[:, v]
            for _ in range(exps[t, v]):
                nr = term_re * zr - term_im * zi
                ni = term_re * zi + term_im * zr
                term_re = nr
                term_im = ni
        acc_re = acc_re + term_re
        acc_im = acc_im + term_im
    return acc_re, acc_im


def pack_polynomial(poly):
    """(exponent matrix, complex coefficient vector) in canonical term order."""
    nterms = len(poly.terms)
    exps = np.zeros((nterms, poly.nvars), dtype=np.int64)
    coeffs = np.zeros(nterms, dtype=np.complex128)
    for t, (m, c) in enumerate(poly.terms):
        exps[t, :] = m
        coeffs[t] = complex(c)
    return exps, coeffs


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
    exps, coeffs = pack_polynomial(poly)
    if coeffs.shape[0] == 0:
        return np.zeros(points.shape[0], dtype=np.complex128)
    cre = np.ascontiguousarray(coeffs.real)
    cim = np.ascontiguousarray(coeffs.imag)
    pre = np.ascontiguousarray(points.real)
    pim = np.ascontiguousarray(points.imag)
    out_re, out_im = _eval_terms(exps, cre, cim, pre, pim)
    return out_re + 1j * out_im


# ---------------------------------------------------------------------------
# occupancy binning
# ---------------------------------------------------------------------------


def _bin_hits(u, v, radius, bins):
    r2 = radius * radius
    inside = (
        (u.real * u.real + u.imag * u.imag < r2)
        & (v.real * v.real + v.imag * v.imag < r2)
    )
    if not inside.any():
        return np.zeros(bins**4, dtype=np.int64)
    width = (2.0 * radius) / bins
    ur = u.real[inside]
    ui = u.imag[inside]
    vr = v.real[inside]
    vi = v.imag[inside]
    i0 = np.minimum(((ur + radius) / width).astype(np.int64), bins - 1)
    i1 = np.minimum(((ui + radius) / width).astype(np.int64), bins - 1)
    i2 = np.minimum(((vr + radius) / width).astype(np.int64), bins - 1)
    i3 = np.minimum(((vi + radius) / width).astype(np.int64), bins - 1)
    idx = ((i0 * bins + i1) * bins + i2) * bins + i3
    return np.bincount(idx, minlength=bins**4).astype(np.int64)


def bin_hits(u, v, radius, bins):
    """Per-bin hit counts on the 4-D grid over the open target polydisk.

    The grid splits each of (Re u, Im u, Re v, Im v) into ``bins`` cells
    over [-radius, radius]; only samples strictly inside the polydisk
    {|u| < radius, |v| < radius} are counted.  Counts are additive, so the
    result is independent of sample order.
    """
    u = np.ascontiguousarray(u, dtype=np.complex128)
    v = np.ascontiguousarray(v, dtype=np.complex128)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be 1-D arrays of equal length")
    return _bin_hits(u, v, float(radius), int(bins))


def centers_inside_polydisk(radius, bins):
    """Boolean mask (length bins**4) of grid cells whose center lies in the polydisk."""
    width = (2.0 * radius) / bins
    centers = -radius + width * (np.arange(bins) + 0.5)
    c2 = centers * centers
    u_in = (c2[:, None] + c2[None, :]) < radius * radius
    mask4 = u_in[:, :, None, None] & u_in[None, None, :, :]
    return mask4.reshape(-1)
