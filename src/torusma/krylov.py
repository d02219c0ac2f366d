"""Restarted GMRES for the ``n = 2`` Newton directions.

A numpy port of ``scipy.sparse.linalg.gmres`` (scipy 1.17.1,
``scipy/sparse/linalg/_isolve/iterative.py``) from a zero start and without
a callback: the same modified Gram–Schmidt process, the same gh-8400 control
of the inner tolerance, the same Givens rotations (LAPACK's ``dlartg``,
ported as ``_lartg``), triangular pseudo-solve and ``info``.  It returns
scipy's ``x`` and ``info`` bit for bit.  Two departures change no bit:

* The ``(restart + 1) x points`` Krylov basis is an anonymous mapping, not
  an allocation, so it is address space until its rows are written: a
  restart cycle of k iterations makes k + 1 rows resident, whatever the
  allocator's thresholds, and the update ``x += y @ V`` reads a view of
  them, as scipy's does.
* The first cycle starts from ``M b``, which the inner tolerance needs
  anyway; scipy applies ``M`` to ``b`` a second time.

Importing this module loads neither ``scipy.sparse`` nor ``scipy.linalg``.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

__all__ = ["gmres"]

# LAPACK's safe minimum and its reciprocal (la_constants: 2**-1022, 2**1022),
# and the range in which dlartg squares without scaling.
_SAFMIN = 2.0**-1022
_SAFMAX = 2.0**1022
_RTMIN = math.sqrt(_SAFMIN)
_RTMAX = math.sqrt(_SAFMAX / 2)


def _lartg(f: float, g: float) -> tuple[float, float, float]:
    """``(c, s, r)`` with ``[c s; -s c] [f; g] = [r; 0]``, as LAPACK >= 3.10
    ``dlartg`` computes it (``r`` takes the sign of ``f``)."""
    f1, g1 = abs(f), abs(g)
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), g1
    if _RTMIN < f1 < _RTMAX and _RTMIN < g1 < _RTMAX:
        d = math.sqrt(f * f + g * g)
        r = math.copysign(d, f)
        return f1 / d, g / r, r
    u = min(_SAFMAX, max(_SAFMIN, f1, g1))
    fs, gs = f / u, g / u
    d = math.sqrt(fs * fs + gs * gs)
    r = math.copysign(d, f)
    return abs(fs) / d, gs / r, r * u


def _basis_block(rows: int, n: int) -> np.ndarray:
    """An uninitialised ``rows x n`` float block that holds no memory until
    written: each page is mapped in when a row first touches it and returned
    to the system with the block."""
    size = rows * n * np.dtype(float).itemsize
    if hasattr(mmap, "MAP_PRIVATE"):
        buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    else:
        buf = mmap.mmap(-1, size)
    return np.frombuffer(buf, dtype=float).reshape(rows, n)


def gmres(A, b, *, M, rtol, restart, maxiter):
    """Solve ``A x = b`` from ``x = 0`` with GMRES, left-preconditioned by ``M``.

    ``A`` and ``M`` need only a ``matvec`` taking and returning 1-D float
    arrays.  GMRES writes into what ``M.matvec`` returns, copying it first
    only if it shares memory with the basis.  The solve stops when
    ``|b - A x| <= rtol |b|`` or after ``maxiter`` restart cycles of at most
    ``restart`` iterations each, both at least 1 (else ``ValueError``).
    Returns ``(x, info)``: ``info`` is 0 on success and ``maxiter`` otherwise.
    """
    for name, value in (("restart", restart), ("maxiter", maxiter)):
        if not value >= 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    matvec, psolve = A.matvec, M.matvec
    bnrm2 = np.linalg.norm(b)
    atol = float(rtol) * float(bnrm2)
    if bnrm2 == 0:
        return b.copy(), 0
    x = np.zeros(len(b))
    if bnrm2 < atol:
        return x, 0
    eps = np.finfo(float).eps
    restart = min(restart, len(b))

    z = psolve(b)
    # Tolerance control from gh-8400: the inner iteration is stopped on the
    # preconditioned residual, and its tolerance adapts to the outer check.
    ptol_max_factor = 1.0
    ptol = np.linalg.norm(z) * min(ptol_max_factor, atol / bnrm2)
    v = _basis_block(restart + 1, len(b))
    h = np.zeros((restart, restart + 1))
    givens = np.zeros((restart, 2))

    for iteration in range(maxiter):
        if iteration:
            z = psolve(r)
        tmp = np.linalg.norm(z)
        np.multiply(z, 1 / tmp, out=v[0])
        S = np.zeros(restart + 1)
        S[0] = tmp

        breakdown = False
        for col in range(restart):
            w = psolve(matvec(v[col]))
            if np.may_share_memory(w, v):
                w = w.copy()

            # Modified Gram-Schmidt
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                tmp = np.dot(v[k], w)
                h[col, k] = tmp
                w -= tmp * v[k]

            h1 = np.linalg.norm(w)
            h[col, col + 1] = h1
            # Exact solution indicator
            if h1 <= eps * h0:
                h[col, col + 1] = 0
                breakdown = True

            # Apply the past Givens rotations to this column, then its own.
            for k in range(col):
                c, s = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            c, s, mag = _lartg(float(h[col, col]), float(h[col, col + 1]))
            givens[col] = c, s
            h[col, col], h[col, col + 1] = mag, 0

            # S[col + 1] is always 0 before this rotation.
            tmp = -s * S[col]
            S[col], S[col + 1] = c * S[col], tmp
            presid = abs(tmp)
            if presid <= ptol or breakdown:
                break
            # The next basis row; scipy also writes it when it stops here,
            # but the update never reads it.
            np.multiply(w, 1 / h1, out=v[col + 1])

        # Back-substitution on the triangular h[:col+1, :col+1].T, allowing
        # the pseudo-solve of singular cases.
        if h[col, col] == 0:
            S[col] = 0
        y = S[: col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]

        x += y @ v[: col + 1]

        r = b - matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            # Inner loop passed but outer didn't
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)

    return x, 0 if rnorm <= atol else maxiter
