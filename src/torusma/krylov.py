"""Restarted GMRES for the ``n = 2`` Newton directions.

The Newton iteration asks only for a direction whose linear residual meets
the Eisenstat–Walker forcing term, so this is the smallest GMRES that
guarantees it: preconditioned on the right, so that the Arnoldi estimate is
the true residual ``|b - A x|`` and no operator application closes a
converged cycle; modified Gram–Schmidt; Givens rotations from
``math.hypot``; no control of an inner tolerance.  It does not reproduce
``scipy.sparse.linalg.gmres`` bit for bit, which is left-preconditioned and
stops on a preconditioned residual that needs a matvec per cycle to check.

The ``(restart + 1) x points`` Krylov basis is an anonymous mapping, not an
allocation, so it is address space until its rows are written: a restart
cycle of k iterations makes at most k + 1 rows resident, whatever the
allocator's thresholds, and the update reads a view of them.

Importing this module loads neither ``scipy.sparse`` nor ``scipy.linalg``.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

__all__ = ["gmres"]

# The Krylov space has stopped growing when orthogonalization leaves less
# than this share of a new vector: for ``A`` the identity and ``M`` a
# constant, what is left of the second vector is round-off of a few ulps.
_BREAKDOWN = 1e-12


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
    """Solve ``A x = b`` from ``x = 0`` with GMRES, right-preconditioned by ``M``.

    ``A`` and ``M`` need only a ``matvec`` taking and returning 1-D float
    arrays, and ``A M`` must be nonsingular.  GMRES writes into what
    ``A.matvec`` returns, copying it first only if it shares memory with the
    basis.  The solve stops when ``|b - A x| <= rtol |b|``, read from the
    Arnoldi process, when the Krylov space stops growing, or after
    ``maxiter`` restart cycles of at most ``restart`` iterations each, both
    at least 1 (else ``ValueError``).  A cycle of k iterations applies ``A``
    k times and ``M`` k + 1 times, and each restart applies ``A`` once more
    to the iterate.  Returns ``(x, info)``: ``info`` is 0 when the residual
    meets ``rtol`` and ``maxiter`` otherwise.
    """
    for name, value in (("restart", restart), ("maxiter", maxiter)):
        if not value >= 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    x = np.zeros(len(b))
    atol = float(rtol) * float(np.linalg.norm(b))
    r = b
    restart = min(restart, len(b))
    v = _basis_block(restart + 1, len(b))
    h = np.zeros((restart, restart))
    cs, sn = np.zeros(restart), np.zeros(restart)
    for cycle in range(maxiter):
        if cycle:
            r = b - A.matvec(x)
        beta = float(np.linalg.norm(r))
        if beta <= atol:
            return x, 0
        np.multiply(r, 1 / beta, out=v[0])
        g = np.zeros(restart + 1)
        g[0] = beta
        for k in range(restart):
            w = A.matvec(M.matvec(v[k]))
            if np.may_share_memory(w, v):
                w = w.copy()
            h0 = np.linalg.norm(w)
            for i in range(k + 1):
                h[i, k] = np.dot(v[i], w)
                w -= h[i, k] * v[i]
            h1 = float(np.linalg.norm(w))
            for i in range(k):
                h[i, k], h[i + 1, k] = (
                    cs[i] * h[i, k] + sn[i] * h[i + 1, k],
                    cs[i] * h[i + 1, k] - sn[i] * h[i, k],
                )
            rho = math.hypot(h[k, k], h1)
            cs[k], sn[k], h[k, k] = h[k, k] / rho, h1 / rho, rho
            g[k + 1], g[k] = -sn[k] * g[k], cs[k] * g[k]
            converged = abs(g[k + 1]) <= atol
            stalled = h1 <= _BREAKDOWN * h0
            if converged or stalled:
                break
            np.multiply(w, 1 / h1, out=v[k + 1])
        y = np.linalg.solve(h[: k + 1, : k + 1], g[: k + 1])
        x += M.matvec(y @ v[: k + 1])
        if converged:
            return x, 0
        if stalled:
            break
    return x, maxiter
