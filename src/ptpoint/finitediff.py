"""Independent finite-difference validation of spectra and resolvents.

Discretizes -d^2/dx^2 on [-L, L] with Dirichlet walls and the model's
interface conditions encoded by ghost-value elimination, then solves the
dense non-Hermitian eigenproblem.  Nothing here reuses the closed-form
dispersion machinery: agreement between the two routes is the validation.

Scheme: staggered grid x_j = -L + (j + 1/2) h, h = 2L/N; every row is a
second-order central difference.  At each interface (which falls midway
between two nodes) the two adjacent rows use ghost values solved from the
interface conditions with quadratic one-sided stencils, keeping the matrix
square and the scheme O(h^2).  Dirichlet walls are folded into the end rows
by ghost reflection.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    EigensolverFailure,
    GridCollision,
    GridMismatch,
    InvalidParams,
)

ROW_INTERIOR = 0
ROW_END = 1
ROW_INTERFACE = 2


@dataclass(frozen=True)
class OracleConfig:
    """Truncation half-width L, node count N, and acceptance filters.

    drop_tol: eigenvalues with Re < -drop_tol or |Im| > drop_tol count as
    discrete-spectrum candidates.  lambda_max caps candidates at the grid's
    resolution horizon (default (0.15/h)^2, about 40 nodes per wavelength);
    the discretized continuum near the band edge is polluted by O(1)
    imaginary parts for non-normal interface rows and must not be reported.
    """

    L: float
    N: int
    drop_tol: float = 1e-4
    lambda_max: Optional[float] = None

    def __post_init__(self):
        if self.N < 16 or self.N % 2:
            raise InvalidParams("N must be an even integer >= 16")
        if not self.L > 0:
            raise InvalidParams("L must be positive")

    @property
    def h(self):
        return 2.0 * self.L / self.N

    @property
    def resolved_lambda_max(self):
        if self.lambda_max is not None:
            return self.lambda_max
        return (0.15 / self.h) ** 2


def _ghosts(Q, h):
    """Ghost-node weights (w_L, w_R) over (u_{m-1}, u_m, u_{m+1}, u_{m+2}).

    The interface lies midway between u_m and u_{m+1}.  The left function's
    ghost g_L at x_{m+1} and the right function's ghost g_R at x_m give the
    boundary values through quadratic one-sided stencils,
    v = (psi+, psi'+, psi-, psi'-) = E_g (g_L, g_R) + E_u u, and Q v = 0 is
    solved for the two ghosts.
    """
    E_g = np.array([[0.0, 3 / 8], [0.0, -1 / h], [3 / 8, 0.0], [1 / h, 0.0]])
    E_u = np.array(
        [
            [0.0, 0.0, 3 / 4, -1 / 8],
            [0.0, 0.0, 1 / h, 0.0],
            [-1 / 8, 3 / 4, 0.0, 0.0],
            [0.0, -1 / h, 0.0, 0.0],
        ]
    )
    A = Q @ E_g
    if abs(np.linalg.det(A)) <= 1e-14 * max(1.0, float(np.max(np.abs(A)))) ** 2:
        raise InvalidParams("interface elimination is singular at this grid spacing; change N")
    W = -np.linalg.solve(A, Q @ E_u)
    return W[0], W[1]


def _assemble(spec, cfg):
    """Dense matrix of the discretized operator plus a per-row kind array."""
    N, h = cfg.N, cfg.h
    x = -cfg.L + (np.arange(N) + 0.5) * h
    M = np.zeros((N, N), dtype=complex)
    kinds = np.full(N, ROW_INTERIOR, dtype=np.int8)

    inv_h2 = 1.0 / (h * h)
    for j in range(N):
        if j == 0 or j == N - 1:
            M[j, j] = 3.0 * inv_h2  # Dirichlet wall folded in by ghost reflection
            M[j, j - 1 if j else j + 1] = -inv_h2
            kinds[j] = ROW_END
        else:
            M[j, j - 1] = -inv_h2
            M[j, j] = 2.0 * inv_h2
            M[j, j + 1] = -inv_h2

    for s, Q in spec.interfaces():
        m = int(np.floor((s - x[0]) / h))
        if not (0 <= m < N - 1) or min(abs(x[m] - s), abs(x[m + 1] - s)) < h / 4:
            raise GridCollision(f"interface at {s} collides with a grid node (change N or L)")
        if m < 2 or m + 3 >= N:
            raise GridCollision(f"interface at {s} too close to the domain wall")
        if kinds[m] != ROW_INTERIOR or kinds[m + 1] != ROW_INTERIOR:
            raise GridCollision("interfaces too close together for this grid; increase N")
        w_l, w_r = _ghosts(Q, h)
        idx = [m - 1, m, m + 1, m + 2]
        # in each row the neighbour across the interface becomes the ghost value
        M[m, m + 1] = M[m + 1, m] = 0.0
        M[m, idx] -= w_l * inv_h2
        M[m + 1, idx] -= w_r * inv_h2
        kinds[m] = kinds[m + 1] = ROW_INTERFACE
    return M, kinds


def discretize(spec, cfg):
    """Dense complex matrix of -d^2/dx^2 with the model's interface conditions."""
    M, _ = _assemble(spec, cfg)
    return M


def interface_row_kinds(spec, cfg):
    """Per-row classification of the discretized matrix (interior/end/interface)."""
    _, kinds = _assemble(spec, cfg)
    return kinds


def oracle_discrete_spectrum(spec, cfg):
    """Discrete-spectrum candidates of the discretized operator.

    All eigenvalues are computed with a dense general eigensolver; returned
    are those with Re < -drop_tol or |Im| > drop_tol, capped at the
    resolution horizon (see OracleConfig).  Converges to the true discrete
    eigenvalues as O(h^2) + O(e^{-2 Im(k) L}).
    """
    M = discretize(spec, cfg)
    try:
        if np.max(np.abs(M.imag)) == 0.0:
            ev = np.linalg.eigvals(M.real).astype(complex)
        else:
            ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    keep = (ev.real < -cfg.drop_tol) | (np.abs(ev.imag) > cfg.drop_tol)
    keep &= np.abs(ev) <= cfg.resolved_lambda_max
    out = ev[keep]
    return out[np.lexsort((out.imag, out.real))]


def oracle_resolvent_residual(spec, lam, U, F):
    """|| (M - lam) U - F || / ||F|| over the interior (pure differential) rows."""
    if not U.same_grid(F):
        raise GridMismatch("U and F must share the same grid")
    cfg = OracleConfig(L=U.L, N=U.N)
    M, kinds = _assemble(spec, cfg)
    r = M @ U.values - lam * U.values - F.values
    interior = kinds == ROW_INTERIOR
    denom = float(np.linalg.norm(F.values[interior]))
    if denom == 0.0:
        raise InvalidParams("F vanishes on the interior rows; residual undefined")
    return float(np.linalg.norm(r[interior])) / denom
