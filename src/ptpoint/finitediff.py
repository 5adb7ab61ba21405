"""Independent finite-difference validation of spectra and resolvents.

Discretizes -d^2/dx^2 on [-L, L] with Dirichlet walls and the model's
interface conditions encoded by ghost-value elimination, then computes every
eigenvalue of the dense non-Hermitian matrix.  Nothing here reuses the
closed-form dispersion machinery: agreement between the two routes is the
validation.

Eigensolve: the grid is symmetric under x -> -x, so the matrix of a model
invariant under reflection plus conjugation (PT) commutes, to rounding, with
u -> conj(u[::-1]).  In the unitary basis of vectors fixed by that map,
(e_j + e_{N-1-j})/sqrt2 and i(e_j - e_{N-1-j})/sqrt2, such a matrix is real
and is solved in real arithmetic; if the model is also invariant under
reflection alone, its even and odd halves decouple and are solved as two
real N/2 blocks.  Any other matrix is solved as a complex one.  Each form is
an exact similarity of the same matrix (see _eigvals).

Scheme: on the staggered grid of OracleConfig every row is a second-order
central difference.  At each interface (which falls midway between two
nodes) the two adjacent rows use ghost values solved from the interface
conditions with quadratic one-sided stencils, keeping the matrix square and
the scheme O(h^2).  Dirichlet walls are folded into the end rows by ghost
reflection.
"""

from dataclasses import dataclass

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

# eigenvalues with Re < -DROP_TOL or |Im| > DROP_TOL are discrete-spectrum candidates
DROP_TOL = 1e-4

# a block of the matrix in the symmetry-adapted basis (_eigvals) at or below
# SYMMETRY_TOL * eps * max|M| is rounding: over 13 models at N = 600, 1440 and 2400
# the blocks a symmetry zeroes measured <= 0.8 eps * max|M|, and >= 3e12 without it
SYMMETRY_TOL = 64


@dataclass(frozen=True)
class OracleConfig:
    """The staggered grid x_j = -L + (j + 1/2) h, h = 2L/N, over [-L, L] (N even).

    Interfaces at x = 0 and x = +-l fall between nodes, and the node set is
    invariant under x -> -x.  The same grid carries the finite-difference
    operator and every sampled function (states.GridFunction).

    resolved_lambda_max is the grid's resolution horizon (0.15/h)^2, about
    40 nodes per wavelength, which caps the candidates: the discretized
    continuum near the band edge is polluted by O(1) imaginary parts for
    non-normal interface rows and must not be reported.
    """

    L: float
    N: int

    def __post_init__(self):
        if self.N < 16 or self.N % 2:
            raise InvalidParams("N must be an even integer >= 16")
        if not (np.isfinite(self.L) and self.L > 0):
            raise InvalidParams(f"L must be finite and positive, got {self.L}")

    @property
    def h(self):
        return 2.0 * self.L / self.N

    @property
    def nodes(self):
        return -self.L + (np.arange(self.N) + 0.5) * self.h

    @property
    def resolved_lambda_max(self):
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
    """Dense matrix of the discretized operator on the grid cfg plus a per-row kind array."""
    N, h, x = cfg.N, cfg.h, cfg.nodes
    inv_h2 = 1.0 / (h * h)
    i = np.arange(N)
    M = np.zeros((N, N), dtype=complex)
    M[i, i] = 2.0 * inv_h2
    M[i[1:], i[:-1]] = M[i[:-1], i[1:]] = -inv_h2
    M[[0, -1], [0, -1]] = 3.0 * inv_h2  # Dirichlet wall folded in by ghost reflection
    kinds = np.full(N, ROW_INTERIOR, dtype=np.int8)
    kinds[[0, -1]] = ROW_END

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


def _even_odd(M):
    """Overwrite M with W^T M W in the real orthogonal even/odd basis W.

    Column c of W is (e_c + e_{N-1-c})/sqrt2 for c < N/2 and
    (e_{N-1-c} - e_c)/sqrt2 otherwise.  W diag(1, i) is the basis S of
    _eigvals: each of its columns u is invariant under u -> conj(u[::-1]).
    """
    n = len(M) // 2
    for X in (M, M.T):  # rows, then columns
        top, bottom = X[:n], X[: n - 1 : -1]
        total = top + bottom
        np.subtract(top, bottom, out=bottom)
        top[...] = total
        del total  # one half-size temporary at a time
    M *= 0.5


def _peak(a):
    """max |a|"""
    return np.max(np.abs(a))


def _eigvals(M):
    """Every eigenvalue of M, by the cheapest exact similarity its symmetry allows; M is overwritten.

    M becomes E = W^T M W (_even_odd), with blocks [[even, even_odd], [odd_even, odd]].
    Reflection symmetry (J M J = M, J the flip) makes the off-diagonal blocks
    vanish, and the even and odd blocks are solved apart.  Reflection plus
    conjugation (PT, J conj(M) J = M) makes the diagonal blocks real and the
    off-diagonal ones imaginary, so S^H M S = diag(1, -i) E diag(1, i) is real.
    A block vanishes at or below SYMMETRY_TOL * eps * max|M|.  Whatever is real
    is solved in real arithmetic; E is real when M is.
    """
    n = len(M) // 2
    tol = SYMMETRY_TOL * np.finfo(float).eps * _peak(M)
    _even_odd(M)
    even, odd, even_odd, odd_even = M[:n, :n], M[n:, n:], M[:n, n:], M[n:, :n]
    if max(_peak(even_odd), _peak(odd_even)) <= tol:
        blocks = [even, odd]
    else:
        blocks = [M]
        if max(_peak(even.imag), _peak(odd.imag), _peak(even_odd.real), _peak(odd_even.real)) <= tol:
            even_odd *= 1j  # M <- diag(1, -i) M diag(1, i): S^H M S, real
            odd_even *= -1j
    if max(_peak(b.imag) for b in blocks) <= tol:
        blocks = [b.real for b in blocks]
    return np.concatenate([np.linalg.eigvals(b) for b in blocks])


def oracle_discrete_spectrum(spec, cfg):
    """Discrete-spectrum candidates of the discretized operator.

    All eigenvalues of the matrix of discretize are computed by a dense
    eigensolver in a symmetry-adapted basis (_eigvals): in real arithmetic
    when the model is PT-symmetric, as two half-size real blocks when it is
    also parity-symmetric, and as a complex matrix otherwise.  Returned are
    those with Re < -DROP_TOL or |Im| > DROP_TOL, capped at the resolution
    horizon (see OracleConfig).  Converges to the true discrete eigenvalues
    as O(h^2) + O(e^{-2 Im(k) L}).
    """
    M = discretize(spec, cfg)
    try:
        ev = _eigvals(M).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    keep = (ev.real < -DROP_TOL) | (np.abs(ev.imag) > DROP_TOL)
    keep &= np.abs(ev) <= cfg.resolved_lambda_max
    out = ev[keep]
    return out[np.lexsort((out.imag, out.real))]


def oracle_resolvent_residual(spec, lam, U, F):
    """|| (M - lam) U - F || / ||F|| over the interior (pure differential) rows."""
    if not U.same_grid(F):
        raise GridMismatch("U and F must share the same grid")
    M, kinds = _assemble(spec, U)
    r = M @ U.values - lam * U.values - F.values
    interior = kinds == ROW_INTERIOR
    denom = float(np.linalg.norm(F.values[interior]))
    if denom == 0.0:
        raise InvalidParams("F vanishes on the interior rows; residual undefined")
    return float(np.linalg.norm(r[interior])) / denom
