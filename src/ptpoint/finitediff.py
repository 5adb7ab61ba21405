"""Independent finite-difference validation of spectra and resolvents.

Discretizes -d^2/dx^2 on the lattice of step h with the model's interface
conditions encoded by ghost-value elimination.  Nothing here reuses the
closed-form dispersion machinery: agreement between the two routes is the
validation.

Scheme: on the staggered grid of OracleConfig every row is a second-order
central difference.  At each interface (which falls midway between two
nodes) the two adjacent rows use ghost values solved from the interface
conditions with quadratic one-sided stencils, keeping the matrix square and
the scheme O(h^2).  discretize builds the matrix on [-L, L] with Dirichlet
walls folded into the end rows by ghost reflection; the tests take it as the
dense reference.

Eigensolve: away from interfaces every row of (M - lam) u = 0 is the
recurrence u_{j+1} = (2 - h^2 lam) u_j - u_{j-1}, solved by z^j and z^-j with
z = e^{i kappa h} and lam = 4 sin^2(kappa h / 2) / h^2.  On each stretch of
nodes between interfaces u is a combination of two such solutions.  The outer
stretches run on to infinity and take the one solution that decays away from
the interfaces, the lattice Jost solution (Teschl, Jacobi Operators and
Completely Integrable Nonlinear Lattices, AMS 2000).  The two rows of each
interface are then two linear equations on the stretch coefficients, and the
eigenvalues of the operator on the infinite lattice are exactly the zeros of
their determinant F(kappa) (_Determinant) in the upper half-plane: 2x2 for an
origin model, 4x4 for a two-point model, at a cost per point that does not
depend on N.  Neither L nor N enters F, only h and the interface layout, so
F has no zeros near the real axis but the model's own.  Each call evaluates F
and F' on an array of kappa from one table of terms e^{i p kappa h} S(q) over
the integer exponents that the rows fix, and the coefficients of the
equations from one matrix product with that table.  The zeros are found by
zeros.find_zeros over a rectangle of the kappa upper half-plane that holds
every candidate, its bottom edge at Im kappa = zeros.BOTTOM_EDGE, in mirror
mode where the model's pt_selfadjoint flag holds: a PT-invariant condition
gives interface rows that the flip plus conjugation maps onto each other.
An origin model's search runs on zeros.MAX_COLUMNS columns, so its cost
does not grow with N; a two-point model's columns keep their width pi/span,
and their number grows with K = SEARCH_K / h.  F stays independent of the
two-point dispersion that the search also takes.
_Determinant with walls gives the determinant of discretize's matrix
instead, whose outer stretches meet a Dirichlet wall at +-L.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridCollision, GridMismatch, InvalidParams
from .zeros import BOTTOM_EDGE, MAX_COLUMNS, find_zeros

ROW_INTERIOR = 0
ROW_END = 1
ROW_INTERFACE = 2

# eigenvalues with Re < -DROP_TOL or |Im| > DROP_TOL max(1, |lam|) are discrete-spectrum
# candidates: the lattice moves the real spectral singularities k = n pi/2 of the u = 0
# delta pair to Im kappa of 1e-6 .. 3e-5 (N = 600 .. 9600 at L = 12), and no genuine
# candidate of the tests with Re lam > 0 has |Im lam| / |lam| under 0.3
DROP_TOL = 1e-4

# the zero search covers |Re kappa| <= K and BOTTOM_EDGE <= Im kappa <= K with
# K = SEARCH_K / h, past the horizon 0.15 / h
SEARCH_K = 0.16
# its columns are one period pi/span of the two-point factor e^{2 i kappa span} wide,
# span the distance between the outer interfaces, or K / MAX_COLUMNS for an origin
# model; BOTTOM_NODES initial nodes per column along the bottom edge: at L = 12 and
# N = 2400, 64 took 4459 points on the delta well against 1339 with 16, and more time
BOTTOM_NODES = 16


@dataclass(frozen=True)
class OracleConfig:
    """The staggered grid x_j = -L + (j + 1/2) h, h = 2L/N, over [-L, L] (N even).

    Interfaces at x = 0 and x = +-l fall between nodes, and the node set is
    invariant under x -> -x.  The same grid carries the finite-difference
    operator and every sampled function (states.GridFunction).

    resolved_lambda_max is the grid's resolution horizon (0.15/h)^2, about
    40 nodes per wavelength, which caps the candidates: past it the lattice
    no longer resolves the eigenfunctions, and on the walled grid of
    discretize the continuum near the band edge carries O(1) imaginary parts
    for non-normal interface rows.
    """

    L: float
    N: int

    def __post_init__(self):
        if self.N < 16 or self.N % 2:
            raise InvalidParams("N must be an even integer >= 16")
        if not (np.isfinite(self.L) and self.L > 0):
            raise InvalidParams(f"L must be finite and positive, got {self.L}")
        with np.errstate(over="ignore", divide="ignore"):
            if not np.isfinite(np.float64(self.h) ** -2):  # the stencil's 1/h^2
                raise InvalidParams(f"grid spacing h = {self.h:g} is too fine: 1/h^2 overflows")

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
        raise InvalidParams(
            f"interface elimination is singular at grid spacing h = {h:g}: the grid is too fine"
            " for the interface conditions; increase L (h = 2L/N)"
        )
    W = -np.linalg.solve(A, Q @ E_u)
    return W[0], W[1]


def _interface_rows(spec, cfg):
    """(m, w_L, w_R) for each interface of spec on the grid cfg, in order of position.

    The interface lies between nodes m and m + 1, whose rows take the ghost
    values w_L . u and w_R . u over (u_{m-1}, u_m, u_{m+1}, u_{m+2}) (_ghosts).
    """
    N, h, x = cfg.N, cfg.h, cfg.nodes
    rows, taken = [], set()
    for s, Q in spec.interfaces():
        if not -cfg.L < s < cfg.L:
            raise InvalidParams(f"interface at {s} lies outside [-L, L] with L = {cfg.L} (increase L)")
        m = int(np.floor((s - x[0]) / h))
        if not (0 <= m < N - 1) or min(abs(x[m] - s), abs(x[m + 1] - s)) < h / 4:
            raise GridCollision(f"interface at {s} collides with a grid node (change N or L)")
        if m < 2 or m + 3 >= N:
            raise GridCollision(f"interface at {s} too close to the domain wall")
        if taken & {m, m + 1}:
            raise GridCollision("interfaces too close together for this grid; increase N")
        taken |= {m, m + 1}
        rows.append((m, *_ghosts(Q, h)))
    return sorted(rows, key=lambda row: row[0])


def _row_kinds(rows, N):
    kinds = np.full(N, ROW_INTERIOR, dtype=np.int8)
    kinds[[0, -1]] = ROW_END
    for m, _, _ in rows:
        kinds[m] = kinds[m + 1] = ROW_INTERFACE
    return kinds


def _assemble(spec, cfg):
    """Dense matrix of the discretized operator on the grid cfg plus a per-row kind array."""
    N, h = cfg.N, cfg.h
    inv_h2 = 1.0 / (h * h)
    i = np.arange(N)
    M = np.zeros((N, N), dtype=complex)
    M[i, i] = 2.0 * inv_h2
    M[i[1:], i[:-1]] = M[i[:-1], i[1:]] = -inv_h2
    M[[0, -1], [0, -1]] = 3.0 * inv_h2  # Dirichlet wall folded in by ghost reflection
    rows = _interface_rows(spec, cfg)
    for m, w_l, w_r in rows:
        idx = [m - 1, m, m + 1, m + 2]
        # in each row the neighbour across the interface becomes the ghost value
        M[m, m + 1] = M[m + 1, m] = 0.0
        M[m, idx] -= w_l * inv_h2
        M[m + 1, idx] -= w_r * inv_h2
    return M, _row_kinds(rows, N)


def discretize(spec, cfg):
    """Dense complex matrix of -d^2/dx^2 with the model's interface conditions."""
    M, _ = _assemble(spec, cfg)
    return M


class _Determinant:
    """F(kappa), the determinant of the interface rows on the stretch coefficients.

    Stretch functions, with z = e^{i kappa h}, S(p) = (1 - z^p)/(1 - z) and j a node index:
    the left outer stretch, the nodes j <= b, carries z^{b-j}, which decays as j
    runs to -infinity, and the right one its mirror image; with walls, the left one carries
    z^{b-j} S(2j+1) instead, which is odd about j = -1/2 as the ghost value
    u_{-1} = -u_0 of a wall at -L requires, and the right one its mirror image
    about the wall at +L (N nodes).  An inner stretch [a, b] carries
    z^{j-a} + z^{b-j} and (z^{j-a} - z^{b-j})/(1 - z).  Each interface
    (m, w_L, w_R) gives two equations on the stretches on either side of it:
    the left one's value at m + 1 is w_L . u and the right one's at m is
    w_R . u.  Every term stays bounded in the upper half-plane, and at
    kappa = 0 (z = 1) the functions stay independent, so F has no spurious
    zero there.  The equations are eliminated interface by interface along
    the chain of stretches.  Calling the object gives (F, dF/dkappa) on an
    array of kappa.

    Every coefficient of the equations is a fixed linear combination of
    terms z^p and z^p S(q) over integer exponents that the rows fix: a call
    takes one exp for each exponent (z^q enters dS(q)/dkappa too) and one
    expm1 for each q, S(q) = expm1(i q h kappa) / expm1(i h kappa), builds
    the table of the terms and of their derivatives, and gets the
    coefficients from one matrix product of each with coeffs, the fixed
    matrix of the combinations.
    F is linear in the left columns and in the right columns of each
    interface (a group), so dF/dkappa is the sum over groups of F with that
    group's columns replaced by their derivatives; the elimination runs once
    on F and all these at the same time.
    """

    def __init__(self, rows, N, h, walls):
        self.h = h
        # the coefficient of a basis function in an equation (a quantity), as {(p, q): c}
        # for the sum of c z^p S(q), where q None stands for c z^p
        combos, groups, self.columns = [], [], []

        def add(functions, weights, group):
            """Append the quantities of each basis function, given by its terms [(c, p, q)] at t = -1, 0, 1."""
            out = []
            for f in functions:
                pair = []
                for row in weights:
                    combo = {}
                    for entry, w in zip(f, row):
                        for c, p, q in entry:
                            combo[p, q] = combo.get((p, q), 0) + w * c
                    pair.append(len(combos))
                    combos.append(combo)
                    groups.append(group)
                out.append(pair)
            return out

        T = (-1, 0, 1)
        for i, (m, w_l, w_r) in enumerate(rows):
            if i == 0:  # values at m-1, m, m+1 (t = -1, 0, 1 from the stretch end m)
                left = [[[(1, -t, 2 * m + 2 * t + 1 if walls else None)] for t in T]]
            else:
                a = m - rows[i - 1][0] - 1
                left = [[[(1, a + t, None), (1, -t, None)] for t in T], [[(-1, -t, a + 2 * t)] for t in T]]
            if i == len(rows) - 1:  # values at m, m+1, m+2 (t = -1, 0, 1 from the stretch start m+1)
                b = N - 2 - m
                right = [[[(1, t, 2 * b - 2 * t + 1 if walls else None)] for t in T]]
            else:
                b = rows[i + 1][0] - m - 1
                right = [[[(1, t, None), (1, b - t, None)] for t in T], [[(1, t, b - 2 * t)] for t in T]]
            self.columns.append((
                add(left, [[-w_l[0], -w_l[1], 1.0], [-w_r[0], -w_r[1], 0.0]], 2 * i),
                add(right, [[0.0, -w_l[2], -w_l[3]], [1.0, -w_r[2], -w_r[3]]], 2 * i + 1),
            ))
        # the terms z^p S(q) that the quantities take, by exponent, and the fixed matrix of
        # their coefficients; q None stands for S = 1
        keys = {key for combo in combos for key, c in combo.items() if c != 0}
        keys = sorted(keys, key=lambda key: (key[0], key[1] is not None, key[1]))
        self.coeffs = np.array([[combo.get(key, 0) for key in keys] for combo in combos], dtype=complex)
        sums = sorted({q for _, q in keys if q is not None})
        powers = sorted({p for p, _ in keys} | set(sums))  # z^q enters dS(q)/dkappa
        self.powers = np.array(powers, dtype=float)[:, None]
        self.sums = np.array(sums, dtype=float)[:, None]
        self.sum_power = np.searchsorted(powers, sums)  # the row of each z^q among the powers
        # each term's row among the powers and among the sums, where row len(sums) holds S = 1
        self.term = np.array([(powers.index(p), (sums + [None]).index(q)) for p, q in keys]).T
        # stacked axis of the elimination: 0 holds F's columns, 1 + g those with group g
        # differentiated, so quantity r is taken from the derivatives at 1 + groups[r]
        self.pick = ((1 + np.array(groups))[:, None] == np.arange(max(groups) + 2)).astype(int)
        self.quantity = np.arange(len(groups))[:, None]

    def __call__(self, kappa):
        kappa = np.asarray(kappa, dtype=complex)
        ih = 1j * self.h
        x = ih * kappa.ravel()
        z = np.exp(self.powers * x)  # z^p
        dz = (ih * self.powers) * z
        e1 = np.expm1(x)  # z - 1
        S = np.expm1(self.sums * x) / e1
        dS = (dz[self.sum_power] - ih * (1.0 + e1) * S) / e1  # i h (q z^q - z S(q)) / (z - 1)
        one = np.ones((1, x.size))
        S, dS = np.concatenate([S, one]), np.concatenate([dS, 0 * one])
        p, q = self.term
        values = z[p] * S[q]
        slopes = dz[p] * S[q] + z[p] * dS[q]
        quantities = np.stack([self.coeffs @ values, self.coeffs @ slopes])
        F = self._eliminate(quantities[self.pick, self.quantity])
        return F[0].reshape(kappa.shape), F[1:].sum(axis=0).reshape(kappa.shape)

    def _eliminate(self, X):
        # u: coefficients, up to a common factor, of the stretch left of interface i that
        # solve the equations of every interface before it; an outer stretch has one basis
        # function, an inner stretch two
        for left, right in self.columns:
            lc = [(X[l], X[r]) for l, r in left]
            rc = [(X[l], X[r]) for l, r in right]
            if len(lc) == 1:
                ((pl, pr),) = lc
            else:
                (cl, cr), (dl, dr) = lc
                pl, pr = u[0] * cl + u[1] * dl, u[0] * cr + u[1] * dr
            if len(rc) == 1:  # the right outer stretch closes the chain
                ((rl, rr),) = rc
                return pl * rr - rl * pr
            (al, ar), (bl, br) = rc
            u = [pl * br - bl * pr, al * pr - pl * ar]


def oracle_discrete_spectrum(spec, cfg):
    """Discrete-spectrum candidates of the discretized operator.

    The eigenvalues of the finite-difference operator on the infinite lattice
    of step h, found as the zeros of the interface determinant F(kappa),
    lam = 4 sin^2(kappa h / 2) / h^2 (see the module docstring), without
    building a matrix.  Zeros are counted by the argument principle over
    |Re kappa| <= K, BOTTOM_EDGE <= Im kappa <= K, K = SEARCH_K / h, on
    columns pi/span wide for interfaces span apart, or K/MAX_COLUMNS for
    an origin model, isolated by subdivision and refined by Newton steps.
    A model whose pt_selfadjoint flag holds is searched over Re kappa >= 0
    and mirrored, so its non-real candidates come in exact conjugate pairs
    and its negative ones are exactly real.  Raises EigensolverFailure,
    never a partial list, when the refined zeros do not add up to the
    winding count or an edge cannot be resolved, and ContourThroughZero when
    F vanishes at a node of an edge.
    Returned are the eigenvalues with Re < -DROP_TOL or
    |Im| > DROP_TOL max(1, |lam|), capped at the resolution horizon (see
    OracleConfig).  No wall enters: L acts only through h = 2L/N.
    Converges to the true discrete eigenvalues as O(h^2).  The interface
    equations cancel to about kappa h of their terms, which sets a rounding
    floor near eps / (kappa h): at N = 96 000 and L = 12 the float zeros of F
    lie within 1e-12 of its exact zeros.
    """
    rows = _interface_rows(spec, cfg)
    if cfg.resolved_lambda_max <= DROP_TOL:  # no eigenvalue can pass both filters
        return np.zeros(0, dtype=complex)
    h = cfg.h
    K = SEARCH_K / h
    span = (rows[-1][0] - rows[0][0]) * h
    dx = min(np.pi / span, K) if span else K / MAX_COLUMNS
    f = _Determinant(rows, cfg.N, h, walls=False)
    # the matrix product of a call of f rounds by the number of points in it
    kappa, multiplicity = find_zeros(f, K, BOTTOM_EDGE, dx, spec.pt_selfadjoint, BOTTOM_NODES, pointwise=False)
    ev = np.repeat((2.0 / h * np.sin(0.5 * h * kappa)) ** 2, multiplicity)
    keep = (ev.real < -DROP_TOL) | (np.abs(ev.imag) > DROP_TOL * np.maximum(1.0, np.abs(ev)))
    keep &= np.abs(ev) <= cfg.resolved_lambda_max
    out = ev[keep]
    return out[np.lexsort((out.imag, out.real))]


def oracle_resolvent_residual(spec, lam, U, F):
    """|| (M - lam) U - F || / ||F|| over the interior (pure differential) rows of M.

    M is the matrix of discretize, but it is never built: _assemble edits only
    the interface and end rows, so every interior row is the three-point
    stencil (2 u_j - u_{j-1} - u_{j+1}) / h^2, taken on arrays in O(N).
    Rounding in U, about eps |U|, enters divided by h^2, a floor under the
    O(h^2) residual: at N = 96 000 residual / h^2 is no longer constant.
    """
    if not U.same_grid(F):
        raise GridMismatch("U and F must share the same grid")
    if not np.isfinite(lam):
        raise InvalidParams(f"lambda must be finite, got {lam}")
    u, f = U.values, F.values
    interior = _row_kinds(_interface_rows(spec, U), U.N) == ROW_INTERIOR
    denom = float(np.linalg.norm(f[interior]))
    if denom == 0.0:
        raise InvalidParams("F vanishes on the interior rows; residual undefined")
    # the end rows are never interior, so rows 1 .. N-2 hold every interior row
    r = (2.0 * u[1:-1] - u[:-2] - u[2:]) / (U.h * U.h) - lam * u[1:-1] - f[1:-1]
    return float(np.linalg.norm(r[interior[1:-1]])) / denom
