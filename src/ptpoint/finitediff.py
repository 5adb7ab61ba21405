"""Independent finite-difference validation of spectra and resolvents.

Discretizes -d^2/dx^2 on [-L, L] with Dirichlet walls and the model's
interface conditions encoded by ghost-value elimination.  Nothing here reuses
the closed-form dispersion machinery: agreement between the two routes is the
validation.  The argument-principle zero search (find_zeros) takes any
function that gives its values and derivatives on arrays, and the two-point
route (spectra.two_point_spectrum) runs its dispersion through it too; the
determinant F searched here stays independent of that dispersion.

Scheme: on the staggered grid of OracleConfig every row is a second-order
central difference.  At each interface (which falls midway between two
nodes) the two adjacent rows use ghost values solved from the interface
conditions with quadratic one-sided stencils, keeping the matrix square and
the scheme O(h^2).  Dirichlet walls are folded into the end rows by ghost
reflection.

Eigensolve: away from interfaces every row of (M - lam) u = 0 is the
recurrence u_{j+1} = (2 - h^2 lam) u_j - u_{j-1}, solved by z^j and z^-j with
z = e^{i kappa h} and lam = 4 sin^2(kappa h / 2) / h^2.  On each stretch of
nodes between interfaces u is a combination of two such solutions; the outer
stretches take the one combination that meets their wall.  The two rows of
each interface are then two linear equations on the stretch coefficients, and
the eigenvalues of the matrix are exactly the zeros of their determinant
F(kappa) (_Determinant): 2x2 for an origin model, 4x4 for a two-point model,
at a cost that does not depend on N.  Each call evaluates F and F' on an
array of kappa from one table of exponentials e^{i p kappa h} over the
integer exponents p that the rows fix; the exponents come in runs a few
apart, and each run takes one exp and one expm1, the rest by products.  The
zeros are counted by the argument principle and isolated by subdivision over
a rectangle of the kappa upper half-plane that holds every candidate
(find_zeros), then refined by Newton steps (_newton).  The bottom edge of the
rectangle passes DROP_TOL/(4K) above the box-truncated continuum (1.6e-6 at
h = 0.01), and each continuum zero turns the phase by about pi within that
distance; phase tracking (_track) locates such a zero by Newton steps and
divides it out of the segment instead of bisecting down to its scale.
Zeros closer than CLUSTER |kappa|, such as the double zeros of decoupled
mirror-image halves, come out at their mean (_cluster).  The zeros of a
model invariant under reflection plus conjugation (PT) are mirror images
under kappa -> -conj(kappa), so only Re kappa >= 0 is searched and the
imaginary axis is solved as a real problem: its roots are refined by Newton
steps on F(i y), kept inside the bracket of a sign change.
"""

import math
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

# two interface rows that PT maps onto each other match when they differ by at most
# SYMMETRY_TOL * eps * max|M|: over 17 models at N = 600, 1440 and 2400 they differed
# by <= 3.2 eps * max|M| where PT holds, and >= 4e12 where it fails
SYMMETRY_TOL = 64

# the zero search covers |Re kappa| <= K and DROP_TOL / (4K) <= Im kappa <= K with
# K = SEARCH_K / h, past the horizon 0.15 / h; the bottom edge lies below every candidate
SEARCH_K = 0.16
# initial nodes per continuum spacing pi/(2L) along the bottom edge, which passes just
# above the box-truncated continuum; with 64 nodes per side the count came out wrong
NODES_PER_SPACING = 8
# along every other edge, initial nodes max(dx, y) / NODES_PER_GAP apart at height y,
# dx = pi/(2L), and at least NODES_PER_EDGE per edge; the lid (y = K >= dx) starts
# from its column edges, dx apart, as each column needs its own phase change;
# |F'/F| (_unresolved) refines wherever that is too coarse
NODES_PER_GAP = 4
NODES_PER_EDGE = 8

# phase tracking (_track): rounds of bisection and live segments
MAX_ROUNDS = 80
MAX_SEGMENTS = 400_000
# a segment still unresolved after DEFLATE_ROUND rounds gets a zero divided out, taken
# only at a distance from its line over DEFLATE_MARGIN times Newton's last step
# (_deflation); earlier, Newton costs more calls than the bisection it saves
DEFLATE_ROUND = 3
DEFLATE_MARGIN = 64

# Newton refinement (_newton) stops at a relative step of NEWTON_TOL, or once the step
# stops shrinking below NEWTON_STALL |kappa|: rounding in F, whose terms can exceed
# |F| by 1e5, sets that floor
NEWTON_TOL = 1e-14
NEWTON_STALL = 1e-8
MAX_NEWTON = 60
# a box holding several zeros and smaller than CLUSTER |kappa| is not split: near an
# exceptional point F ~ (kappa - kappa_0)^2 drowns in rounding within about sqrt(eps),
# as the dense solve does; its zeros are reported at their mean, from CLUSTER_NODES
# points on a circle around it (_cluster)
CLUSTER = 1e-6
CLUSTER_NODES = 64
# boxes of the subdivision narrower than MIN_BOX times the search height are not split
MIN_BOX = 1e-13


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


def _interface_rows(spec, cfg):
    """(m, w_L, w_R) for each interface of spec on the grid cfg, in order of position.

    The interface lies between nodes m and m + 1, whose rows take the ghost
    values w_L . u and w_R . u over (u_{m-1}, u_m, u_{m+1}, u_{m+2}) (_ghosts).
    """
    N, h, x = cfg.N, cfg.h, cfg.nodes
    rows, taken = [], set()
    for s, Q in spec.interfaces():
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


def _pt_symmetric(rows, N):
    """Whether the matrix commutes with the flip J composed with conjugation (PT).

    Rows away from interfaces are mapped onto each other exactly by the flip, so
    only the interface rows are compared: row r of M, over columns m-1 .. m+2,
    against row N-1-r reversed and conjugated, by the SYMMETRY_TOL rule.
    """
    window = {}  # interface row -> its entries times h^2
    for m, w_l, w_r in rows:
        window[m] = np.array([-1.0, 2.0, 0.0, 0.0]) - w_l
        window[m + 1] = np.array([0.0, 0.0, 2.0, -1.0]) - w_r
    tol = SYMMETRY_TOL * np.finfo(float).eps * max(3.0, max(np.max(np.abs(w)) for w in window.values()))
    return all(
        N - 1 - r in window and np.max(np.abs(np.conj(window[N - 1 - r][::-1]) - w)) <= tol
        for r, w in window.items()
    )


class _Determinant:
    """F(kappa), the determinant of the interface rows on the stretch coefficients.

    Stretch functions, with z = e^{i kappa h}, S(p) = (1 - z^p)/(1 - z) and j a node index:
    the outer stretch [0, b] carries z^{b-j} S(2j+1), which is odd about
    j = -1/2 as the wall's ghost value u_{-1} = -u_0 requires, and the right
    one its mirror image; an inner stretch [a, b] carries z^{j-a} + z^{b-j} and
    (z^{j-a} - z^{b-j})/(1 - z).  Each interface (m, w_L, w_R) gives two
    equations on the stretches on either side of it: the left one's value at
    m + 1 is w_L . u and the right one's at m is w_R . u.  Every term stays
    bounded in the upper half-plane, and at kappa = 0 (z = 1) the functions
    stay independent, so F has no spurious zero there.  The equations are
    eliminated interface by interface along the chain of stretches.  Calling
    the object gives (F, dF/dkappa) on an array of kappa.

    Every coefficient of the equations is a fixed linear combination of
    z^p and z^p S(q) over integer exponents that the rows fix, so a call
    sums the combinations over one table of the terms and their derivatives.
    The exponents come in runs at most 2 apart (such as 197 .. 201 and
    2197, 2199, 2201): each run takes exp and expm1 once, at its first
    exponent s, and z^(s + j) = z^s z^j, S(s + j) = S(s) + z^s S(j) with
    z^j and S(j) = 1 + z + ... + z^(j-1) from a few products.
    F is linear in the left columns and in the right columns of each
    interface (a group), so dF/dkappa is the sum over groups of F with that
    group's columns replaced by their derivatives; the elimination runs once
    on F and all these at the same time.
    """

    def __init__(self, rows, N, h):
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
                left = [[[(1, -t, 2 * m + 2 * t + 1)] for t in T]]
            else:
                a = m - rows[i - 1][0] - 1
                left = [[[(1, a + t, None), (1, -t, None)] for t in T], [[(-1, -t, a + 2 * t)] for t in T]]
            if i == len(rows) - 1:  # values at m, m+1, m+2 (t = -1, 0, 1 from the stretch start m+1)
                b = N - 2 - m
                right = [[[(1, t, 2 * b - 2 * t + 1)] for t in T]]
            else:
                b = rows[i + 1][0] - m - 1
                right = [[[(1, t, None), (1, b - t, None)] for t in T], [[(1, t, b - 2 * t)] for t in T]]
            self.columns.append((
                add(left, [[-w_l[0], -w_l[1], 1.0], [-w_r[0], -w_r[1], 0.0]], 2 * i),
                add(right, [[0.0, -w_l[2], -w_l[3]], [1.0, -w_r[2], -w_r[3]]], 2 * i + 1),
            ))
        # the quantities by their number of terms, most first, so that each slot of the
        # sums in a call covers a leading block of them
        combos = [{key: c for key, c in combo.items() if c != 0} for combo in combos]
        order = sorted(range(len(combos)), key=lambda r: -len(combos[r]))
        rank = np.argsort(order)
        self.columns = [[[(rank[l], rank[r]) for l, r in side] for side in sides] for sides in self.columns]
        combos, groups = [combos[r] for r in order], [groups[r] for r in order]
        products = sorted({key for combo in combos for key in combo if key[1] is not None})
        sums = np.array(sorted({q for _, q in products}), dtype=int)
        powers = np.array(sorted({p for combo in combos for p, _ in combo} | set(sums)))
        self.ihp = 1j * h * powers[:, None]  # d(z^p)/dkappa = i p h z^p
        index = {p: j for j, p in enumerate(powers.tolist())}
        # runs of exponents at most 2 apart: z^p = z^s z^(p - s) from the run's start s,
        # and S(q) = S(s) + z^s S(q - s), so exp and expm1 are taken once per run
        first, run, offset = _runs(powers)
        self.runs = first, run, offset + 1  # row offset + 1 of a call's table of steps holds z^offset
        self.steps = max(np.max(offset), 1) + 1  # that table holds z^j for j < steps
        self.sum_runs = first, run, _ = _runs(sums)  # each within a run of the powers
        self.sum_power = np.searchsorted(powers, sums)  # the row of each z^q among the powers
        self.start_power = np.searchsorted(powers, first[run, 0])  # and of its run's start
        self.pairs = (np.array([index[p] for p, _ in products]), np.searchsorted(sums, [q for _, q in products]))
        # a call stacks z^p over the powers and z^p S(q) over the products, then the
        # derivatives of both, in one table; slot k of the sums adds the k-th term of
        # each quantity that has one, as table rows (values, derivatives) and coefficients
        position = {(p, None): j for j, p in enumerate(powers.tolist())}
        position.update({key: len(powers) + j for j, key in enumerate(products)})
        # an equation that one side's functions do not enter (a decoupled interface) gives
        # them no terms: a zero coefficient keeps slot 0 over every quantity
        terms = [list(combo.items()) or [((powers[0], None), 0)] for combo in combos]
        self.slots = []
        for k in range(len(terms[0])):
            used = [t[k] for t in terms if len(t) > k]
            rows = np.array([position[key] for key, _ in used])
            self.slots.append((np.stack([rows, rows + len(position)]), np.array([[c] for _, c in used], dtype=complex)))
        # stacked axis of the elimination: 0 holds F's columns, 1 + g those with group g
        # differentiated, so quantity r is taken from the derivatives at 1 + groups[r]
        self.pick = ((1 + np.array(groups))[:, None] == np.arange(max(groups) + 2)).astype(int)
        self.quantity = np.arange(len(groups))[:, None]

    def __call__(self, kappa):
        kappa = np.asarray(kappa, dtype=complex)
        x = 1j * self.h * kappa.ravel()
        e1 = np.expm1(x)  # z - 1
        # rows 0 and z^(j - 1) for j = 1 .. steps, whose running sums are the S(j)
        step = np.empty((self.steps + 1, x.size), dtype=complex)
        step[0], step[1], step[2] = 0.0, 1.0, 1.0 + e1
        for j in range(3, self.steps + 1):
            step[j] = step[j - 1] * step[2]
        first, run, row = self.runs
        z = np.exp(first * x)[run] * step[row]  # z^p
        dz = self.ihp * z
        first, run, offset = self.sum_runs
        S = (np.expm1(first * x) / e1)[run] + z[self.start_power] * step.cumsum(axis=0)[offset]
        dS = (dz[self.sum_power] - (1j * self.h) * step[2] * S) / e1
        a, b = self.pairs
        za, Sb = z[a], S[b]
        table = np.concatenate([z, za * Sb, dz, dz[a] * Sb + za * dS[b]])
        rows, c = self.slots[0]
        quantities = table[rows] * c  # values, then derivatives
        for rows, c in self.slots[1:]:
            quantities[:, :len(c)] += table[rows] * c
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


def _runs(values):
    """Runs of the sorted integers values, each next one at most 2 above the last.

    Returns the first value of each run as a column, and for each value its
    run and its offset from that run's first value.
    """
    start = np.diff(values, prepend=values[0] - 3) > 2
    first = values[start]
    run = np.cumsum(start) - 1
    return first[:, None], run, values - first[run]


def _unresolved(seg):
    """The phase step of each segment, a column (a, b, fa, fb, la, lb) of seg, and whether it needs splitting.

    It does when its endpoint values fa, fb differ in phase by over pi/2 or
    in modulus by over a factor 8, or when its length times |F'/F| at an end
    (la, lb hold F'/F) exceeds pi/2: two close zeros near a segment turn the
    phase by 2pi between its ends, which the phase step alone reads as no
    turn, but make |F'/F| at least 4 / length there.
    """
    a, b, fa, fb = seg[:4]
    size = np.abs(seg[2:])
    turn = fb * np.conj(fa)
    dphi = np.arctan2(turn.imag, turn.real)
    ratio = size[1] / size[0]
    reach = np.abs(b - a) * np.maximum(size[2], size[3])
    return dphi, (np.fmax(abs(dphi), reach) > np.pi / 2) | (ratio > 8.0) | (ratio < 0.125)


def _usable(values, slopes):
    """F'/F, checking that F is finite and nonzero."""
    if not np.all(np.isfinite(values) & (values != 0) & np.isfinite(slopes)):
        raise EigensolverFailure("the interface determinant vanishes or overflows on an edge of the zero search")
    return slopes / values


def _divided(kappa, values, logd, c):
    """F/(kappa - c) and its logarithmic derivative F'/F - 1/(kappa - c); F and F'/F where c is nan."""
    on = ~np.isnan(c)
    off = kappa[on] - c[on]
    values, logd = values.copy(), logd.copy()
    values[on] /= off
    logd[on] -= 1 / off
    return values, logd


def _deflation(f, a, b, la, lb):
    """A zero of f to divide out of each segment [a, b]; nan where none is taken.

    Newton steps (_newton) start from the prediction k - F/F' of the end k
    with the larger |F'/F|, the nearer to a zero, and stop when they leave
    the segment's reach or converge only linearly, as to a double zero, of
    which one factor would not resolve the segment.  A zero is taken only
    when they converged and its distance from the segment's line exceeds
    DEFLATE_MARGIN times the last step, which puts the zero it stands for on
    the same side of the line.
    """
    with np.errstate(all="ignore"):  # c and last are nan where Newton did not converge
        start = np.where(np.abs(la) >= np.abs(lb), a - 1 / la, b - 1 / lb)
        c, last = _newton(f, start, 0.5 * (a + b), np.abs(b - a), simple=True)
        away = np.abs(((c - a) * np.conj(b - a)).imag) > DEFLATE_MARGIN * last * np.abs(b - a)
    return np.where(away, c, np.nan)


def _track(f, nodes):
    """Change of arg f along each segment of the polylines ``nodes`` (E, n + 1), as (E, n).

    Every segment is bisected until each piece is resolved (_unresolved);
    a round splits all live pieces in one array pass through f.  A segment
    still unresolved after DEFLATE_ROUND rounds, such as one of the bottom
    edge over a continuum zero, gets a zero c of f divided out (_deflation):
    for c off the segment's line, arg f = arg(kappa - c) + arg g with
    g = f/(kappa - c), the first term turns by the principal angle of
    (b - c)/(a - c), and g is tracked instead, by the same test on g and
    g'/g = f'/f - 1/(kappa - c).  Both halves of a bisected segment keep its c.
    """
    vals, slopes = f(nodes)
    logd = _usable(vals, slopes)
    # the live segments, one column each: ends a, b, values fa, fb and F'/F there, la, lb
    seg = np.stack([nodes[:, :-1], nodes[:, 1:], vals[:, :-1], vals[:, 1:], logd[:, :-1], logd[:, 1:]])
    seg = seg.reshape(6, -1)
    owner = np.arange(seg.shape[1])
    out = np.zeros(seg.shape[1])
    c = None  # from DEFLATE_ROUND on, the zero divided out of each segment, nan for none
    for rounds in range(MAX_ROUNDS):
        dphi, bad = _unresolved(seg)
        if rounds == DEFLATE_ROUND:
            c = np.full(seg.shape[1], np.nan, dtype=complex)
            if np.any(bad):
                a, b, _, _, la, lb = seg[:, bad]
                c[bad] = _deflation(f, a, b, la, lb)
                seg[2], seg[4] = _divided(seg[0], seg[2], seg[4], c)
                seg[3], seg[5] = _divided(seg[1], seg[3], seg[5], c)
                dphi, bad = _unresolved(seg)
        if c is not None:
            on = ~bad & ~np.isnan(c)
            dphi[on] += np.angle((seg[1, on] - c[on]) / (seg[0, on] - c[on]))
        done = ~bad
        out += np.bincount(owner[done], weights=dphi[done], minlength=out.size)
        if not np.any(bad):
            return out.reshape(nodes.shape[0], -1)
        seg, owner = seg[:, bad], owner[bad]
        mid = 0.5 * (seg[0] + seg[1])
        fm, slope = f(mid)
        lm = _usable(fm, slope)
        if c is not None:
            c = c[bad]
            fm, lm = _divided(mid, fm, lm, c)
            c = np.concatenate([c, c])
        # the left halves (a, mid), then the right halves (mid, b)
        n, half = mid.size, np.stack([mid, fm, lm])
        seg = np.concatenate([seg, seg], axis=1)
        seg[1::2, :n] = seg[0::2, n:] = half
        owner = np.concatenate([owner, owner])
        if seg.shape[1] > MAX_SEGMENTS:
            break
    raise EigensolverFailure("an edge of the zero search cannot be resolved")


def _polyline(corners, n):
    """(E, n * (len - 1) + 1) nodes along each row of corners, n equal pieces per side."""
    t = np.arange(n) / n
    sides = corners[:, :-1, None] + (corners[:, 1:] - corners[:, :-1])[:, :, None] * t
    return np.concatenate([sides.reshape(len(corners), -1), corners[:, -1:]], axis=1)


def _counts(f, boxes, half, dx):
    """Zeros of f in each box (x1, x2, y1, y2) of the (B, 4) array boxes.

    Every side gets the same number of initial nodes (see NODES_PER_GAP).

    half: the boxes are [-x2, x2] x [y1, y2] (x1 = 0) of a function with
    f(-conj(k)) = +-conj(f(k)); the phase change along the right half of
    the boundary, from i y1 to i y2, is then half the winding.
    """
    if not len(boxes):
        return np.zeros(0, dtype=int)
    x1, x2, y1, y2 = boxes.T
    if half:
        corners = np.stack([1j * y1, x2 + 1j * y1, x2 + 1j * y2, 1j * y2], axis=1)
    else:
        corners = np.stack([x1 + 1j * y1, x2 + 1j * y1, x2 + 1j * y2, x1 + 1j * y2, x1 + 1j * y1], axis=1)
    n = max(NODES_PER_EDGE, int(np.ceil(np.max(NODES_PER_GAP * np.maximum(x2 - x1, y2 - y1) / np.maximum(dx, y1)))))
    turns = _track(f, _polyline(corners, n)).sum(axis=1) / (np.pi if half else 2 * np.pi)
    return _whole(turns)


def _require_counts(counts):
    """counts, after checking that none is negative, as the difference of two counts may be."""
    if np.any(counts < 0):
        raise EigensolverFailure("inconsistent winding numbers in the zero search")
    return counts


def _whole(turns):
    """Zero counts from turns of the phase, in units of 2 pi."""
    counts = np.round(turns)
    if not np.all(np.abs(turns - counts) <= 0.25):
        raise EigensolverFailure(f"winding numbers of the zero search are not counts: {turns}")
    return _require_counts(counts.astype(int))


def _newton(f, k, centre, reach, simple=False):
    """Newton iteration from each k; the zeros, nan where it did not converge, and the last steps.

    An iterate farther than reach from centre stops there.  With simple, so
    does one whose step does not shrink below a quarter of the step before,
    as near a multiple zero, where Newton steps only halve.
    """
    live = np.ones(k.shape, dtype=bool)
    done = np.zeros(k.shape, dtype=bool)
    last = np.full(k.shape, np.inf)
    with np.errstate(all="ignore"):  # far below the real axis z^N overflows
        for _ in range(MAX_NEWTON):
            F, slope = f(k[live])
            step = np.full(k.shape, np.nan, dtype=complex)
            step[live] = F / slope
            live &= np.isfinite(step)
            k = np.where(live, k - step, k)
            size = np.abs(step)
            stalled = (size >= 0.5 * last) & (size <= NEWTON_STALL * np.abs(k))
            done |= live & ((size <= NEWTON_TOL * np.abs(k)) | stalled)
            slow = simple & (size > 0.25 * last)
            last = np.where(live, size, last)
            live &= ~done & ~slow & (np.abs(k - centre) <= reach)
            if not np.any(live):
                break
    return np.where(done, k, np.nan), np.where(done, last, np.nan)


class _Search:
    """Zeros of one F in the search rectangle, by the argument principle (see find_zeros)."""

    def __init__(self, f, top, y0, dx, mirror, spacing_nodes):
        self.f, self.top, self.y0, self.dx, self.mirror = f, top, y0, dx, mirror
        self.spacing_nodes = spacing_nodes
        self.min_size = MIN_BOX * top
        self.found = []  # zeros with Re kappa > 0 in mirror mode, all zeros otherwise
        self.axis = []  # mirror mode: Im kappa of the zeros on the imaginary axis

    def boxes(self, boxes, counts):
        """Find the zeros of the boxes (B, 4) that hold counts (B,) zeros each."""
        while len(boxes):
            width, height = boxes[:, 1] - boxes[:, 0], boxes[:, 3] - boxes[:, 2]
            single = counts == 1
            solved = np.zeros(len(boxes), dtype=bool)
            if np.any(single):
                solved[single] = self._solve_single(boxes[single])
            size = np.hypot(width, height)
            small = (counts > 1) & (size < CLUSTER * np.abs(boxes[:, 1] + 1j * boxes[:, 3]))
            for (x1, x2, y1, y2), d, c in zip(boxes[small], size[small], counts[small]):
                self.found += [self._cluster(complex(0.5 * (x1 + x2), 0.5 * (y1 + y2)), d, c)] * c
            keep = ~solved & ~small
            if np.any(np.minimum(width, height)[keep] < self.min_size):
                raise EigensolverFailure("the zero search cannot separate close zeros")
            boxes, counts = self._split(boxes[keep], counts[keep])

    def _solve_single(self, boxes):
        """Newton steps from the centre of each box that holds one zero; whether they reached a zero inside it."""
        x1, x2, y1, y2 = boxes.T
        centre = 0.5 * (x1 + x2) + 0.5j * (y1 + y2)
        k = _newton(self.f, centre, centre, np.hypot(x2 - x1, y2 - y1))[0]
        inside = (k.real >= x1) & (k.real < x2) & (k.imag >= y1) & (k.imag < y2)
        self.found.extend(k[inside].tolist())
        return inside

    def _split(self, boxes, counts):
        """Halve each box across its longer side; the first half is counted, the second is the rest."""
        x1, x2, y1, y2 = boxes.T
        wide = x2 - x1 >= y2 - y1
        xm, ym = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
        first = np.stack([x1, np.where(wide, xm, x2), y1, np.where(wide, y2, ym)], axis=1)
        second = np.stack([np.where(wide, xm, x1), x2, np.where(wide, y1, ym), y2], axis=1)
        c1 = _counts(self.f, first, False, self.dx)
        boxes, counts = np.concatenate([first, second]), np.concatenate([c1, _require_counts(counts - c1)])
        return boxes[counts > 0], counts[counts > 0]

    def axis_boxes(self, boxes, counts):
        """Mirror mode: zeros of the boxes [-x2, x2] x [y1, y2] (x1 = 0) around the imaginary axis."""
        while len(boxes):
            roots, sign_changes, cut = self._axis_roots(boxes[:, 2], boxes[:, 3])
            done = _require_counts(counts - sign_changes) == 0
            self.axis += [y for r, d in zip(roots, done) if d for y in r.tolist()]
            size = np.hypot(2 * boxes[:, 1], boxes[:, 3] - boxes[:, 2])
            small = ~done & (size < CLUSTER * boxes[:, 3])
            for (_, _, y1, y2), d, c in zip(boxes[small], size[small], counts[small]):
                self.axis += [self._cluster(0.5j * (y1 + y2), d, c).imag] * c
            keep = ~done & ~small
            boxes, counts, ym = boxes[keep], counts[keep], cut[keep]
            zero, x2, y1, y2 = boxes.T
            if np.any(np.minimum(x2, y2 - y1) < self.min_size):
                raise EigensolverFailure("the zero search cannot separate close zeros")
            # a tall box is cut at ym and the upper part holds the rest; otherwise
            # the rest lies in the strip [x2/2, x2] and its mirror image, evenly
            tall = y2 - y1 > 2 * x2
            lower = np.stack([zero, x2, y1, ym], axis=1)
            inner = np.stack([zero, 0.5 * x2, y1, y2], axis=1)
            first = np.where(tall[:, None], lower, inner)
            c1 = _counts(self.f, first, True, self.dx)
            rest = _require_counts(counts - c1)
            if np.any(~tall & (rest % 2 == 1)):
                raise EigensolverFailure("inconsistent winding numbers in the zero search")
            strips = ~tall & (rest > 0)
            self.boxes(np.stack([0.5 * x2, x2, y1, y2], axis=1)[strips], rest[strips] // 2)
            upper = np.stack([zero, x2, ym, y2], axis=1)
            boxes, counts = np.concatenate([first, upper[tall]]), np.concatenate([c1, rest[tall]])
            boxes, counts = boxes[counts > 0], counts[counts > 0]

    def _cluster(self, centre, size, count):
        """The mean of the ``count`` zeros in a box of diameter ``size`` around centre.

        By the trapezoidal rule on a circle around centre, (1/2 pi i) times the
        integral of kappa F'/F is the sum of the zeros inside, and the integral
        of F'/F their number.  The widest circle of radius 1000, 100, 10 or 1
        times size that holds just ``count`` zeros is used: F is accurate
        farther from the cluster.
        """
        for radius in size * 10.0 ** np.arange(3, -1, -1):
            kappa = centre + radius * np.exp(2j * np.pi * np.arange(CLUSTER_NODES) / CLUSTER_NODES)
            F, slope = self.f(kappa)
            weights = slope / F * (kappa - centre) / CLUSTER_NODES
            if abs(np.sum(weights) - count) <= 0.25:
                return centre + np.sum(weights * (kappa - centre)) / count
        raise EigensolverFailure("the zero search cannot separate close zeros")

    def _axis_roots(self, y1, y2):
        """Zeros of F on i [y1, y2] for each box, and a height to cut the box at.

        Each sign change of g(y) = Re(F(i y) conj(phase)) among
        2 NODES_PER_EDGE + 1 samples is refined by Newton steps on g, whose
        slope g'(y) = Re(i F'(i y) conj(phase)) comes with every F, starting
        from the sample of smaller |g|.  A step that leaves the bracket of
        the sign change, or is not finite, goes to the bracket's midpoint, and
        every point taken narrows the bracket, so each root stays real and
        inside it.  Steps stop as in _newton; a sign change not refined within
        MAX_NEWTON steps is left out of the roots and of the count.  The cut
        is the sample of the middle half where |g| is largest, so that cuts
        keep away from zeros: cutting through the middle of a box closes in
        on a cluster, where F is rounding.
        """
        t = np.linspace(0.0, 1.0, NODES_PER_EDGE * 2 + 1)
        y = y1[:, None] + (y2 - y1)[:, None] * t
        g, slope = self._real(y)
        middle = slice(NODES_PER_EDGE // 2, 3 * NODES_PER_EDGE // 2 + 1)
        cut = y[:, middle][np.arange(len(y)), np.argmax(np.abs(g[:, middle]), axis=1)]
        flips = np.signbit(g[:, 1:]) != np.signbit(g[:, :-1])
        box, j = np.nonzero(flips)
        lo, hi, sign = y[box, j], y[box, j + 1], np.signbit(g[box, j])
        start = j + (np.abs(g[box, j + 1]) < np.abs(g[box, j]))
        at, g_at, slope_at = y[box, start], g[box, start], slope[box, start]
        roots = np.full(len(box), np.nan)
        live = np.arange(len(box))
        last = np.full(len(box), np.inf)
        for _ in range(MAX_NEWTON):
            with np.errstate(divide="ignore", invalid="ignore"):
                point = at - g_at / slope_at
            newton = (point >= lo) & (point <= hi)
            point = np.where(newton, point, 0.5 * (lo + hi))
            size = np.abs(point - at)
            stalled = newton & (size >= 0.5 * last) & (size <= NEWTON_STALL * point)
            done = (size <= NEWTON_TOL * point) | stalled
            roots[live[done]] = point[done]
            live, lo, hi, sign, at, last = (v[~done] for v in (live, lo, hi, sign, point, size))
            if not len(live):
                break
            g_at, slope_at = self._real(at)
            same = np.signbit(g_at) == sign
            lo, hi = np.where(same, at, lo), np.where(same, hi, at)
        found = np.isfinite(roots)
        return [roots[found & (box == b)] for b in range(len(y1))], np.bincount(box[found], minlength=len(y1)), cut

    def _real(self, y):
        """g(y) = Re(F(i y) conj(phase)) and g'(y): F is real times the fixed phase on the axis."""
        F, slope = self.f(1j * y)
        turn = np.conj(self.phase)
        return (F * turn).real, (1j * slope * turn).real

    def run(self):
        """Count, isolate and refine every zero in the search rectangle.

        Columns of width dx (one continuum spacing), centred on the imaginary
        axis, share the bottom and top edges.  The whole boundary is tracked
        in one pass, which counts the zeros: the bottom edge from
        spacing_nodes nodes per column, the lid from the column edges alone
        (see NODES_PER_GAP).  Ranges
        of columns are halved level by level, each level tracking the vertical
        lines it needs over one grid of heights; then each column holding
        zeros is halved over that grid, each level tracking one segment across
        the column, so that a range or a cell without zeros costs nothing more.
        The cells left go to the box solvers.
        """
        f, y0, dx, mirror = self.f, self.y0, self.dx, self.mirror
        cuts = (np.arange(math.ceil(self.top / dx - 0.5) + 1) + 0.5) * dx
        top = float(cuts[-1])
        xs = np.concatenate([[0.0], cuts]) if mirror else np.concatenate([-cuts[::-1], cuts])
        ncol = len(xs) - 1
        # heights: NODES_PER_GAP steps up to dx, then NODES_PER_GAP per factor e (top >= 1.5 dx)
        steps = math.ceil(NODES_PER_GAP * math.log(top / dx))
        ys = [j * dx / NODES_PER_GAP for j in range(1, NODES_PER_GAP + 1)]
        ys += [dx * (top / dx) ** (j / steps) for j in range(1, steps)]
        ys = np.array([y0, *(y for y in ys if y > y0), top])
        # the boundary in one pass: the bottom edge, the right edge, the lid from right to
        # left and, unmirrored, the left edge down
        edges = [_polyline((xs + 1j * y0)[None], self.spacing_nodes)[0, :-1], xs[-1] + 1j * ys[:-1],
                 xs[::-1] + 1j * top]
        if not mirror:
            edges.append(xs[0] + 1j * ys[-2::-1])
        boundary = _track(f, np.concatenate(edges)[None])[0]
        self.total = int(_whole(np.array([boundary.sum() / (np.pi if mirror else 2 * np.pi)]))[0])
        if not self.total:
            return
        nb, ny = ncol * self.spacing_nodes, len(ys) - 1
        bottom = boundary[:nb].reshape(ncol, -1).sum(axis=1)
        lid = -boundary[nb + ny:nb + ny + ncol][::-1]
        rising = {ncol: boundary[nb:nb + ny]}  # column edge -> phase change over each step of ys, upward
        if not mirror:
            rising[0] = -boundary[nb + ny + ncol:][::-1]
        across = {}  # (column, index into ys) -> phase change across the column, left to right
        for lo in range(ncol):
            across[lo, 0], across[lo, len(ys) - 1] = bottom[lo], lid[lo]

        def track(keys, store, points):
            new = sorted(set(keys) - store.keys())
            if new:
                store.update(zip(new, points(new)))

        def lines(new):
            return _track(f, xs[new][:, None] + 1j * ys)

        def segments(new):
            lo, i = np.array(new).T
            ends = np.stack([xs[lo], xs[lo + 1]], axis=1) + 1j * ys[i][:, None]
            return _track(f, _polyline(ends, NODES_PER_EDGE)).sum(axis=1)

        def counts(turns, lo):
            """Counts from the phase turns around boxes of columns starting at lo."""
            symmetric = mirror & (np.array(lo) == 0)
            return _whole(np.array(turns) / np.where(symmetric, np.pi, 2 * np.pi))

        # ranges (lo, hi, count) of columns, halved until single
        ranges, columns = [(0, ncol, self.total)], []
        while ranges:
            ranges = [r for r in ranges if r[2] > 0]
            columns += [(lo, 0, len(ys) - 1, c) for lo, hi, c in ranges if hi - lo == 1]
            ranges = [(lo, (lo + hi) // 2, hi, c) for lo, hi, c in ranges if hi - lo > 1]
            track([mid for _, mid, _, _ in ranges], rising, lines)
            turns = [
                bottom[mid:hi].sum() + rising[hi].sum() - lid[mid:hi].sum() - rising[mid].sum()
                for _, mid, hi, _ in ranges
            ]
            right = counts(turns, [mid for _, mid, _, _ in ranges])
            # a range from the axis counts its zeros off the axis twice
            twice = np.array([1 + (mirror and lo == 0) for lo, *_ in ranges], dtype=int)
            left = _require_counts(np.array([c for *_, c in ranges], dtype=int) - twice * right)
            ranges = [(lo, mid, a) for (lo, mid, _, _), a in zip(ranges, left)] + [
                (mid, hi, b) for (_, mid, hi, _), b in zip(ranges, right)
            ]
        # cells (column, ia, ib, count) between heights ys[ia] and ys[ib], halved until single
        cells = []
        while columns:
            columns = [c for c in columns if c[3] > 0]
            cells += [c for c in columns if c[2] - c[1] == 1]
            columns = [(lo, ia, (ia + ib) // 2, ib, c) for lo, ia, ib, c in columns if ib - ia > 1]
            track([(lo, im) for lo, _, im, _, _ in columns], across, segments)
            # the centre column of mirror mode has no left edge: its boxes are symmetric
            turns = [
                across[lo, ia] + rising[lo + 1][ia:im].sum() - across[lo, im]
                - (0 if mirror and lo == 0 else rising[lo][ia:im].sum())
                for lo, ia, im, _, _ in columns
            ]
            lower = counts(turns, [lo for lo, *_ in columns])
            upper = _require_counts(np.array([c for *_, c in columns], dtype=int) - lower)
            columns = [(lo, ia, im, a) for (lo, ia, im, _, _), a in zip(columns, lower)] + [
                (lo, im, ib, b) for (lo, _, im, ib, _), b in zip(columns, upper)
            ]
        lo, ia, ib, c = np.array(cells, dtype=int).reshape(-1, 4).T
        boxes = np.stack([xs[lo], xs[lo + 1], ys[ia], ys[ib]], axis=1)
        centre = mirror & (lo == 0)
        if np.any(centre):
            self.phase = self._axis_phase(top)
            self.axis_boxes(boxes[centre], c[centre])
        self.boxes(boxes[~centre], c[~centre])
        found = len(self.found) * (2 if mirror else 1) + len(self.axis)
        if found != self.total:
            raise EigensolverFailure(f"the zero search found {found} zeros of {self.total} counted")

    def _axis_phase(self, top):
        """The phase of F on the imaginary axis, 1 or i: F(-conj k) = +-conj F(k)."""
        probe = np.linspace(0.3, 0.9, 7) * top * (1 + 1j)
        F, mirror = self.f(probe)[0], self.f(-np.conj(probe))[0]
        sigma = np.sum(mirror * F) / np.sum(np.abs(F) ** 2)
        if abs(abs(sigma.real) - 1) > 1e-6 or abs(sigma.imag) > 1e-6:
            raise EigensolverFailure("the interface determinant lacks the PT mirror symmetry of its rows")
        return 1.0 if sigma.real > 0 else 1j


def find_zeros(f, K, y0, dx, mirror, spacing_nodes=NODES_PER_SPACING):
    """Zeros of f with |Re kappa| <= K and y0 <= Im kappa <= K, as (kappa, mirrored).

    f maps an array of kappa to (f, df/dkappa).  dx is the width of the
    search's columns, and the bottom edge starts from spacing_nodes nodes per
    column.  In mirror mode (f(-conj k) = +-conj f(k)) the returned kappa have
    Re kappa >= 0, those with Re kappa > 0 standing for a pair, and the zeros
    on the imaginary axis have a real part of exactly 0.
    """
    search = _Search(f, K, y0, dx, mirror, spacing_nodes)
    search.run()
    kappa = np.array(search.found + [1j * y for y in search.axis], dtype=complex)
    return kappa, np.arange(len(kappa)) < (len(search.found) if mirror else 0)


def oracle_discrete_spectrum(spec, cfg):
    """Discrete-spectrum candidates of the discretized operator.

    The eigenvalues of the matrix of discretize, found as the zeros of the
    interface determinant F(kappa), lam = 4 sin^2(kappa h / 2) / h^2 (see the
    module docstring), without building the matrix.  Zeros are counted by the
    argument principle over |Re kappa| <= K, DROP_TOL/(4K) <= Im kappa <= K,
    K = SEARCH_K / h, isolated by subdivision and refined by Newton steps.
    A PT-symmetric model is searched over Re kappa >= 0 and mirrored, so its
    non-real candidates come in exact conjugate pairs and its negative ones
    are exactly real.  Raises EigensolverFailure, never a partial list, when
    the refined zeros do not add up to the winding count or an edge cannot be
    resolved.  Returned are the eigenvalues with Re < -DROP_TOL or
    |Im| > DROP_TOL, capped at the resolution horizon (see OracleConfig).
    Converges to the true discrete eigenvalues as O(h^2) + O(e^{-2 Im(k) L}).
    The outer stretch terms grow like 1/(kappa h), which sets a rounding floor:
    at N = 96 000 the delta well's root lambda = -1 is defined to about 1e-12.
    """
    rows = _interface_rows(spec, cfg)
    if cfg.resolved_lambda_max <= DROP_TOL:  # no eigenvalue can pass both filters
        return np.zeros(0, dtype=complex)
    h = cfg.h
    K = SEARCH_K / h
    f = _Determinant(rows, cfg.N, h)
    kappa, mirrored = find_zeros(f, K, DROP_TOL / (4 * K), np.pi / (2 * cfg.L), _pt_symmetric(rows, cfg.N))
    lam = (2.0 / h * np.sin(0.5 * h * kappa)) ** 2
    ev = np.concatenate([lam, np.conj(lam[mirrored])])
    keep = (ev.real < -DROP_TOL) | (np.abs(ev.imag) > DROP_TOL)
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
