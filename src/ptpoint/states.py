"""Eigenfunctions, resolvent application, symmetry checks, and scattering.

Every solution here is read off a model's matching system (interface_system)
through the kernel test (_kernel: is the system singular at k, and its kernel
vector) and the map (_ansatz) from a coefficient vector of the system's Ansatz
to a PiecewiseExp; the map and the system share one piece layout.

Eigenfunctions and generalized solutions are exact piecewise-exponential
objects (PiecewiseExp); sampled functions (GridFunction) live on the staggered
symmetric grid of finitediff.OracleConfig.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .boundary import connected_condition, require_nondegenerate, two_point_interfaces
from .errors import (
    InvalidParams,
    InvalidRegion,
    NotAnEigenvalue,
    ResonantK,
    SpectrumPoint,
)
from .finitediff import OracleConfig


@dataclass(frozen=True)
class PiecewiseExp:
    """Piecewise sum of exponentials: on each piece (lo, hi), x -> sum c_j e^{s_j x}.

    pieces: tuple of (lo, hi, terms) with lo/hi floats (+-inf allowed) and
    terms a tuple of (coefficient, exponent) pairs.  Construction enforces
    square integrability: every term on an unbounded piece must decay in the
    unbounded direction.
    """

    pieces: tuple

    def __post_init__(self):
        norm = []
        prev_hi = -np.inf
        for lo, hi, terms in self.pieces:
            lo, hi = float(lo), float(hi)
            if not lo < hi:
                raise InvalidParams(f"empty piece ({lo}, {hi})")
            if lo != prev_hi and prev_hi != -np.inf:
                raise InvalidParams("pieces must be contiguous")
            prev_hi = hi
            terms = tuple((complex(c), complex(s)) for c, s in terms)
            for c, s in terms:
                if c == 0:
                    continue
                if hi == np.inf and s.real >= 0:
                    raise InvalidParams(f"non-decaying term e^{{{s}x}} on ({lo}, inf)")
                if lo == -np.inf and s.real <= 0:
                    raise InvalidParams(f"non-decaying term e^{{{s}x}} on (-inf, {hi})")
            norm.append((lo, hi, terms))
        object.__setattr__(self, "pieces", tuple(norm))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for lo, hi, terms in self.pieces:
            mask = (x >= lo) & (x < hi)
            if not np.any(mask):
                continue
            xm = x[mask]
            acc = np.zeros(xm.shape, dtype=complex)
            for c, s in terms:
                acc += c * np.exp(s * xm)
            out[mask] = acc
        return out

    def derivative(self):
        return PiecewiseExp(
            tuple((lo, hi, tuple((c * s, s) for c, s in terms)) for lo, hi, terms in self.pieces)
        )

    def side_values(self, x0, side):
        """(value, derivative) limit at x0 from side '+' or '-', exact from the terms."""
        for lo, hi, terms in self.pieces:
            if (side == "+" and lo <= x0 < hi) or (side == "-" and lo < x0 <= hi):
                val = sum(c * np.exp(s * x0) for c, s in terms)
                der = sum(c * s * np.exp(s * x0) for c, s in terms)
                return complex(val), complex(der)
        raise InvalidParams(f"no piece adjacent to {x0} on side {side!r}")

    def decay_rate(self):
        """Slowest |Re exponent| on the unbounded pieces (L^2 decay scale)."""
        rates = []
        for lo, hi, terms in self.pieces:
            if np.isinf(lo) or np.isinf(hi):
                rates.extend(abs(s.real) for c, s in terms if c != 0)
        if not rates:
            return 1.0
        return min(rates)


@dataclass(frozen=True)
class GridFunction(OracleConfig):
    """Finite complex samples on the grid OracleConfig(L, N)."""

    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.N,):
            raise InvalidParams(f"values must have shape ({self.N},), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise InvalidParams("grid values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def sample(cls, func, L, N):
        return cls(L, N, func(OracleConfig(L, N).nodes))

    def same_grid(self, other):
        return self.N == other.N and abs(self.L - other.L) <= 1e-12 * max(1.0, self.L)


@dataclass(frozen=True)
class ScatteringData:
    """Transmission/reflection amplitudes at real k > 0 for incidence from each side."""

    t_left: complex
    r_left: complex
    t_right: complex
    r_right: complex


def _ansatz_layout(positions):
    """(column, sign, anchor) of each term e^{sign ik (x - anchor)} of the Ansatz, piece by piece."""
    n = len(positions)
    pieces = [[(0, -1, positions[0])]]
    pieces += [[(2 * j - 1, 1, positions[j - 1]), (2 * j, -1, positions[j])] for j in range(1, n)]
    pieces += [[(2 * n - 1, 1, positions[-1])]]
    return pieces


def interface_system(interfaces, k):
    """Matching system of the interface conditions at wave number k.

    interfaces is a model's ordered tuple of (position, Q) pairs at
    s_1 < ... < s_n.  Columns act on the piece coefficients of the Ansatz

        c_0 e^{-ik(x-s_1)} | a_j e^{ik(x-s_j)} + b_j e^{-ik(x-s_{j+1})} | c_n e^{ik(x-s_n)}

    in the order (c_0, a_1, b_1, ..., a_{n-1}, b_{n-1}, c_n); rows are the
    two rows of each Q, interface by interface.  Each exponential has modulus
    <= 1 on its piece when Im k >= 0, so no entry grows like e^{Im(k) (s_n - s_1)}.
    """
    pieces = _ansatz_layout([s for s, _ in interfaces])
    ik = 1j * k
    rows = []
    for j, (s, Q) in enumerate(interfaces):
        # boundary values (psi+, psi'+, psi-, psi'-) at s of every term: psi+ from the piece on the right
        V = np.zeros((4, 2 * len(interfaces)), dtype=complex)
        for side, piece in ((0, pieces[j + 1]), (2, pieces[j])):
            for col, sign, anchor in piece:
                e = cmath.exp(sign * ik * (s - anchor))
                V[side:side + 2, col] = e, sign * ik * e
        rows.append(Q @ V)
    return np.vstack(rows)


def _ansatz(interfaces, k, coeffs):
    """The interface_system Ansatz with coefficient vector coeffs, as a PiecewiseExp."""
    pos = [s for s, _ in interfaces]
    ik = 1j * k
    ends = [-np.inf] + pos + [np.inf]
    return PiecewiseExp(
        tuple(
            (lo, hi, tuple((coeffs[col] * np.exp(-sign * ik * anchor), sign * ik) for col, sign, anchor in piece))
            for lo, hi, piece in zip(ends, ends[1:], _ansatz_layout(pos))
        )
    )


# relative smallest singular value of the row-normalized interface system at
# or below which the system counts as singular
KERNEL_TOL = 1e-8

# quadrature nodes of pt_symmetry_defect over its symmetric window
DEFECT_SAMPLES = 4096


def _kernel(interfaces, k):
    """Relative smallest singular value of the matching system with unit rows, and its kernel.

    With unit rows the value is O(1) away from eigenvalues whatever Im k, and
    <= KERNEL_TOL at an eigenvalue of the operator the interface conditions
    define.  A row whose norm falls to KERNEL_TOL of its condition's size
    |Q (1, |k|, 1, |k|)| counts as a zero row: a separated condition acts on
    one piece per row, and that row vanishes at its half-line's eigenvalue.
    A connected row [I | -B] keeps an entry 1 or ik that nothing cancels.
    Returns (ratio, coefficient vector of the interface_system Ansatz).
    """
    if not (cmath.isfinite(k) and all(cmath.isfinite(s) for s, _ in interfaces)):
        raise InvalidParams(f"k and the interface positions must be finite, got k = {k}")
    A = interface_system(interfaces, k)
    norm = np.linalg.norm(A, axis=1, keepdims=True)
    weight = np.array([1.0, abs(k), 1.0, abs(k)])
    size = np.linalg.norm(np.vstack([Q for _, Q in interfaces]) * weight, axis=1, keepdims=True)
    norm[norm <= KERNEL_TOL * size] = np.inf
    _, sv, vh = np.linalg.svd(A / norm)
    return (float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0), np.conj(vh[-1])


def _eigen_kernel(interfaces, k):
    """Kernel vector of the matching system at k, or NotAnEigenvalue."""
    if k.imag <= 0:
        raise NotAnEigenvalue(f"Im k must be positive, got k = {k}")
    ratio, cvec = _kernel(interfaces, k)
    if ratio > KERNEL_TOL:
        raise NotAnEigenvalue(
            f"interface system has trivial kernel at k = {k} "
            f"(relative smallest singular value {ratio:.2e})"
        )
    return cvec


def eigenfunction_origin(B, k):
    """Bound/decaying eigenfunction of a connected-origin model at wave number k.

    psi(x) = e^{-ikx} for x < 0 and (alpha - ik beta) e^{ikx} for x > 0; valid
    when k solves the dispersion relation with Im k > 0.
    """
    M = require_nondegenerate(B)
    k = complex(k)
    interfaces = ((0.0, connected_condition(M)),)
    _eigen_kernel(interfaces, k)
    return _ansatz(interfaces, k, (1.0, M[0, 0] - 1j * k * M[0, 1]))


def two_point_kernel(B, l, k):
    """The kernel test of B at +l and its mirror at -l: (ratio, (c1, a, b, c4))."""
    return _kernel(two_point_interfaces(B, l), k)


def eigenfunction_two_point(B, l, k):
    """Eigenfunction of the two-point model from the kernel of the 4x4 interface system.

    The coefficient vector is normalized to c1 = 1 (c4 = 1 when c1 vanishes,
    largest component otherwise).  Raises NotAnEigenvalue when the system has
    no kernel at k (two_point_kernel ratio above KERNEL_TOL), which for matrices
    with delta != 0 happens at the roots of the printed dispersion relation;
    the kernel test is the authoritative one.  B may be singular: [I | -B]
    has rank 2 for every B.
    """
    k = complex(k)
    interfaces = two_point_interfaces(B, l)
    cvec = _eigen_kernel(interfaces, k)
    if abs(cvec[0]) > 1e-8 * np.max(np.abs(cvec)):
        cvec = cvec / cvec[0]
    elif abs(cvec[-1]) > 1e-8 * np.max(np.abs(cvec)):
        cvec = cvec / cvec[-1]
    else:
        cvec = cvec / cvec[np.argmax(np.abs(cvec))]
    return _ansatz(interfaces, k, cvec)


def interface_residual(psi, B, l=None):
    """Relative residual of the interface conditions satisfied by psi.

    With l=None checks the origin condition v(0+) = B v(0-); otherwise checks
    both two-point conditions (B at +l, its mirror at -l) and returns the max.
    """
    interfaces = ((0.0, connected_condition(B)),) if l is None else two_point_interfaces(B, float(l))
    worst = 0.0
    for s, Q in interfaces:
        v = np.array(psi.side_values(s, "+") + psi.side_values(s, "-"))
        plus, minus = Q[:, :2] @ v[:2], Q[:, 2:] @ v[2:]
        scale = max(float(np.max(np.abs(plus))), float(np.max(np.abs(minus))), 1e-300)
        worst = max(worst, float(np.max(np.abs(plus + minus))) / scale)
    return worst


def _sqrt_upper(lam):
    """k = sqrt(lam) with Im k > 0; raises InvalidRegion on the branch cut [0, inf)."""
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise InvalidParams(f"lambda must be finite, got {lam}")
    if abs(lam.imag) <= 1e-14 * max(1.0, abs(lam)) and lam.real >= -1e-300:
        raise InvalidRegion(f"lambda = {lam} lies on the absolutely continuous branch [0, inf)")
    k = np.sqrt(lam)
    if k.imag < 0:
        k = -k
    return complex(k)


def apply_resolvent(spec, lam, F):
    """Apply the resolvent of a model to a sampled right-hand side.

    U = u0 + psi: u0(x) = -int e^{ik|x-y|}/(2ik) F(y) dy is the outgoing free
    convolution, C^1 everywhere, and psi is the interface_system Ansatz whose
    coefficients make u0 + psi satisfy every interface condition; k = sqrt(lam),
    Im k > 0.  Quadratures use the midpoint rule on the staggered grid (O(h^2));
    on it u0 is one Toeplitz convolution, taken as one FFT product:
    O(N log N) in time and O(N) in memory.
    """
    if not isinstance(F, GridFunction):
        raise InvalidParams("F must be a GridFunction")
    interfaces = spec.interfaces()
    k = _sqrt_upper(lam)
    x, h, f, N = F.nodes, F.h, F.values, F.N
    # x_i - x_j = (i - j) h: one Toeplitz convolution with e^{ikh|m|}, |m| < N.  Its
    # full length is 3N - 2; with n >= 2N - 1 the circular wrap lands on indices
    # below N - 1 and misses the entries N - 1 .. 2N - 2 kept
    kernel = np.exp(1j * k * h * np.abs(np.arange(1 - N, N)))
    n = 1 << (2 * N - 2).bit_length()
    u0 = -h / (2j * k) * np.fft.ifft(np.fft.fft(f, n) * np.fft.fft(kernel, n))[N - 1 : 2 * N - 1]

    # u0 and u0' at each interface, the same from both sides, enter the conditions as data
    data = []
    for s, Q in interfaces:
        w = h * np.exp(1j * k * np.abs(s - x)) * f
        u, du = -np.sum(w) / (2j * k), -0.5 * np.sum(np.sign(s - x) * w)
        data.append(-Q @ np.array([u, du, u, du]))
    if _kernel(interfaces, k)[0] <= KERNEL_TOL:
        raise SpectrumPoint(f"lambda = {lam} is at or near a discrete eigenvalue")
    coeffs = np.linalg.solve(interface_system(interfaces, k), np.concatenate(data))
    return GridFunction(F.L, F.N, u0 + _ansatz(interfaces, k, coeffs)(x))


def pt_apply(f):
    """Reflection plus conjugation, x -> conj(f(-x)); an involution."""
    if isinstance(f, PiecewiseExp):
        pieces = tuple(
            (-hi, -lo, tuple((np.conj(c), -np.conj(s)) for c, s in terms))
            for lo, hi, terms in reversed(f.pieces)
        )
        return PiecewiseExp(pieces)
    if isinstance(f, GridFunction):
        return GridFunction(f.L, f.N, np.conj(f.values[::-1]))
    raise InvalidParams(f"pt_apply supports PiecewiseExp and GridFunction, got {type(f).__name__}")


def pt_symmetry_defect(psi):
    """min over |c| = 1 of ||PT psi - c psi|| / ||psi||, by DEFECT_SAMPLES-point midpoint quadrature.

    Zero (to quadrature accuracy) iff psi can be rescaled to a PT-symmetric
    function; the optimal phase is c = <psi, PT psi>/|<psi, PT psi>|.
    """
    if not isinstance(psi, PiecewiseExp):
        raise InvalidParams("pt_symmetry_defect expects a PiecewiseExp")
    half_width = 40.0 / psi.decay_rate()
    finite = [abs(lo) for lo, _, _ in psi.pieces if np.isfinite(lo)]
    finite += [abs(hi) for _, hi, _ in psi.pieces if np.isfinite(hi)]
    half_width += max(finite, default=0.0)
    sampled = GridFunction.sample(psi, half_width, DEFECT_SAMPLES)
    h, u, g = sampled.h, sampled.values, pt_apply(sampled).values
    norm2 = h * np.sum(np.abs(u) ** 2)
    if norm2 == 0.0:
        raise InvalidParams("cannot measure the defect of the zero function")
    inner = h * np.sum(np.conj(u) * g)
    c = inner / abs(inner) if abs(inner) > 0 else 1.0
    diff2 = h * np.sum(np.abs(g - c * u) ** 2)
    return float(np.sqrt(diff2 / norm2))


def scattering_coefficients(B, k):
    """Plane-wave transmission/reflection amplitudes of a connected-origin model.

    Left incidence: psi = e^{ikx} + r e^{-ikx} (x<0), t e^{ikx} (x>0); right
    incidence mirrored.  No flux conservation is implied unless the condition
    is self-adjoint.
    """
    M = require_nondegenerate(B)
    k = float(k)
    if not k > 0:
        raise InvalidParams(f"k must be a positive real number, got {k}")
    Q = connected_condition(M)
    interfaces = ((0.0, Q),)
    if _kernel(interfaces, k)[0] <= KERNEL_TOL:
        raise ResonantK(f"matching system singular at k = {k}")
    A = interface_system(interfaces, k)  # acts on (e^{-ikx} on x < 0, e^{ikx} on x > 0)
    # the incident wave enters the conditions through its boundary values on its own side
    r_left, t_left = np.linalg.solve(A, -(Q[:, 2] + 1j * k * Q[:, 3]))
    t_right, r_right = np.linalg.solve(A, -(Q[:, 0] - 1j * k * Q[:, 1]))
    return ScatteringData(complex(t_left), complex(r_left), complex(t_right), complex(r_right))
