"""Dispersion relations and discrete spectra for point-interaction models.

Wave numbers k and energies lambda = k^2.  Only roots on the physical sheet
Im k > 0 produce square-integrable eigenfunctions.  A root is an eigenvalue
when Im k > DEFAULT_TOL: the closed forms put roots on the real axis only up to
rounding, at times just above it.  The other roots are reported separately as
diagnostics.

Origin models have algebraic dispersion relations solved in closed form.  The
two-point model at +-l has the transcendental relation

    D(k) = sin(2kl) P1(k) + k cos(2kl) P2(k),

    P1 = -k^4 |beta|^2 - i k^3 (beta conj(delta) + conj(beta) delta)
         + k^2 (|alpha|^2 + s |delta|^2) + i k (alpha conj(gamma) + conj(alpha) gamma)
         - |gamma|^2,
    P2 = k^2 (alpha conj(beta) + conj(alpha) beta)
         + i k (alpha conj(delta) + conj(alpha) delta
                + beta conj(gamma) + conj(beta) gamma)
         - (gamma conj(delta) + conj(gamma) delta),

in two forms that differ only in the sign s.  The "printed" relation
(s = -1, the default) is the closed form as the source prints it; the
"operator" relation (s = +1) is the interface-system determinant,
det states.interface_system(two_point_interfaces(B, l), k) = -2i e^{2ikl} D(k),
whose zeros are the eigenvalues of the operator the interface conditions
define.  The two agree whenever delta = 0.

Zeros inside a contour are found by the argument-principle search that
the finite-difference oracle shares (zeros.find_zeros: phase tracking with
bisection and deflation, subdivision, Newton steps) in mirror mode, on an
overflow-free rescaling Dt of D divided by its zero at k = 0 (see
_ScaledDispersion and two_point_spectrum).  Every two-point root is then
certified against the interface system itself (states.two_point_kernel),
independently of either relation's coefficients.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boundary import DEFAULT_TOL, delta_pair_matrix, require_nondegenerate  # noqa: F401 (re-exported)
from .boundary import require_bounded, require_length, singular, theta_mod_pi
from .boundary import zero_coefficient_threshold
from .errors import (
    ContourThroughZero,
    DegenerateIdenticallyZero,
    EigensolverFailure,
    InvalidParams,
    NoConvergence,
)
from .zeros import find_zeros
from .states import KERNEL_TOL, two_point_kernel

AC_BRANCH = "[0, inf)"

NEGATIVE_REAL = "negative_real"
CONJUGATE_PAIR_MEMBER = "conjugate_pair_member"

REAL_ALL_ROOTS_LOWER_HALF = "real_all_roots_lower_half"
REAL_PURE_IMAGINARY_ROOTS = "real_pure_imaginary_roots"
COMPLEX_SPECTRUM = "complex_spectrum"

# two-point dispersion relations: as printed by the source, and as the
# determinant of the interface system
PRINTED = "printed"
OPERATOR = "operator"
RELATIONS = (PRINTED, OPERATOR)

# the two-point zero search (zeros.find_zeros) runs on columns one period pi/(2l)
# of e^{4ikl} wide, at most MAX_COLUMNS of them, and starts its bottom edge, which
# passes over the zeros just below the real axis, from SPACING_NODES nodes per column
SPACING_NODES = 64
MAX_COLUMNS = 64

# default_contour's largest coefficient ratio: K = 2 (1 + ratio) and the width 2K stay finite
CONTOUR_RATIO_MAX = float(np.finfo(float).max) / 8


@dataclass(frozen=True)
class WaveNumber:
    k: complex


@dataclass(frozen=True)
class Eigenvalue:
    """One discrete eigenvalue.

    For two-point models operator_sv is the two_point_kernel ratio at k and
    operator_certified says whether it is <= KERNEL_TOL, i.e. whether k is an
    eigenvalue of the operator the interface conditions define.  Both are
    None for origin models, whose roots are eigenvalues by construction.
    """

    lam: complex
    k: WaveNumber
    multiplicity: int
    kind: str
    operator_sv: Optional[float] = None
    operator_certified: Optional[bool] = None


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple
    nonphysical_roots: tuple
    all_real: bool
    ac_branch: str = AC_BRANCH

    @property
    def total_multiplicity(self):
        return sum(e.multiplicity for e in self.eigenvalues)


@dataclass(frozen=True)
class OriginSpectra:
    """Discrete spectra of a stack of n origin models, one row per model.

    ok is False where the call on that one model raises (a non-finite or
    singular matrix, a relation that vanishes identically); the row then
    reports nothing.  Elsewhere count is the report's total_multiplicity,
    all_real its all_real, and lam[:, :count] its eigenvalues in order, each
    repeated by its multiplicity (count <= 2 for origin models).
    """

    lam: np.ndarray  # (n, 2) complex
    count: np.ndarray  # (n,) int
    all_real: np.ndarray  # (n,) bool
    ok: np.ndarray  # (n,) bool


@dataclass(frozen=True)
class ContourSpec:
    """Rectangular search region for two-point dispersion zeros (im_min > 0)."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise InvalidParams(f"{name} must be finite, got {value}")
        if not (self.im_min > 0):
            raise InvalidParams("im_min must be positive (contour stays off the real axis)")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise InvalidParams("contour rectangle is empty")


def _sort_roots(roots):
    return sorted(roots, key=lambda z: (z.real, z.imag))


def _cmul(a, b):
    """a * b elementwise in real arithmetic.

    Bit for bit the product of two complex scalars: numpy's array complex
    multiply may fuse multiply-adds and round differently.
    """
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _abs(z):
    """|z| elementwise, bit for bit the scalar abs (np.abs of a complex array may round differently)."""
    return np.hypot(z.real, z.imag)


def _eigenvalue_test(k):
    """For each root k: lam = k^2, whether k gives an eigenvalue and whether lam is negative real.

    An eigenvalue needs Im k > DEFAULT_TOL; it is negative real when
    |Im lam| <= DEFAULT_TOL max(1, |lam|).
    """
    lam = _cmul(k, k)
    return lam, k.imag > DEFAULT_TOL, np.abs(lam.imag) <= DEFAULT_TOL * np.maximum(1.0, _abs(lam))


def _report_from_roots(roots, multiplicities=None, kernel_sv=None):
    """Build a SpectrumReport from dispersion roots (default multiplicity 1 each).

    kernel_sv, when given, maps a root k to its operator certificate value.
    """
    if not roots:
        return SpectrumReport((), (), True)
    if multiplicities is None:
        multiplicities = [1] * len(roots)
    lams, eigen, negative_real = _eigenvalue_test(np.array(roots, dtype=complex))
    eigs, nonphys = [], []
    for k, m, lam, is_eig, neg in zip(roots, multiplicities, lams, eigen, negative_real):
        if is_eig:
            lam = complex(lam)
            kind = NEGATIVE_REAL if neg else CONJUGATE_PAIR_MEMBER
            if kernel_sv is None:
                eigs.append(Eigenvalue(lam, WaveNumber(k), m, kind))
            else:
                sv = kernel_sv(k)
                eigs.append(Eigenvalue(lam, WaveNumber(k), m, kind, sv, sv <= KERNEL_TOL))
        else:
            nonphys.append(k)
    eigs.sort(key=lambda e: (e.lam.real, e.lam.imag))
    all_real = all(e.kind == NEGATIVE_REAL for e in eigs)
    return SpectrumReport(tuple(eigs), tuple(_sort_roots(nonphys)), all_real)


def _report_row(k, mult):
    """SpectrumReport of one row of root slots (k, mult) as the origin kernels return them."""
    filled = mult > 0
    return _report_from_roots(list(k[filled]), [int(m) for m in mult[filled]])


def _sort_pairs(z, present, *more):
    """Sort the two slots of each row of z in place: present values first, by (Re, Im), stably.

    The arrays in more have the same (n, 2) slots and move with z.
    """
    a, b = z[:, 0], z[:, 1]
    later = (b.real < a.real) | ((b.real == a.real) & (b.imag < a.imag))
    swap = present[:, 1] & (~present[:, 0] | later)
    for x in (z,) + more:
        x[swap] = x[swap, ::-1]


def _origin_spectra(ok, k, mult):
    """OriginSpectra of a stack whose rows ok have the root slots (k, mult); the other rows are empty."""
    lam, eig, negative_real = _eigenvalue_test(k)
    eig &= mult > 0
    m = np.where(eig, mult, 0)
    _sort_pairs(lam, eig, m)
    lam[m == 0] = 0.0
    out = np.zeros((len(ok), 2), dtype=complex)
    out[ok, 0] = lam[:, 0]
    out[ok, 1] = np.where(m[:, 0] >= 2, lam[:, 0], lam[:, 1])
    count = np.zeros(len(ok), dtype=int)
    count[ok] = m.sum(axis=1)
    all_real = np.zeros(len(ok), dtype=bool)
    all_real[ok] = ~(eig & ~negative_real).any(axis=1)
    return OriginSpectra(out, count, all_real, ok)


def type_I_discriminant(p):
    """Discriminant b*c*sin^2(phi) - cos^2(phi) of the connected-family dispersion.

    Shared by the root formula and the real-spectrum predicate so the two
    routes can never disagree on its sign.
    """
    s, c = math.sin(p.phi), math.cos(p.phi)
    return p.b * p.c * s * s - c * c


def dispersion_roots_type_I(p):
    """Roots of b k^2 + 2i cos(phi) sqrt(1+bc) k - c = 0 (phase theta drops out).

    Computed in real arithmetic: pure-imaginary roots come out with real part
    exactly zero.  Raises DegenerateIdenticallyZero when every k solves the
    relation (b = 0, cos(phi) = 0, c = 0).
    """
    cphi = math.cos(p.phi)
    root1bc = math.sqrt(max(1.0 + p.b * p.c, 0.0))
    if p.b == 0.0:
        if abs(cphi) > 1e-15:  # cos(pi/2) rounds to 6e-17, not zero
            return [complex(0.0, -p.c / (2.0 * cphi))]
        if p.c != 0.0:
            return []
        raise DegenerateIdenticallyZero("dispersion vanishes identically (b = c = cos(phi) = 0)")
    d = type_I_discriminant(p)
    im_common = -cphi * root1bc / p.b
    if d <= 0:
        r = math.sqrt(-d) / p.b
        return [complex(0.0, im_common - r), complex(0.0, im_common + r)]
    r = math.sqrt(d) / p.b
    return [complex(-r, im_common), complex(r, im_common)]


def _connected_roots(M):
    """Roots of k^2 beta + i k (alpha + delta) - gamma = 0 for a (n, 2, 2) stack of finite nonsingular matrices.

    Returns k (n, 2) sorted by (Re k, Im k), mult (n, 2) (1 for a root, 0 for
    an empty slot) and zero (n,), True where the relation vanishes
    identically.  The coefficient triple is normalized by a common phase
    before solving, so matrices differing only by a global phase produce
    (numerically) identical roots; the spectrum never depends on that phase.
    Every product is a _cmul and every modulus an _abs, so one matrix gives
    the same bits alone as in any stack.
    """
    n = len(M)
    coef = np.stack([M[:, 0, 1], M[:, 0, 0] + M[:, 1, 1], M[:, 1, 0]], axis=1)  # beta, tau, gamma
    size = _abs(coef)
    scale = zero_coefficient_threshold(M)
    zero = (size <= scale[:, None]).all(axis=1)
    rows = np.flatnonzero(~zero)
    pivot = np.argmax(size[rows], axis=1)  # the largest coefficient, the first of equal ones
    phase = coef[rows, pivot] / size[rows, pivot]
    coef = coef[rows] / phase[:, None]
    # rows real up to the rounding of the division: their roots on the imaginary axis
    # get real part +0 below, not the +-1e-16 or -0 that rounding would leave
    real = (np.abs(coef.imag) <= 4 * np.finfo(float).eps * size[rows, pivot][:, None]).all(axis=1)
    coef.imag[real] = 0.0
    beta, tau, gamma = coef.T
    scale = scale[rows]
    k = np.zeros((n, 2), dtype=complex)
    mult = np.zeros((n, 2), dtype=int)
    linear = _abs(beta) <= scale
    one = linear & (_abs(tau) > scale)
    k[rows[one], 0] = gamma[one] / _cmul(1j, tau[one])
    k.real[rows[one & real], 0] = 0.0
    mult[rows[one], 0] = 1
    quad = ~linear
    beta, tau, gamma = beta[quad], tau[quad], gamma[quad]
    square = -_cmul(tau, tau) + _cmul(_cmul(4.0, gamma), beta)
    disc = np.sqrt(square + 0j)
    i_tau, two_beta = _cmul(-1j, tau), _cmul(2.0, beta)
    # -i tau +- disc with the sign that does not cancel gives the larger root, and the
    # product of the roots, -gamma/beta, the other; where neither sign cancels (a real
    # row's pair k, -conj k, a double root at 0) both keep -i tau +- disc
    dot = i_tau.real * disc.real + i_tau.imag * disc.imag
    disc = np.where(dot < 0, -disc, disc)
    k[rows[quad], 0] = (i_tau + disc) / two_beta
    second = (i_tau - disc) / two_beta
    vieta = dot != 0
    second[vieta] = _cmul(-2.0, gamma[vieta]) / (i_tau + disc)[vieta]
    k[rows[quad], 1] = second
    k.real[rows[quad][real[quad] & (square.real <= 0)]] = 0.0
    mult[rows[quad]] = 1
    _sort_pairs(k, mult > 0, mult)
    return k, mult, zero


def _one_connected(B):
    """_connected_roots of one matrix, raising on a matrix the stack call would mark."""
    k, mult, zero = _connected_roots(require_nondegenerate(B)[None])
    if zero[0]:
        raise DegenerateIdenticallyZero("dispersion vanishes identically")
    return k, mult


def dispersion_roots_general(B):
    """Roots of k^2 beta + i k (alpha + delta) - gamma = 0 for a connected matrix (see _connected_roots)."""
    k, mult = _one_connected(B)
    return list(k[0, mult[0] > 0])


def _distinct(k, mult):
    """Coincident roots become one root of multiplicity 1 (connected conditions admit only one decaying solution)."""
    scale = np.maximum(np.maximum(1.0, _abs(k[:, 0])), _abs(k[:, 1]))
    same = (mult[:, 1] > 0) & (_abs(k[:, 0] - k[:, 1]) <= 1e-12 * scale)
    mult[same, 1] = 0
    return k, mult


def discrete_spectrum_origin_connected(B):
    """Discrete spectrum of a connected-origin model from its dispersion roots.

    Coincident upper-half roots collapse to a single eigenvalue of
    multiplicity 1.  B may also be a (n, 2, 2) stack: the result is then an
    OriginSpectra, whose row i is the report of B[i] (or not ok where that
    call raises).
    """
    M = np.asarray(B, dtype=complex)
    if M.ndim == 3 and M.shape[1:] == (2, 2):
        ok = np.isfinite(M).all(axis=(1, 2))
        ok[ok] = ~singular(M[ok])
        k, mult, zero = _connected_roots(M[ok])
        ok[ok] = ~zero
        return _origin_spectra(ok, *_distinct(k[~zero], mult[~zero]))
    return _report_row(*(x[0] for x in _distinct(*_one_connected(M))))


def _separated_roots(theta, h0, h1):
    """Candidate wave numbers of separated-origin models with canonical TypeIIParams fields (arrays).

    Each half-line contributes

        k(+) = -i (h1/h0) e^{+i theta}   (right),
        k(-) = -i (h1/h0) e^{-i theta}   (left).

    When both coincide (theta = 0 mod pi) the common root has multiplicity 2;
    with h0 = 0 there is none.  Returns k and mult (n, 2) as _connected_roots does.
    """
    n = len(theta)
    k = np.zeros((n, 2), dtype=complex)
    mult = np.zeros((n, 2), dtype=int)
    rows = np.flatnonzero(h0 != 0.0)
    theta, ratio = theta[rows], h1[rows] / h0[rows]
    c = _cmul(-1j, ratio)
    k[rows, 0] = _cmul(c, np.exp(_cmul(1j, theta)))
    k[rows, 1] = _cmul(c, np.exp(_cmul(-1j, theta)))
    mult[rows] = 1
    double = theta_mod_pi(theta) <= 1e-14
    sign = np.where(np.abs(theta - np.pi) < np.pi / 2, -1.0, 1.0)  # e^{i theta} = +-1 exactly
    rows = rows[double]
    k[rows] = 0.0
    k.imag[rows, 0] = -ratio[double] * sign[double]
    mult[rows] = (2, 0)
    _sort_pairs(k, mult > 0, mult)
    return k, mult


def discrete_spectrum_separated(p):
    """Discrete spectrum of a separated-origin model (roots from _separated_roots).

    An eigenvalue when Im k > DEFAULT_TOL.  p may also hold a stack
    (TypeIIParams with array fields): the result is then an OriginSpectra.
    """
    fields = np.broadcast_arrays(p.theta, p.h0, p.h1)
    k, mult = _separated_roots(*(np.atleast_1d(x) for x in fields))
    if fields[0].ndim:
        return _origin_spectra(np.ones(len(k), dtype=bool), k, mult)
    return _report_row(k[0], mult[0])


@dataclass(frozen=True)
class RealSpectrumTypeI:
    is_real: bool
    condition: str  # "I", "II", "both", "neither"


def real_spectrum_predicate_type_I(p):
    """Reality of the connected-family spectrum from the parameters alone.

    Condition I : b c sin^2(phi) <= cos^2(phi)         (roots pure imaginary)
    Condition II: b c sin^2(phi) >= cos^2(phi), cos(phi) >= 0
                                                       (roots in the lower half-plane)

    is_real uses exact float comparisons (shared with the root formula via
    type_I_discriminant, so the two routes cannot disagree); the condition
    label alone treats |discriminant| within a few ulps as the equality case.
    """
    d = type_I_discriminant(p)
    s, cphi = math.sin(p.phi), math.cos(p.phi)
    is_real = d <= 0 or cphi >= 0
    if not is_real:
        return RealSpectrumTypeI(False, "neither")
    eq_tol = 64 * np.finfo(float).eps * max(abs(p.b * p.c) * s * s, cphi * cphi, 1.0e-300)
    cond_i = d <= eq_tol
    cond_ii = d >= -eq_tol and cphi >= 0
    if cond_i and cond_ii:
        condition = "both"
    elif cond_i:
        condition = "I"
    else:
        condition = "II"
    return RealSpectrumTypeI(True, condition)


def real_spectrum_classify_general(B):
    """Spectrum reality of a connected-origin matrix, read off discrete_spectrum_origin_connected.

    REAL_ALL_ROOTS_LOWER_HALF when it has no eigenvalue, REAL_PURE_IMAGINARY_ROOTS
    when every eigenvalue is negative real, otherwise COMPLEX_SPECTRUM.
    """
    eigs = discrete_spectrum_origin_connected(B).eigenvalues
    if not eigs:
        return REAL_ALL_ROOTS_LOWER_HALF
    if all(e.kind == NEGATIVE_REAL for e in eigs):
        return REAL_PURE_IMAGINARY_ROOTS
    return COMPLEX_SPECTRUM


def _bracket_coeffs(B, relation=PRINTED):
    """Coefficient lists (highest power first) of P1 (quartic) and P2 (quadratic)."""
    if relation not in RELATIONS:
        raise InvalidParams(f"unknown dispersion relation {relation!r}; expected one of {RELATIONS}")
    delta_sign = -1.0 if relation == PRINTED else 1.0
    a, b, g, d = B.ravel().tolist()

    def twice_re(x, y):  # x conj(y) + conj(x) y
        return 2.0 * (x * y.conjugate()).real

    p1 = [-abs(b) * abs(b), -1j * twice_re(b, d), abs(a) * abs(a) + delta_sign * abs(d) * abs(d),
          1j * twice_re(a, g), -abs(g) * abs(g)]
    p2 = [twice_re(a, b), 1j * (twice_re(a, d) + twice_re(b, g)), -twice_re(g, d)]
    return p1, p2


class _ScaledDispersion:
    """Overflow-free rescaling Dt(k) = e^{2ikl} D(k) and its derivative.

    With e = e^{4ikl} - 1 (|1 + e| <= 1 for Im k >= 0), W = k P2 and
    U = (W - i P1)/2:

        Dt  = -(i/2) e P1 + (1 + e/2) W = e U + W
        Dt' = e U' + W' + 4il e^{4ikl} U

    Same zeros as D in the open upper half-plane.  e comes from expm1, so Dt
    keeps its digits near its zero at k = 0.  with_slope(k) gives Dt and Dt'
    on an array of k from one Horner pass over the polynomials U, U', W and
    W' stacked.  Below the real axis e^{4ikl} overflows, and mirrored=True
    gives e^{-4ikl} Dt = e' (W - U) + W, e' = e^{-4ikl} - 1, from the same
    pass with W - U in place of U and -4il in place of 4il.  Raises
    InvalidParams when an entry of B exceeds MAX_ENTRY and
    DegenerateIdenticallyZero when P1 and P2 both vanish (no coefficient
    above 1e-300).
    """

    def __init__(self, B, l, relation=PRINTED):
        require_length(l)
        self.l = float(l)
        self.p1, self.p2 = _bracket_coeffs(require_bounded(B), relation)
        if max(map(abs, self.p1 + self.p2)) <= 1e-300:  # default_contour's zero
            raise DegenerateIdenticallyZero("two-point dispersion vanishes identically")

    def with_slope(self, k, columns=None, mirrored=False):
        """(Dt(k), Dt'(k)) stacked, on an array of k in the upper half-plane.

        columns are the coefficients of rows as _columns gives them; those
        times s give s Dt and s Dt'.  mirrored=True gives e^{-4ikl} Dt and
        its derivative, for k below the real axis.
        """
        k = np.asarray(k)
        x = k.ravel()
        first, *rest = self._columns(mirrored=mirrored) if columns is None else columns
        y = first * x + rest[0]
        for c in rest[1:]:
            y = y * x + c
        four_il = (-4j if mirrored else 4j) * self.l
        x = four_il * x
        out = y[:2] * np.expm1(x) + y[2:]
        out[1] += four_il * np.exp(x) * y[0]  # not 1 + e, which loses e^{4ikl} where it is small
        return out.reshape((2,) + k.shape)

    def _columns(self, scale=1.0, mirrored=False):
        """The coefficients of U, U', W and W' times scale, by power from the highest, as (4, 1) arrays.

        mirrored=True puts W - U = (W + i P1)/2 in place of U.
        """
        W = [0.0, *self.p2, 0.0]
        U = [0.5 * (w + (1j if mirrored else -1j) * p) for p, w in zip(self.p1, W)]
        dU, dW = ([0.0] + [(4 - j) * c for j, c in enumerate(row[:4])] for row in (U, W))
        return tuple(scale * np.array([U, dU, W, dW]).T[:, :, None])

    def search_function(self, K):
        """The function the zero search takes: k -> (f, f') with f = Dt / (s k^m).

        f has the zeros of Dt in the upper half-plane but not the one at
        k = 0, of order m.  The power of two s brings |f k^m| to at most 2
        over |k| <= K (|Dt| <= |P1| + 2 |W| there), so that no product of
        two values overflows.  Raises NoConvergence when Dt itself may
        overflow there.
        """
        bound = 0.0
        for p, w in zip(self.p1, [0.0, *self.p2, 0.0]):  # Horner on Python floats: an overflow is inf, not a warning
            bound = bound * K + abs(p) + abs(w)
        if not math.isfinite(bound):
            raise NoConvergence("dispersion value overflows on the search contour: interface entries too large")
        columns = self._columns(math.ldexp(1.0, -math.frexp(bound)[1]))
        # the order of Dt's zero at k = 0: Dt = -2(l |gamma|^2 + Re(gamma conj(delta))) k + O(k^2)
        m = 1 if 2 * self.l * self.p1[4] + self.p2[2] != 0 else 2

        def f(k):
            inv = 1.0 / k
            value, slope = self.with_slope(k, columns) * (inv if m == 1 else inv * inv)
            return value, slope - m * value * inv

        return f


def two_point_dispersion_value(B, l, k, relation=PRINTED):
    """Evaluate the two-point dispersion D(k) = e^{-2ikl} Dt(k); entire in k, vectorized over k.

    relation="printed" evaluates the closed form as printed (k^2 term
    |alpha|^2 - |delta|^2); relation="operator" the interface-system
    determinant (|alpha|^2 + |delta|^2).  Below the axis D = e^{2ikl} (e^{-4ikl} Dt).
    """
    disp = _ScaledDispersion(B, l, relation)
    k = np.asarray(k, dtype=complex)
    out = np.empty(k.shape, dtype=complex)
    upper = k.imag >= 0
    out[upper] = np.exp(-2j * k[upper] * l) * disp.with_slope(k[upper])[0]
    out[~upper] = np.exp(2j * k[~upper] * l) * disp.with_slope(k[~upper], mirrored=True)[0]
    return out[()]


def default_contour(B, l, relation=PRINTED):
    """Cauchy-style default search rectangle from the bracket coefficient ratios.

    Raises InvalidParams when the rectangle overflows: with an entry of B
    near MAX_ENTRY a coefficient ratio can pass CONTOUR_RATIO_MAX, past
    which the half-width K or the width 2K is not a finite float.
    """
    disp = _ScaledDispersion(B, l, relation)
    ratios = []
    for poly in (disp.p1, disp.p2):
        mags = [abs(c) for c in poly]
        nz = [j for j, m in enumerate(mags) if m > 1e-300]
        if nz:
            lead, top = mags[nz[0]], max(mags[nz[0]:])
            if top > lead * CONTOUR_RATIO_MAX:  # Python floats: an overflow here is inf, not a warning
                raise InvalidParams(
                    "the default contour overflows: the dispersion coefficients of this interface "
                    "matrix differ by more than the float range; pass a contour (--contour)"
                )
            ratios.append(top / lead)
    K = 2.0 * (1.0 + max(ratios))
    return ContourSpec(-K, K, 1e-6, K)


def two_point_spectrum(B, l, contour=None, relation=PRINTED):
    """Discrete spectrum of the two-point model from dispersion zeros in a contour.

    Zeros of the chosen dispersion relation ("printed", the default, or
    "operator"; see the module docstring) inside the rectangle are found by
    zeros.find_zeros in mirror mode: Dt(-conj k) = -conj Dt(k), so the
    search covers Re k >= 0 of the rectangle's hull [-X, X] x [im_min, X'],
    X' >= max(X, im_max), and mirrors what it finds.  Roots outside the
    rectangle are dropped; a root on an edge of a contour the caller passed
    raises ContourThroughZero, and a search that fails raises NoConvergence.
    Eigenvalues are k^2 with multiplicity equal to the zero order.  Each one
    carries its operator certificate (Eigenvalue.operator_sv,
    operator_certified): printed roots of a model with delta != 0 are in
    general not certified.

    Roots below the contour (0 < Im k <= im_min) are not searched; pass a
    smaller im_min to reach them.  Lower-half-plane diagnostics are never
    collected here, so the report's nonphysical tuple stays empty while
    im_min >= DEFAULT_TOL.
    """
    box = default_contour(B, l, relation=relation) if contour is None else contour
    disp = _ScaledDispersion(B, l, relation)
    K = max(-box.re_min, box.re_max, box.im_max)
    dx = min(max(math.pi / (2 * disp.l), K / MAX_COLUMNS), K)
    f = disp.search_function(math.sqrt(2.0) * (K + dx))
    try:
        kappa, mirrored = find_zeros(f, K, box.im_min, dx, True, SPACING_NODES)
    except EigensolverFailure as exc:
        raise NoConvergence(str(exc)) from None
    roots = []
    for k in kappa.tolist() + (-np.conj(kappa[mirrored])).tolist():
        tol = DEFAULT_TOL * max(1.0, abs(k))
        gaps = (k.real - box.re_min, box.re_max - k.real, box.im_max - k.imag, k.imag - box.im_min)
        if min(gaps) < -tol:  # outside the rectangle, in the rest of its hull
            continue
        if contour is not None and min(gaps) <= tol:
            raise ContourThroughZero("dispersion zero on or near the contour; perturb the rectangle")
        roots.append(k)
    distinct = sorted(set(roots), key=roots.index)  # a cluster comes out as copies of its mean
    return _report_from_roots(
        distinct,
        [roots.count(k) for k in distinct],
        kernel_sv=lambda k: two_point_kernel(B, l, k)[0],
    )
