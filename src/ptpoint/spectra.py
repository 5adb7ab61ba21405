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

Zeros inside a user contour are located by the argument principle (adaptive
phase tracking on all rectangle edges at once: the starting nodes evaluated
and tested in one array pass, then bisection in plain complex arithmetic),
isolated by subdivision, and refined by Newton iteration on an overflow-free
rescaling of D.  Bisection and Newton share one scalar evaluation of the
rescaled D and its derivative.  Every two-point root is then certified against
the interface system itself (states.two_point_kernel), independently of either
relation's coefficients.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boundary import DEFAULT_TOL, delta_pair_matrix, require_nondegenerate  # noqa: F401 (re-exported)
from .boundary import finite, require, require_bounded, require_length, singular, theta_mod_pi
from .boundary import zero_coefficient_threshold
from .errors import (
    ContourThroughZero,
    DegenerateIdenticallyZero,
    InvalidParams,
    NoConvergence,
)
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

# starting nodes on each side of a winding-count rectangle; _phase_track
# bisects between them wherever the dispersion values need it
NODES_PER_SIDE = 64
# _phase_track: bisection rounds, and live segments over the whole contour
MAX_ROUNDS = 80
MAX_SEGMENTS = 400_000

# Newton refinement of a zero: relative step that ends it, and its iteration cap
NEWTON_TOL = 1e-12
MAX_NEWTON_ITER = 60


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
        require(finite(**vars(self)))
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
    beta, tau, gamma = (coef[rows] / phase[:, None]).T
    scale = scale[rows]
    k = np.zeros((n, 2), dtype=complex)
    mult = np.zeros((n, 2), dtype=int)
    linear = _abs(beta) <= scale
    one = linear & (_abs(tau) > scale)
    k[rows[one], 0] = gamma[one] / _cmul(1j, tau[one])
    mult[rows[one], 0] = 1
    quad = ~linear
    beta, tau, gamma = beta[quad], tau[quad], gamma[quad]
    disc = np.sqrt(-_cmul(tau, tau) + _cmul(_cmul(4.0, gamma), beta) + 0j)
    i_tau, two_beta = _cmul(-1j, tau), _cmul(2.0, beta)
    k[rows[quad], 0] = (i_tau + disc) / two_beta
    k[rows[quad], 1] = (i_tau - disc) / two_beta
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
    """Coefficient arrays (highest power first) of P1 (quartic) and P2 (quadratic)."""
    if relation not in RELATIONS:
        raise InvalidParams(f"unknown dispersion relation {relation!r}; expected one of {RELATIONS}")
    delta_sign = -1.0 if relation == PRINTED else 1.0
    a, b = B[0, 0], B[0, 1]
    g, d = B[1, 0], B[1, 1]
    p1 = np.array(
        [
            -abs(b) ** 2,
            -1j * (b * np.conj(d) + np.conj(b) * d),
            abs(a) ** 2 + delta_sign * abs(d) ** 2,
            1j * (a * np.conj(g) + np.conj(a) * g),
            -abs(g) ** 2,
        ],
        dtype=complex,
    )
    p2 = np.array(
        [
            a * np.conj(b) + np.conj(a) * b,
            1j * (a * np.conj(d) + np.conj(a) * d + b * np.conj(g) + np.conj(b) * g),
            -(g * np.conj(d) + np.conj(g) * d),
        ],
        dtype=complex,
    )
    return p1, p2


class _ScaledDispersion:
    """Overflow-free rescaling Dt(k) = e^{2ikl} D(k) and its derivative.

    With q = e^{4ikl} (|q| <= 1 for Im k >= 0):

        Dt  = -(i/2)(q-1) P1 + (k/2)(1+q) P2
        Dt' = 2 l q P1 - (i/2)(q-1) P1' + (1/2)(1+q) P2 + 2 i l k q P2 + (k/2)(1+q) P2'

    Same zeros as D in the open upper half-plane.  Calling it evaluates Dt on
    an array of k; below the real axis q overflows, and mirrored=True
    evaluates e^{-4ikl} Dt with q' = e^{-4ikl} instead.  at(k) gives Dt and
    Dt' at one k, for bisection and Newton steps.  Raises
    InvalidParams when an entry of B exceeds MAX_ENTRY and
    DegenerateIdenticallyZero when P1 and P2 both vanish (no coefficient above 1e-300).
    """

    def __init__(self, B, l, relation=PRINTED):
        require_length(l)
        self.l = float(l)
        self.p1, self.p2 = _bracket_coeffs(require_bounded(B), relation)
        if max(np.max(np.abs(self.p1)), np.max(np.abs(self.p2))) <= 1e-300:  # default_contour's zero
            raise DegenerateIdenticallyZero("two-point dispersion vanishes identically")
        self._p1, self._p2 = self.p1.tolist(), self.p2.tolist()

    def __call__(self, k, mirrored=False):
        k = np.asarray(k, dtype=complex)
        s = -1 if mirrored else 1
        q = np.exp(s * 4j * k * self.l)
        P1 = np.polyval(self.p1, k)
        P2 = np.polyval(self.p2, k)
        return -s * 0.5j * (q - 1.0) * P1 + 0.5 * k * (1.0 + q) * P2

    def at(self, k):
        """(Dt(k), Dt'(k)) at one complex k: __call__ to rounding, at a fraction of its cost.

        Raises OverflowError where q overflows, far below the real axis.
        """
        l = self.l
        q = cmath.exp(4j * k * l)
        P1, P2, dP1, dP2 = self._p1[0], self._p2[0], 0.0, 0.0
        for c in self._p1[1:]:  # Horner for P1 and P1' in one pass
            P1, dP1 = P1 * k + c, dP1 * k + P1
        for c in self._p2[1:]:
            P2, dP2 = P2 * k + c, dP2 * k + P2
        a, b = -0.5j * (q - 1.0), 0.5 * k * (1.0 + q)  # Dt = a P1 + b P2
        dp = 2.0 * l * q * P1 + a * dP1 + 0.5 * (1.0 + q) * P2 + 2j * l * k * q * P2 + b * dP2
        return a * P1 + b * P2, dp


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
    out[upper] = np.exp(-2j * k[upper] * l) * disp(k[upper])
    out[~upper] = np.exp(2j * k[~upper] * l) * disp(k[~upper], mirrored=True)
    return out[()]


def default_contour(B, l, relation=PRINTED):
    """Cauchy-style default search rectangle from the bracket coefficient ratios."""
    disp = _ScaledDispersion(B, l, relation)
    ratios = []
    for poly in (disp.p1, disp.p2):
        mags = np.abs(poly)
        nz = np.nonzero(mags > 1e-300)[0]
        if len(nz):
            lead = mags[nz[0]]
            ratios.append(np.max(mags[nz[0]:]) / lead)
    K = 2.0 * (1.0 + max(ratios))
    return ContourSpec(-K, K, 1e-6, K)


def _successors(x):
    """x[i + 1] for each node i of a closed polygon, x[0] for the last: np.roll(x, -1) at a tenth of its cost."""
    return np.concatenate([x[1:], x[:1]])


def _unresolved(dphi, ratio):
    """Whether a segment needs splitting: a phase step over pi/2 or a modulus ratio outside [1/8, 8].

    Takes arrays or floats; a NaN ratio counts as resolved.
    """
    return (abs(dphi) > np.pi / 2) | (ratio > 8.0) | (ratio < 0.125)


def _phase_track(f, z, w, guard):
    """Total change of arg f around the closed polygon z (w = f(z)), by bisection.

    Splits any segment whose endpoint phase difference exceeds pi/2 or whose
    modulus ratio exceeds 8; each keeps the floor of its edge.  Raises
    ContourThroughZero when |f| falls under ``guard`` at a new point or a
    segment cannot be resolved.  The starting segments are tested in one array
    pass; the ones that need splitting are bisected on Python numbers, one
    point at a time through f.at (a _ScaledDispersion has it) or else f.
    """
    at = getattr(f, "at", None)
    value = (lambda k: at(k)[0]) if at else (lambda k: complex(f(k)))
    z1, w1 = _successors(z), _successors(w)
    dphi = np.angle(w1 * np.conj(w))
    bad = _unresolved(dphi, np.abs(w1) / np.abs(w))
    total = float(np.sum(dphi[~bad]))
    floor = 1e-13 * np.maximum(np.abs(z1 - z), 1.0)
    live = list(zip(*(x[bad].tolist() for x in (z, z1, w, w1, floor))))
    for _ in range(MAX_ROUNDS):
        if not live:
            return total
        if any(abs(b - a) < floor for a, b, _, _, floor in live):
            raise ContourThroughZero("dispersion zero on or near the contour; perturb the rectangle")
        segs = []
        for a, b, va, vb, floor in live:
            m = 0.5 * (a + b)
            vm = value(m)
            if abs(vm) <= guard:
                raise ContourThroughZero(
                    "dispersion value below safety threshold on the contour; perturb the rectangle"
                )
            segs += [(a, m, va, vm, floor), (m, b, vm, vb, floor)]
        if len(segs) > MAX_SEGMENTS:
            raise NoConvergence("phase tracking exceeded the segment budget")
        live = []
        for seg in segs:
            _, _, va, vb, _ = seg
            dphi = cmath.phase(vb * va.conjugate())
            if _unresolved(dphi, abs(vb) / abs(va)):
                live.append(seg)
            else:
                total += dphi
    raise NoConvergence("phase tracking did not resolve the contour")


def _winding_rectangle(f, re_min, re_max, im_min, im_max):
    """Number of zeros of f inside the rectangle, by the argument principle."""
    corners = np.array(
        [complex(re_min, im_min), complex(re_max, im_min), complex(re_max, im_max), complex(re_min, im_max)]
    )
    t = np.arange(NODES_PER_SIDE) / NODES_PER_SIDE
    z = (corners[:, None] + (_successors(corners) - corners)[:, None] * t).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        w = f(z)
        size = np.abs(w)
    if not np.all(np.isfinite(size)):
        raise NoConvergence("dispersion value overflows at a contour node: interface entries too large")
    guard = 1e-14 * float(np.max(size))
    if not np.all(size > guard):
        raise ContourThroughZero(
            "dispersion value below safety threshold at a contour node; perturb the rectangle"
        )
    winding = _phase_track(f, z, w, guard) / (2.0 * np.pi)
    if not abs(winding - np.round(winding)) <= 0.25:  # also when an overflow made it nan
        raise NoConvergence(f"winding number did not stabilize (got {winding:.3f})")
    return int(round(winding))


def _newton_refine(disp, k0, multiplicity):
    """Multiplicity-aware Newton iteration on the rescaled dispersion."""
    k = complex(k0)
    m = max(1, multiplicity)
    try:
        for _ in range(MAX_NEWTON_ITER):
            d, dp = disp.at(k)
            if dp == 0:
                raise NoConvergence("vanishing dispersion derivative during Newton refinement")
            step = m * d / dp
            k -= step
            if abs(step) <= NEWTON_TOL * max(1.0, abs(k)):
                for _ in range(2):  # polish to machine accuracy
                    d, dp = disp.at(k)
                    if dp == 0:
                        break
                    k -= m * d / dp
                return k
    except OverflowError:  # an iterate far below the real axis
        pass
    raise NoConvergence(f"Newton refinement failed to converge from {k0}")


def _axis_polish(disp, k):
    """Four real Newton steps on g(y) = Im Dt(iy) for a near-axis root; exact Re k = 0 on success."""
    y = k.imag
    try:
        for _ in range(4):
            g, gp = disp.at(1j * y)
            if gp.real == 0.0:
                return k
            y = y - g.imag / gp.real
        g = disp.at(1j * y)[0]
    except OverflowError:  # a step far below the real axis
        return k
    d, dp = disp.at(k)
    if abs(g.imag) <= abs(d) + 1e-12 * abs(dp) * abs(k.real):
        return complex(0.0, y)
    return k


def two_point_spectrum(B, l, contour=None, relation=PRINTED):
    """Discrete spectrum of the two-point model from dispersion zeros in a contour.

    Zeros of the chosen dispersion relation ("printed", the default, or
    "operator"; see the module docstring) inside the rectangle (with
    Im k > im_min) are located by argument-principle winding counts, isolated
    by subdivision until each cell holds a single zero (or an unsplittable
    multiple zero), and refined by Newton iteration.  Eigenvalues are k^2
    with multiplicity equal to the zero order.  Each one carries its operator
    certificate (Eigenvalue.operator_sv, operator_certified): printed roots
    of a model with delta != 0 are in general not certified.

    Roots below the contour (0 < Im k <= im_min) are not searched; pass a
    smaller im_min to reach them.  Lower-half-plane diagnostics are never
    collected here, so the report's nonphysical tuple stays empty while
    im_min >= DEFAULT_TOL.
    """
    if contour is None:
        contour = default_contour(B, l, relation=relation)
    disp = _ScaledDispersion(B, l, relation)

    total = _winding_rectangle(disp, contour.re_min, contour.re_max, contour.im_min, contour.im_max)
    roots = []
    if total > 0:
        scale = max(abs(contour.re_min), abs(contour.re_max), contour.im_max, 1.0)
        iso_floor = 1e-8 * scale
        stack = [(contour.re_min, contour.re_max, contour.im_min, contour.im_max, total)]
        while stack:
            re0, re1, im0, im1, w = stack.pop()
            if w == 0:
                continue
            center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
            tiny = max(re1 - re0, im1 - im0) < iso_floor
            if w == 1 or tiny:
                k = _newton_refine(disp, center, w)
                pad = 1e-7 * max(re1 - re0, im1 - im0)
                inside = re0 - pad <= k.real <= re1 + pad and im0 - pad <= k.imag <= im1 + pad
                if tiny or inside:
                    roots.append((k, w))
                    continue
                # Newton escaped the cell (zero close to an edge): isolate further
            split_horizontally = (re1 - re0) >= (im1 - im0)
            for frac in (0.5, 0.53, 0.47, 0.61, 0.39):
                try:
                    if split_horizontally:
                        cut = re0 + frac * (re1 - re0)
                        w1 = _winding_rectangle(disp, re0, cut, im0, im1)
                        cells = [(re0, cut, im0, im1, w1), (cut, re1, im0, im1, w - w1)]
                    else:
                        cut = im0 + frac * (im1 - im0)
                        w1 = _winding_rectangle(disp, re0, re1, im0, cut)
                        cells = [(re0, re1, im0, cut, w1), (re0, re1, cut, im1, w - w1)]
                    stack.extend(cells)
                    break
                except ContourThroughZero:
                    continue
            else:
                raise ContourThroughZero("could not find a zero-free subdivision line")

    # deduplicate, keep roots inside the search region, polish axis roots
    margin = 1e-9 * max(1.0, contour.re_max - contour.re_min)
    cleaned = []
    for k, m in roots:
        if not (contour.re_min - margin <= k.real <= contour.re_max + margin):
            continue
        if not (k.imag > contour.im_min * (1 - 1e-9)):
            continue
        if abs(k.real) <= 1e-6 * max(1.0, abs(k)):
            k = _axis_polish(disp, k)
        for i, (kk, mm) in enumerate(cleaned):
            if abs(k - kk) <= 1e-7 * max(1.0, abs(k)):
                cleaned[i] = (kk, max(mm, m))
                break
        else:
            cleaned.append((k, m))
    if sum(m for _, m in cleaned) != total:
        raise NoConvergence(
            f"refined {sum(m for _, m in cleaned)} zeros but the contour winding "
            f"counts {total}; a Newton iterate escaped its cell"
        )
    return _report_from_roots(
        [k for k, _ in cleaned],
        [m for _, m in cleaned],
        kernel_sv=lambda k: two_point_kernel(B, l, k)[0],
    )
