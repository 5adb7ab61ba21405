"""Dispersion relations and discrete spectra for point-interaction models.

Wave numbers k and energies lambda = k^2.  Only roots on the physical sheet
Im k > 0 produce square-integrable eigenfunctions; roots with Im k <= 0 are
reported separately as diagnostics.

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
phase tracking on all rectangle edges at once), isolated by subdivision, and
refined by Newton iteration on an overflow-free rescaling of D.  Every
two-point root is then certified against the interface system itself
(states.two_point_kernel), independently of either relation's coefficients.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boundary import DEFAULT_TOL, as_matrix, delta_pair_matrix, require_nondegenerate  # noqa: F401 (re-exported)
from .boundary import require_finite, require_length, theta_mod_pi, zero_coefficient_threshold
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

# |Im lambda| below this (relative) threshold counts as a real eigenvalue
REALNESS_TOL = 1e-10

# two-point dispersion relations: as printed by the source, and as the
# determinant of the interface system
PRINTED = "printed"
OPERATOR = "operator"
RELATIONS = (PRINTED, OPERATOR)

# starting nodes on each side of a winding-count rectangle; _phase_track
# bisects between them wherever the dispersion values need it
NODES_PER_SIDE = 64

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
class ContourSpec:
    """Rectangular search region for two-point dispersion zeros (im_min > 0)."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        require_finite(**vars(self))
        if not (self.im_min > 0):
            raise InvalidParams("im_min must be positive (contour stays off the real axis)")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise InvalidParams("contour rectangle is empty")


def _sort_roots(roots):
    return sorted(roots, key=lambda z: (z.real, z.imag))


def _is_real_lambda(lam):
    return abs(lam.imag) <= REALNESS_TOL * max(1.0, abs(lam))


def _report_from_roots(roots, multiplicities=None, kernel_sv=None):
    """Build a SpectrumReport from dispersion roots (default multiplicity 1 each).

    kernel_sv, when given, maps a root k to its operator certificate value.
    """
    if multiplicities is None:
        multiplicities = [1] * len(roots)
    eigs, nonphys = [], []
    for k, m in zip(roots, multiplicities):
        if k.imag > 0:
            lam = k * k
            kind = NEGATIVE_REAL if _is_real_lambda(lam) else CONJUGATE_PAIR_MEMBER
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


def dispersion_roots_general(B):
    """Roots of k^2 beta + i k (alpha + delta) - gamma = 0 for a connected matrix.

    The coefficient triple is normalized by a common phase before solving, so
    matrices differing only by a global phase produce (numerically) identical
    roots; the spectrum never depends on that phase.
    """
    M = require_nondegenerate(B)
    beta = M[0, 1]
    tau = M[0, 0] + M[1, 1]
    gamma = M[1, 0]
    scale = zero_coefficient_threshold(M)
    if abs(beta) <= scale and abs(tau) <= scale and abs(gamma) <= scale:
        raise DegenerateIdenticallyZero("dispersion vanishes identically")
    pivot = max((beta, tau, gamma), key=abs)
    phase = pivot / abs(pivot)
    beta, tau, gamma = beta / phase, tau / phase, gamma / phase
    if abs(beta) <= scale:
        if abs(tau) <= scale:
            return []
        return [gamma / (1j * tau)]
    disc = np.sqrt(-(tau * tau) + 4.0 * gamma * beta + 0j)
    return _sort_roots([(-1j * tau + disc) / (2.0 * beta), (-1j * tau - disc) / (2.0 * beta)])


def discrete_spectrum_origin_connected(B):
    """Discrete spectrum of a connected-origin model from its dispersion roots.

    Coincident upper-half roots collapse to a single eigenvalue of
    multiplicity 1 (connected conditions admit only one decaying solution).
    """
    roots = dispersion_roots_general(B)
    if len(roots) == 2:
        scale = max(1.0, abs(roots[0]), abs(roots[1]))
        if abs(roots[0] - roots[1]) <= 1e-12 * scale:
            roots = [roots[0]]
    return _report_from_roots(roots)


def discrete_spectrum_separated(p):
    """Discrete spectrum of a separated-origin model.

    Each half-line contributes the candidate wave number

        k(+) = -i (h1/h0) e^{+i theta}   (right),
        k(-) = -i (h1/h0) e^{-i theta}   (left),

    an eigenvalue when Im k > 0.  When both candidates coincide (theta = 0
    mod pi) the common negative eigenvalue has multiplicity 2.
    """
    if p.h0 == 0.0:
        return _report_from_roots([])
    ratio = p.h1 / p.h0
    kp = -1j * ratio * np.exp(1j * p.theta)
    km = -1j * ratio * np.exp(-1j * p.theta)
    if theta_mod_pi(p.theta) <= 1e-14:
        sign = -1.0 if abs(p.theta - np.pi) < np.pi / 2 else 1.0  # e^{i theta} = +-1 exactly
        k = complex(0.0, -ratio * sign)
        return _report_from_roots([k], multiplicities=[2])
    return _report_from_roots([complex(kp), complex(km)])


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


def real_spectrum_classify_general(B, tol=DEFAULT_TOL):
    """Classify the spectrum reality of a general connected matrix.

    Returns REAL_ALL_ROOTS_LOWER_HALF when every dispersion root has
    Im k <= tol (pure absolutely continuous spectrum), otherwise
    REAL_PURE_IMAGINARY_ROOTS when (alpha+delta)/beta and gamma/beta are real
    with 4 gamma/beta <= (alpha+delta)^2/beta^2 (roots on the imaginary
    axis), otherwise COMPLEX_SPECTRUM.  Always consistent with the computed
    roots.
    """
    M = require_nondegenerate(B, tol)
    roots = dispersion_roots_general(M)
    if all(k.imag <= tol for k in roots):
        return REAL_ALL_ROOTS_LOWER_HALF
    beta = M[0, 1]
    tau = M[0, 0] + M[1, 1]
    gamma = M[1, 0]
    zero_thresh = zero_coefficient_threshold(M)
    if abs(beta) > zero_thresh:
        w1 = tau / beta
        w2 = gamma / beta
        pure_imag = (
            abs(w1.imag) <= tol * max(1.0, abs(w1))
            and abs(w2.imag) <= tol * max(1.0, abs(w2))
            and 4.0 * w2.real <= w1.real**2 + tol * max(1.0, w1.real**2, abs(4 * w2.real))
        )
    else:
        k = roots[0]
        pure_imag = abs(k.real) <= tol * max(1.0, abs(k))
    if pure_imag:
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

    Same zeros as D in the open upper half-plane.  Below the real axis q
    overflows; mirrored=True evaluates e^{-4ikl} Dt with q' = e^{-4ikl} instead.
    """

    def __init__(self, B, l, relation=PRINTED):
        require_length(l)
        self.l = float(l)
        self.p1, self.p2 = _bracket_coeffs(as_matrix(B), relation)
        self.dp1 = np.polyder(self.p1)
        self.dp2 = np.polyder(self.p2)

    def __call__(self, k, mirrored=False):
        k = np.asarray(k, dtype=complex)
        s = -1 if mirrored else 1
        q = np.exp(s * 4j * k * self.l)
        P1 = np.polyval(self.p1, k)
        P2 = np.polyval(self.p2, k)
        return -s * 0.5j * (q - 1.0) * P1 + 0.5 * k * (1.0 + q) * P2

    def derivative(self, k):
        k = np.asarray(k, dtype=complex)
        q = np.exp(4j * k * self.l)
        P1 = np.polyval(self.p1, k)
        P2 = np.polyval(self.p2, k)
        dP1 = np.polyval(self.dp1, k)
        dP2 = np.polyval(self.dp2, k)
        return (
            2.0 * self.l * q * P1
            - 0.5j * (q - 1.0) * dP1
            + 0.5 * (1.0 + q) * P2
            + 2j * self.l * k * q * P2
            + 0.5 * k * (1.0 + q) * dP2
        )

    def identically_zero(self):
        return np.all(self.p1 == 0) and np.all(self.p2 == 0)


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
    p1, p2 = _bracket_coeffs(as_matrix(B), relation)
    ratios = []
    for poly in (p1, p2):
        mags = np.abs(poly)
        nz = np.nonzero(mags > 1e-300)[0]
        if len(nz):
            lead = mags[nz[0]]
            ratios.append(np.max(mags[nz[0]:]) / lead)
    if not ratios:
        raise DegenerateIdenticallyZero("two-point dispersion vanishes identically")
    K = 2.0 * (1.0 + max(ratios))
    return ContourSpec(-K, K, 1e-6, K)


def _phase_track(f, z, w, guard):
    """Total change of arg f around the closed polygon z (w = f(z)), all edges in one array pass.

    Splits any segment whose endpoint phase difference exceeds pi/2 or whose
    modulus ratio exceeds 8; each keeps the floor of its edge.  Raises
    ContourThroughZero when |f| falls under ``guard`` at a node or a segment
    cannot be resolved.
    """
    seg_a, seg_b = z, np.roll(z, -1)
    val_a, val_b = w, np.roll(w, -1)
    floor = 1e-13 * np.maximum(np.abs(seg_b - seg_a), 1.0)
    total = 0.0
    for _ in range(80):
        dphi = np.angle(val_b * np.conj(val_a))
        ratio = np.abs(val_b) / np.abs(val_a)
        bad = (np.abs(dphi) > np.pi / 2) | (ratio > 8.0) | (ratio < 0.125)
        total += float(np.sum(dphi[~bad]))
        if not np.any(bad):
            return total
        seg_a, seg_b, floor = seg_a[bad], seg_b[bad], floor[bad]
        val_a, val_b = val_a[bad], val_b[bad]
        if np.any(np.abs(seg_b - seg_a) < floor):
            raise ContourThroughZero("dispersion zero on or near the contour; perturb the rectangle")
        mid = 0.5 * (seg_a + seg_b)
        val_m = f(mid)
        if np.any(np.abs(val_m) <= guard):
            raise ContourThroughZero(
                "dispersion value below safety threshold on the contour; perturb the rectangle"
            )
        seg_a = np.concatenate([seg_a, mid])
        seg_b = np.concatenate([mid, seg_b])
        floor = np.concatenate([floor, floor])
        val_a = np.concatenate([val_a, val_m])
        val_b = np.concatenate([val_m, val_b])
        if len(seg_a) > 400_000:  # live segments over the whole contour
            raise NoConvergence("phase tracking exceeded the segment budget")
    raise NoConvergence("phase tracking did not resolve the contour")


def _winding_rectangle(f, re_min, re_max, im_min, im_max):
    """Number of zeros of f inside the rectangle, by the argument principle."""
    corners = np.array(
        [complex(re_min, im_min), complex(re_max, im_min), complex(re_max, im_max), complex(re_min, im_max)]
    )
    t = np.arange(NODES_PER_SIDE) / NODES_PER_SIDE
    z = (corners[:, None] + (np.roll(corners, -1) - corners)[:, None] * t).ravel()
    w = f(z)
    guard = 1e-14 * float(np.max(np.abs(w)))
    if np.any(np.abs(w) <= guard):
        raise ContourThroughZero(
            "dispersion value below safety threshold at a contour node; perturb the rectangle"
        )
    winding = _phase_track(f, z, w, guard) / (2.0 * np.pi)
    if abs(winding - round(winding)) > 0.25:
        raise NoConvergence(f"winding number did not stabilize (got {winding:.3f})")
    return int(round(winding))


def _newton_refine(disp, k0, multiplicity):
    """Multiplicity-aware Newton iteration on the rescaled dispersion."""
    k = complex(k0)
    m = max(1, multiplicity)
    for it in range(MAX_NEWTON_ITER):
        d = complex(disp(k))
        dp = complex(disp.derivative(k))
        if dp == 0:
            raise NoConvergence("vanishing dispersion derivative during Newton refinement")
        step = m * d / dp
        k -= step
        if abs(step) <= NEWTON_TOL * max(1.0, abs(k)):
            for _ in range(2):  # polish to machine accuracy
                dp = complex(disp.derivative(k))
                if dp == 0:
                    break
                k -= m * complex(disp(k)) / dp
            return k
    raise NoConvergence(f"Newton refinement failed to converge from {k0}")


def _axis_polish(disp, k, steps=4):
    """Real Newton on g(y) = Im Dt(iy) for near-axis roots; exact Re k = 0 on success."""
    y = k.imag
    for _ in range(steps):
        g = float(np.imag(disp(1j * y)))
        gp = float(np.real(disp.derivative(1j * y)))
        if gp == 0.0:
            return k
        y = y - g / gp
    if abs(np.imag(disp(1j * y))) <= abs(disp(k)) + 1e-12 * abs(disp.derivative(k)) * abs(k.real):
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
    collected here, so the report's nonphysical tuple stays empty.
    """
    if contour is None:
        contour = default_contour(B, l, relation=relation)
    disp = _ScaledDispersion(B, l, relation)
    if disp.identically_zero():
        raise DegenerateIdenticallyZero("two-point dispersion vanishes identically")

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
