"""Boundary conditions for point interactions and their symmetry classification.

Each model class owns ``classify()``, ``interfaces()``, the ordered tuple of
its interfaces ``(position, Q)``, and ``pt_selfadjoint``, whether it is
PT-invariant.  At x = s the rank-2 2x4 complex matrix Q imposes

    Q (psi(s+), psi'(s+), psi(s-), psi'(s-))^T = 0,

columns in that order.  A connected condition (psi(s+), psi'(s+))^T =
B (psi(s-), psi'(s-))^T with B = [[alpha, beta], [gamma, delta]] has
Q = [I | -B]; separated conditions have one row per side; the condition at
-s of a PT-symmetric pair is pt_boundary_image applied to each row of Q.

A matrix defines a PT-invariant connected condition iff J conj(B) J = B^{-1}
with J = diag(1, -1); equivalently B J conj(B) J = I.  All connected
PT-invariant matrices form the three-parameter-per-phase family

    B = e^{i theta} [[sqrt(1+bc) e^{i phi}, b],
                     [c,                   sqrt(1+bc) e^{-i phi}]],

b >= 0, c >= -1/b, theta, phi in [0, 2pi).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Degenerate, InvalidParams, NotInFamily

TWO_PI = 2.0 * np.pi
# the one predicate tolerance: singularity, family, PT, self-adjointness, and in
# spectra which roots are eigenvalues and which eigenvalues are real
DEFAULT_TOL = 1e-10

J_SIGN = np.diag([1.0, -1.0])
# the largest entry size whose square, the size of det(B) and of its tolerance, is a float
MAX_ENTRY = float(np.sqrt(np.finfo(float).max))

# classification families
TYPE_I = "type_I"
TYPE_II = "type_II"
GENERAL = "general"


def as_matrix(B):
    """Coerce to a 2x2 complex ndarray with finite entries."""
    M = np.asarray(B, dtype=complex)
    if M.shape != (2, 2):
        raise InvalidParams(f"interface matrix must be 2x2, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidParams("interface matrix entries must be finite")
    return M


def finite(**fields):
    """The conditions that each field (a number or an array of them) is finite."""
    for name, value in fields.items():
        yield np.isfinite(value), "{} must be finite, got {}", (name, value)


def require(conditions):
    """Raise InvalidParams on the first (holds, message, args) condition that fails for some element."""
    for holds, message, args in conditions:
        if not np.asarray(holds).all():
            raise InvalidParams(message.format(*args))


def require_length(l):
    """Raise InvalidParams unless the half-distance l of a two-point model is finite and positive."""
    if not (math.isfinite(l) and l > 0):
        raise InvalidParams(f"l must be finite and positive, got {l}")


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


def row_sizes(M):
    """The largest |entry| of each row, shape (..., 2), of a matrix or a (n, 2, 2) stack; each modulus is taken once."""
    A = np.abs(M)
    return np.maximum(A[..., 0], A[..., 1])


def _scale(B):
    """max(1, largest |entry|): a float for one matrix, an array for a (n, 2, 2) stack."""
    scale = np.maximum(1.0, np.abs(B).max(axis=(-2, -1)))
    return float(scale) if np.ndim(scale) == 0 else scale


def zero_coefficient_threshold(rows):
    """Size at or below which a dispersion coefficient counts as zero, for the matrices with row_sizes rows.

    That is 1e-14 max(1, largest |entry|), an array of one size per matrix.
    """
    return 1e-14 * np.maximum(1.0, np.maximum(rows[..., 0], rows[..., 1]))


def theta_mod_pi(theta):
    """Distance from the phase theta in [0, 2pi) to the nearest multiple of pi (elementwise)."""
    r = np.mod(theta, np.pi)
    return np.minimum(r, np.pi - r)


def _det(M):
    """det(M) = alpha delta - beta gamma written out with _cmul, for a matrix or each matrix of a stack."""
    return _cmul(M[..., 0, 0], M[..., 1, 1]) - _cmul(M[..., 0, 1], M[..., 1, 0])


@np.errstate(all="ignore")  # a non-finite entry, or a det past float max, decides by comparison
def singular(M, rows=None):
    """True where det(M) ~ 0, for a matrix or each matrix of a (n, 2, 2) stack; rows is row_sizes(M).

    det(M) ~ 0 when |det M| <= DEFAULT_TOL times the product of the largest
    modulus in each row, a test that scaling a row does not change.  That
    product is at most max(1, max |M_ij|)^2, so every matrix that passes a
    test against that square passes this one.  det M is written out,
    alpha delta - beta gamma, so a stack is tested elementwise, and scaling
    a row by a power of two changes no bit of the test short of underflow.
    A matrix with an entry above MAX_ENTRY counts as singular, as
    require_nondegenerate rejects it, and so does every matrix with a
    non-finite entry.
    """
    if rows is None:
        rows = row_sizes(M)
    r0, r1 = rows[..., 0], rows[..., 1]
    small = ~(_abs(_det(M)) > DEFAULT_TOL * (r0 * r1))
    return small | (np.maximum(r0, r1) > MAX_ENTRY)


def require_bounded(B):
    """Return B as an ndarray, raising InvalidParams unless its entries are finite and at most MAX_ENTRY."""
    M = as_matrix(B)
    if _scale(M) > MAX_ENTRY:
        raise InvalidParams(f"interface matrix entries must not exceed {MAX_ENTRY:.4g} in modulus")
    return M


def require_nondegenerate(B):
    """Return B as an ndarray, raising InvalidParams if an entry exceeds MAX_ENTRY and Degenerate if det(B) ~ 0."""
    M = require_bounded(B)
    if singular(M):
        raise Degenerate(f"interface matrix is singular (det = {np.linalg.det(M):.3e})")
    return M


def _store(obj, **fields):
    """Set the fields of a frozen parameter object: floats, or arrays for a stack."""
    for name, value in fields.items():
        object.__setattr__(obj, name, float(value) if np.ndim(value) == 0 else value)


@dataclass(frozen=True)
class TypeIParams:
    """Connected-condition parameters (theta, phi, b, c); b >= 0, c >= -1/b when b > 0.

    Fields may be arrays, broadcast against each other: the object then
    holds a stack of models, every one of which must be valid.  conditions
    gives the validity conditions in checking order (see require).
    """

    theta: float
    phi: float
    b: float
    c: float

    @staticmethod
    def conditions(theta, phi, b, c):
        yield from finite(theta=theta, phi=phi, b=b, c=c)
        yield b >= 0, "b must be non-negative, got {}", (b,)
        s = 1.0 + b * c
        yield s >= 0, "1 + b*c = {} < 0 (need c >= -1/b)", (s,)

    def __post_init__(self):
        require(self.conditions(**vars(self)))
        _store(self, theta=np.mod(self.theta, TWO_PI), phi=np.mod(self.phi, TWO_PI))


@dataclass(frozen=True)
class TypeIIParams:
    """Separated-condition parameters: phase theta and projective pair (h0, h1).

    Conditions at the origin (corrected second line, see classify notes):

        h0 psi'(+0) =  h1 e^{+i theta} psi(+0)
        h0 psi'(-0) = -h1 e^{-i theta} psi(-0)

    Stored canonically with h0^2 + h1^2 = 1 and h0 > 0 (h1 > 0 when h0 = 0).
    Fields may be arrays, as for TypeIParams.
    """

    theta: float
    h0: float
    h1: float

    @staticmethod
    def conditions(theta, h0, h1):
        yield from finite(theta=theta, h0=h0, h1=h1)
        yield np.hypot(h0, h1) != 0, "(h0, h1) must not be (0, 0)", ()

    def __post_init__(self):
        require(self.conditions(**vars(self)))
        n = np.hypot(self.h0, self.h1)
        # a pair normalized once stays as it is: hypot of it may be 1 +- eps
        n = np.where(abs(n - 1.0) <= 2 * np.finfo(float).eps, 1.0, n)
        h0, h1 = self.h0 / n, self.h1 / n
        flip = (h0 < 0) | ((h0 == 0) & (h1 < 0))
        _store(self, theta=np.mod(self.theta, TWO_PI), h0=np.where(flip, -h0, h0), h1=np.where(flip, -h1, h1))


def matrix_from_type_I(p):
    """Build the connected interface matrix for TypeIParams p; a (n, 2, 2) stack when p holds n models."""
    root = np.sqrt(1.0 + p.b * p.c)
    M = np.empty(np.broadcast(p.theta, p.phi, p.b, p.c).shape + (2, 2), dtype=complex)
    M[..., 0, 0] = root * np.exp(1j * p.phi)
    M[..., 0, 1] = p.b
    M[..., 1, 0] = p.c
    M[..., 1, 1] = root * np.exp(-1j * p.phi)
    return np.exp(1j * np.asarray(p.theta))[..., None, None] * M


def delta_pair_matrix(u, v, variant="default"):
    """Interface matrix of the delta-pair model at +l.

    variant="default" returns [[1, 0], [1, u+iv]] (the native entry
    assignment of this model, coupling in the lower-right entry);
    variant="textbook" returns [[1, 0], [u+iv, 1]] (value continuity with a
    derivative jump proportional to the value).  The two are different
    operators and are never substituted for each other.
    """
    if variant == "default":
        return np.array([[1.0, 0.0], [1.0, u + 1j * v]], dtype=complex)
    if variant == "textbook":
        return np.array([[1.0, 0.0], [u + 1j * v, 1.0]], dtype=complex)
    raise InvalidParams(f"unknown delta-pair variant {variant!r}")


def type_I_from_matrix(B):
    """Extract TypeIParams from a connected interface matrix.

    The canonical branch takes theta = arg(det B)/2 in [0, pi); when that
    branch yields b < 0 the pi-shifted representative (theta+pi, phi+pi,
    -b, -c) is returned instead, recognizable by theta >= pi.  For b = c = 0
    the phases are only determined up to a simultaneous pi shift.

    Raises NotInFamily when |det B| != 1, when the phase-stripped off-diagonal
    entries are not real, or when the diagonal does not match sqrt(1+bc) e^{+-i phi}.
    """
    M = require_nondegenerate(B)
    det = np.linalg.det(M)
    scale = _scale(M)
    if abs(abs(det) - 1.0) > DEFAULT_TOL * scale**2:
        raise NotInFamily(f"|det B| = {abs(det):.6g} != 1")
    theta = (np.angle(det) % TWO_PI) / 2.0  # in [0, pi)
    Bp = np.exp(-1j * theta) * M
    b, c = Bp[0, 1], Bp[1, 0]
    if abs(b.imag) > DEFAULT_TOL * scale or abs(c.imag) > DEFAULT_TOL * scale:
        raise NotInFamily("phase-stripped off-diagonal entries are not real")
    b, c = b.real, c.real
    if b < -DEFAULT_TOL * scale:
        theta += np.pi
        Bp = -Bp
        b, c = -b, -c
    b = max(b, 0.0)
    root = np.sqrt(max(1.0 + b * c, 0.0))
    alpha, delta = Bp[0, 0], Bp[1, 1]
    if abs(abs(alpha) - root) > DEFAULT_TOL * scale or abs(delta - np.conj(alpha)) > DEFAULT_TOL * scale:
        raise NotInFamily("diagonal does not match sqrt(1+bc) e^{+-i phi}")
    phi = float(np.angle(alpha)) % TWO_PI if root > DEFAULT_TOL else 0.0
    params = TypeIParams(theta=theta, phi=phi, b=b, c=c)
    back = matrix_from_type_I(params)
    if np.max(np.abs(back - M)) > DEFAULT_TOL * scale:
        raise NotInFamily("extracted parameters do not regenerate the matrix")
    return params


def pt_mirror(B):
    """Matrix of the space-reflected, conjugated condition: J conj(B) J."""
    M = as_matrix(B)
    return J_SIGN @ np.conj(M) @ J_SIGN


def is_pt_connected(B):
    """True iff the connected condition B is PT-invariant: B J conj(B) J = I."""
    M = require_nondegenerate(B)
    resid = M @ pt_mirror(M) - np.eye(2)
    return bool(np.max(np.abs(resid)) <= DEFAULT_TOL * max(1.0, _scale(M) ** 2))


def is_selfadjoint_connected(B):
    """True iff B = e^{i theta} R with R real and det R = 1 (self-adjoint condition)."""
    M = require_nondegenerate(B)
    det = np.linalg.det(M)
    scale = _scale(M)
    if abs(abs(det) - 1.0) > DEFAULT_TOL * scale**2:
        return False
    theta = np.angle(det) / 2.0
    R = np.exp(-1j * theta) * M
    return bool(np.max(np.abs(R.imag)) <= DEFAULT_TOL * scale)


def pt_boundary_image(v):
    """Apply the boundary-value reflection-conjugation map to (psi+, psi'+, psi-, psi'-).

    Involution: (a, b, c, d) -> (conj c, -conj d, conj a, -conj b).
    """
    w = np.asarray(v, dtype=complex)
    if w.shape != (4,):
        raise InvalidParams(f"boundary vector must have shape (4,), got {w.shape}")
    cw = np.conj(w)
    return np.array([cw[2], -cw[3], cw[0], -cw[1]])


def connected_condition(B):
    """2x4 condition matrix [I | -B] of the connected condition v(s+) = B v(s-)."""
    return np.hstack([np.eye(2), -as_matrix(B)])


def two_point_interfaces(B, l):
    """Interfaces of the PT-symmetric pair: B at +l, the PT image of its rows at -l."""
    require_length(l)
    Q = connected_condition(B)
    return ((-l, np.array([pt_boundary_image(row) for row in Q])), (l, Q))


@dataclass(frozen=True)
class ConnectedOrigin:
    """Connected interface at the origin with matrix B."""

    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", require_nondegenerate(self.B))

    @property
    def pt_selfadjoint(self):
        return is_pt_connected(self.B)

    def interfaces(self):
        return ((0.0, connected_condition(self.B)),)

    def classify(self):
        sa, family, params, notes = _classify_connected_matrix(self.B)
        return ClassificationReport(self.pt_selfadjoint, sa, family, params, "; ".join(notes))


@dataclass(frozen=True)
class SeparatedOrigin:
    """Separated (decoupled half-line) conditions at the origin."""

    params: TypeIIParams
    pt_selfadjoint = True  # for every theta

    def interfaces(self):
        p = self.params
        e = p.h1 * np.exp(1j * p.theta)  # h0 psi'(0+) = e psi(0+), h0 psi'(0-) = -conj(e) psi(0-)
        return ((0.0, np.array([[-e, p.h0, 0, 0], [0, 0, np.conj(e), p.h0]], dtype=complex)),)

    def classify(self):
        p = self.params
        sa = theta_mod_pi(p.theta) <= DEFAULT_TOL or p.h0 <= DEFAULT_TOL or abs(p.h1) <= DEFAULT_TOL
        notes = "separated conditions are PT-invariant for every theta"
        return ClassificationReport(self.pt_selfadjoint, bool(sa), TYPE_II, p, notes)


class PTPair:
    """A connected condition B at x = +l and its reflected-conjugated mirror at -l; subclasses give B and l."""

    pt_selfadjoint = True  # for every B

    def interfaces(self):
        return two_point_interfaces(self.B, self.l)

    def classify(self):
        try:
            sa, family, params, notes = _classify_connected_matrix(self.B)
        except Degenerate:
            notes = "interface matrix is degenerate; connected-origin predicates unavailable"
            return ClassificationReport(self.pt_selfadjoint, False, GENERAL, None, notes)
        notes.append("condition at -l is the reflected conjugate of B (never stored)")
        return ClassificationReport(self.pt_selfadjoint, sa, family, params, "; ".join(notes))


@dataclass(frozen=True)
class TwoPoint(PTPair):
    """Connected condition B at x = +l, with its reflected-conjugated mirror at x = -l."""

    l: float
    B: np.ndarray

    def __post_init__(self):
        require_length(self.l)
        object.__setattr__(self, "B", require_nondegenerate(self.B))


@dataclass(frozen=True)
class DeltaPair(PTPair):
    """The delta pair at x = +-l in its native entry assignment: interface matrix [[1, 0], [1, u+iv]] at +l.

    The point couplings u +- iv are another operator: TwoPoint(l, delta_pair_matrix(u, v, "textbook")),
    the model-file type textbook_delta_pair.
    """

    u: float
    v: float
    l: float

    def __post_init__(self):
        require(finite(**vars(self)))
        require_length(self.l)

    @property
    def B(self):
        """The interface matrix at +l; singular when u = v = 0, where [I | -B] still has rank 2."""
        return delta_pair_matrix(self.u, self.v)


@dataclass(frozen=True)
class ClassificationReport:
    pt_selfadjoint: bool
    selfadjoint: bool
    family: str
    extracted_params: Optional[object] = None
    notes: str = ""


def _classify_connected_matrix(B):
    sa = is_selfadjoint_connected(B)
    notes = []
    params = None
    family = GENERAL
    try:
        params = type_I_from_matrix(B)
        family = TYPE_I
        if params.theta >= np.pi:
            notes.append("theta uses the pi-shifted representative (theta in [pi, 2pi))")
        if params.b <= DEFAULT_TOL and abs(params.c) <= DEFAULT_TOL:
            notes.append("b = c = 0: phases determined only up to a simultaneous pi shift")
    except (NotInFamily, Degenerate):
        pass
    return sa, family, params, notes


def classify(spec):
    """Classify an interaction: PT-invariance, self-adjointness, parameter family."""
    return spec.classify()
