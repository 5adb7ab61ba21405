"""Boundary conditions for point interactions and their symmetry classification.

A model is an ordered tuple of interfaces ``(position, Q)``, from its
``interfaces()`` method.  At x = s the rank-2 2x4 complex matrix Q imposes

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
from typing import Optional, Union

import numpy as np

from .errors import Degenerate, InvalidParams, NotInFamily, RankDeficient

TWO_PI = 2.0 * np.pi
DEFAULT_TOL = 1e-10

J_SIGN = np.diag([1.0, -1.0])

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


def _require_finite(**fields):
    """Raise InvalidParams naming the first non-finite field."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise InvalidParams(f"{name} must be finite, got {value}")


def _scale(B):
    return max(1.0, float(np.max(np.abs(B))))


def require_nondegenerate(B, tol=DEFAULT_TOL):
    """Return B as an ndarray, raising Degenerate if det(B) ~ 0."""
    M = as_matrix(B)
    if abs(np.linalg.det(M)) <= tol * _scale(M) ** 2:
        raise Degenerate(f"interface matrix is singular (det = {np.linalg.det(M):.3e})")
    return M


@dataclass(frozen=True)
class TypeIParams:
    """Connected-condition parameters (theta, phi, b, c); b >= 0, c >= -1/b when b > 0."""

    theta: float
    phi: float
    b: float
    c: float

    def __post_init__(self):
        _require_finite(**vars(self))
        if self.b < 0:
            raise InvalidParams(f"b must be non-negative, got {self.b}")
        if 1.0 + self.b * self.c < 0:
            raise InvalidParams(f"1 + b*c = {1.0 + self.b * self.c} < 0 (need c >= -1/b)")
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)


@dataclass(frozen=True)
class TypeIIParams:
    """Separated-condition parameters: phase theta and projective pair (h0, h1).

    Conditions at the origin (corrected second line, see classify notes):

        h0 psi'(+0) =  h1 e^{+i theta} psi(+0)
        h0 psi'(-0) = -h1 e^{-i theta} psi(-0)

    Stored canonically with h0^2 + h1^2 = 1 and h0 > 0 (h1 > 0 when h0 = 0).
    """

    theta: float
    h0: float
    h1: float

    def __post_init__(self):
        _require_finite(**vars(self))
        n = float(np.hypot(self.h0, self.h1))
        if n == 0.0:
            raise InvalidParams("(h0, h1) must not be (0, 0)")
        h0, h1 = self.h0 / n, self.h1 / n
        if h0 < 0 or (h0 == 0 and h1 < 0):
            h0, h1 = -h0, -h1
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)


@dataclass(frozen=True)
class FormCDParams:
    """Anti-diagonal-symmetric family (values-vs-derivatives conditions): a, b >= 0 and two phases."""

    a: float
    b: float
    theta: float
    phi: float

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise InvalidParams("a and b must be non-negative")
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)


def matrix_from_type_I(p):
    """Build the connected interface matrix for TypeIParams p."""
    root = np.sqrt(1.0 + p.b * p.c)
    return np.exp(1j * p.theta) * np.array(
        [[root * np.exp(1j * p.phi), p.b], [p.c, root * np.exp(-1j * p.phi)]],
        dtype=complex,
    )


def matrix_from_form_cd(p):
    """Build the anti-diagonal-symmetric matrix for FormCDParams p."""
    return np.array(
        [
            [p.a * np.exp(1j * p.theta), p.b * np.exp(1j * p.phi)],
            [-p.b * np.exp(-1j * p.phi), -p.a * np.exp(-1j * p.theta)],
        ],
        dtype=complex,
    )


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


def type_I_from_matrix(B, tol=DEFAULT_TOL):
    """Extract TypeIParams from a connected interface matrix.

    The canonical branch takes theta = arg(det B)/2 in [0, pi); when that
    branch yields b < 0 the pi-shifted representative (theta+pi, phi+pi,
    -b, -c) is returned instead, recognizable by theta >= pi.  For b = c = 0
    the phases are only determined up to a simultaneous pi shift.

    Raises NotInFamily when |det B| != 1, when the phase-stripped off-diagonal
    entries are not real, or when the diagonal does not match sqrt(1+bc) e^{+-i phi}.
    """
    M = require_nondegenerate(B, tol)
    det = np.linalg.det(M)
    scale = _scale(M)
    if abs(abs(det) - 1.0) > tol * scale**2:
        raise NotInFamily(f"|det B| = {abs(det):.6g} != 1")
    theta = (np.angle(det) % TWO_PI) / 2.0  # in [0, pi)
    Bp = np.exp(-1j * theta) * M
    b, c = Bp[0, 1], Bp[1, 0]
    if abs(b.imag) > tol * scale or abs(c.imag) > tol * scale:
        raise NotInFamily("phase-stripped off-diagonal entries are not real")
    b, c = b.real, c.real
    if b < -tol * scale:
        theta += np.pi
        Bp = -Bp
        b, c = -b, -c
    b = max(b, 0.0)
    root = np.sqrt(max(1.0 + b * c, 0.0))
    alpha, delta = Bp[0, 0], Bp[1, 1]
    if abs(abs(alpha) - root) > tol * scale or abs(delta - np.conj(alpha)) > tol * scale:
        raise NotInFamily("diagonal does not match sqrt(1+bc) e^{+-i phi}")
    phi = float(np.angle(alpha)) % TWO_PI if root > tol else 0.0
    params = TypeIParams(theta=theta, phi=phi, b=b, c=c)
    back = matrix_from_type_I(params)
    if np.max(np.abs(back - M)) > max(tol, 1e-12) * scale:
        raise NotInFamily("extracted parameters do not regenerate the matrix")
    return params


def pt_mirror(B):
    """Matrix of the space-reflected, conjugated condition: J conj(B) J."""
    M = as_matrix(B)
    return J_SIGN @ np.conj(M) @ J_SIGN


def is_pt_connected(B, tol=DEFAULT_TOL):
    """True iff the connected condition B is PT-invariant: B J conj(B) J = I."""
    M = require_nondegenerate(B, tol)
    resid = M @ pt_mirror(M) - np.eye(2)
    return bool(np.max(np.abs(resid)) <= tol * max(1.0, _scale(M) ** 2))


def is_selfadjoint_connected(B, tol=DEFAULT_TOL):
    """True iff B = e^{i theta} R with R real and det R = 1 (self-adjoint condition)."""
    M = require_nondegenerate(B, tol)
    det = np.linalg.det(M)
    scale = _scale(M)
    if abs(abs(det) - 1.0) > tol * scale**2:
        return False
    theta = np.angle(det) / 2.0
    R = np.exp(-1j * theta) * M
    return bool(np.max(np.abs(R.imag)) <= tol * scale)


def is_pt_antidiagonal_form(B, tol=DEFAULT_TOL):
    """PT condition for values-vs-derivatives conditions: alpha = -conj(delta), beta = -conj(gamma).

    Degenerate matrices are allowed here (Dirichlet/Neumann-type conditions live
    in this family).
    """
    M = as_matrix(B)
    scale = _scale(M)
    return bool(
        abs(M[0, 0] + np.conj(M[1, 1])) <= tol * scale
        and abs(M[0, 1] + np.conj(M[1, 0])) <= tol * scale
    )


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
    Q = connected_condition(B)
    return ((-l, np.array([pt_boundary_image(row) for row in Q])), (l, Q))


# Six ways of solving a rank-2 condition pair for two of the four boundary
# values, ordered by the column-pair whose minor is used.  Boundary vector
# components are indexed (psi+, psi'+, psi-, psi'-).
_Q_CASES = (
    (1, (0, 1), (2, 3)),  # (psi+, psi'+)  = B (psi-, psi'-)
    (2, (0, 2), (1, 3)),  # (psi+, psi-)   = B (psi'+, psi'-)
    (3, (0, 3), (2, 1)),  # (psi+, psi'-)  = B (psi-, psi'+)
    (4, (2, 1), (0, 3)),  # (psi-, psi'+)  = B (psi+, psi'-)
    (5, (1, 3), (0, 2)),  # (psi'+, psi'-) = B (psi+, psi-)
    (6, (2, 3), (0, 1)),  # (psi-, psi'-)  = B (psi+, psi'+)
)


def canonicalize_Q(Q, tol=DEFAULT_TOL):
    """Reduce a rank-2 2x4 condition matrix to a solved-out 2x2 form.

    Returns (case_id, B) where case_id in 1..6 selects which pair of boundary
    values is expressed through the complementary pair (see _Q_CASES), and B
    is the solved matrix: a boundary vector lies in ker Q iff it satisfies the
    returned case's conditions.  The smallest case id whose minor is
    well-conditioned wins; the selection threshold is at least 1e-4 relative
    to the largest minor so the solve stays accurate (near-singular minors
    would otherwise contaminate the kernel at the 1e-8 level).
    """
    M = np.asarray(Q, dtype=complex)
    if M.shape != (2, 4):
        raise InvalidParams(f"condition matrix must be 2x4, got {M.shape}")
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[1] <= tol * max(sv[0], 1e-300):
        raise RankDeficient("condition matrix does not have rank 2")
    minors = {case: np.linalg.det(M[:, list(lhs)]) for case, lhs, _ in _Q_CASES}
    largest = max(abs(d) for d in minors.values())
    select = max(tol, 1e-4)
    for case, lhs, rhs in _Q_CASES:
        if abs(minors[case]) > select * largest:
            B = -np.linalg.solve(M[:, list(lhs)], M[:, list(rhs)])
            return case, B
    raise RankDeficient("all 2x2 minors are below the selection threshold")


def q_matrix_from_case(case_id, B):
    """Rebuild a 2x4 condition matrix from a solved-out (case_id, B) pair."""
    for case, lhs, rhs in _Q_CASES:
        if case == case_id:
            Q = np.zeros((2, 4), dtype=complex)
            M = as_matrix(B)
            for row in range(2):
                Q[row, lhs[row]] = 1.0
                Q[row, rhs[0]] -= M[row, 0]
                Q[row, rhs[1]] -= M[row, 1]
            return Q
    raise InvalidParams(f"case_id must be 1..6, got {case_id}")


@dataclass(frozen=True)
class ConnectedOrigin:
    """Connected interface at the origin with matrix B."""

    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", require_nondegenerate(self.B))

    def interfaces(self):
        return ((0.0, connected_condition(self.B)),)


@dataclass(frozen=True)
class SeparatedOrigin:
    """Separated (decoupled half-line) conditions at the origin."""

    params: TypeIIParams

    def interfaces(self):
        p = self.params
        e = p.h1 * np.exp(1j * p.theta)  # h0 psi'(0+) = e psi(0+), h0 psi'(0-) = -conj(e) psi(0-)
        return ((0.0, np.array([[-e, p.h0, 0, 0], [0, 0, np.conj(e), p.h0]], dtype=complex)),)


@dataclass(frozen=True)
class TwoPoint:
    """Connected condition B at x = +l, with its reflected-conjugated mirror at x = -l."""

    l: float
    B: np.ndarray

    def __post_init__(self):
        _require_finite(l=self.l)
        if not self.l > 0:
            raise InvalidParams(f"l must be positive, got {self.l}")
        object.__setattr__(self, "B", require_nondegenerate(self.B))

    def interfaces(self):
        return two_point_interfaces(self.B, self.l)


@dataclass(frozen=True)
class DeltaPair:
    """Point couplings u+iv at x = +l and u-iv at x = -l (interface matrix [[1,0],[1,u+iv]])."""

    u: float
    v: float
    l: float

    def __post_init__(self):
        _require_finite(**vars(self))
        if not self.l > 0:
            raise InvalidParams(f"l must be positive, got {self.l}")

    @property
    def B(self):
        """The interface matrix at +l; singular when u = v = 0."""
        return delta_pair_matrix(self.u, self.v)

    def interfaces(self):
        return two_point_interfaces(require_nondegenerate(self.B), self.l)


InteractionSpec = Union[ConnectedOrigin, SeparatedOrigin, TwoPoint, DeltaPair]


@dataclass(frozen=True)
class ClassificationReport:
    pt_selfadjoint: bool
    selfadjoint: bool
    family: str
    extracted_params: Optional[object] = None
    notes: str = ""


def _classify_connected_matrix(B, tol):
    pt = is_pt_connected(B, tol)
    sa = is_selfadjoint_connected(B, tol)
    notes = []
    params = None
    family = GENERAL
    try:
        params = type_I_from_matrix(B, tol)
        family = TYPE_I
        if params.theta >= np.pi:
            notes.append("theta uses the pi-shifted representative (theta in [pi, 2pi))")
        if params.b <= tol and abs(params.c) <= tol:
            notes.append("b = c = 0: phases determined only up to a simultaneous pi shift")
    except (NotInFamily, Degenerate):
        pass
    return pt, sa, family, params, notes


def classify(spec, tol=DEFAULT_TOL):
    """Classify an interaction: PT-invariance, self-adjointness, parameter family."""
    if isinstance(spec, ConnectedOrigin):
        pt, sa, family, params, notes = _classify_connected_matrix(spec.B, tol)
        return ClassificationReport(pt, sa, family, params, "; ".join(notes))

    if isinstance(spec, SeparatedOrigin):
        p = spec.params
        theta_mod_pi = min(p.theta % np.pi, np.pi - (p.theta % np.pi))
        sa = theta_mod_pi <= tol or p.h0 <= tol or abs(p.h1) <= tol
        notes = "separated conditions are PT-invariant for every theta"
        return ClassificationReport(True, bool(sa), TYPE_II, p, notes)

    if isinstance(spec, (TwoPoint, DeltaPair)):
        try:
            _, sa, family, params, notes = _classify_connected_matrix(spec.B, tol)
        except Degenerate:
            notes = "interface matrix is degenerate; connected-origin predicates unavailable"
            return ClassificationReport(True, False, GENERAL, None, notes)
        notes.append("condition at -l is the reflected conjugate of B (never stored)")
        return ClassificationReport(True, sa, family, params, "; ".join(notes))

    raise InvalidParams(f"unknown interaction spec {type(spec).__name__}")
