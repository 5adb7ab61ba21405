"""Reference computations that the benchmark checks the program's outputs against.

Nothing here imports ptpoint.  Each formula is written from the model
definitions (the interface conditions and the type_I family formula), so an
agreement between these values and the program's is a check of the program,
not a comparison of the program with itself.

Conventions match the package: an eigenvalue is lambda = k^2 for a wave
number k with Im k > 0, and a two-point model has the condition B at x = +l
and its reflected conjugate J conj(B) J at x = -l, J = diag(1, -1).
"""

import numpy as np

# contour floor of the two-point solver's default rectangle (Im k > IM_MIN)
IM_MIN = 1e-6


def _physical_lambdas(ks):
    return [complex(k) ** 2 for k in ks if complex(k).imag > 0]


def type_I_origin(theta, phi, b, c):
    """Eigenvalues and all_real of the type_I origin model, from np.roots.

    The family matrix is B = e^{i theta} [[s e^{i phi}, b], [c, s e^{-i phi}]]
    with s = sqrt(1 + b c); the origin dispersion beta k^2 + i (alpha + delta) k
    - gamma is then e^{i theta} times b k^2 + 2i s cos(phi) k - c.  Coincident
    roots give one eigenvalue: a connected condition has one decaying solution.
    all_real follows from the discriminant d = b c sin^2(phi) - cos^2(phi): for
    d <= 0 both roots are pure imaginary, for d > 0 they share one imaginary
    part and a physical pair gives non-real lambda.
    """
    s = np.sqrt(1.0 + b * c)
    ks = np.roots([b, 2j * s * np.cos(phi), -c])
    if len(ks) == 2 and abs(ks[0] - ks[1]) <= 1e-12 * max(1.0, abs(ks[0]), abs(ks[1])):
        ks = ks[:1]
    lams = _physical_lambdas(ks)
    d = b * c * np.sin(phi) ** 2 - np.cos(phi) ** 2
    return lams, bool(d <= 0 or not lams)


def connected_origin(B):
    """Eigenvalues of a connected origin model: roots of beta k^2 + i (alpha + delta) k - gamma."""
    B = np.asarray(B, dtype=complex)
    return _physical_lambdas(np.roots([B[0, 1], 1j * (B[0, 0] + B[1, 1]), -B[1, 0]]))


def separated_origin(theta, h0, h1):
    """Eigenvalues and all_real of the separated origin model.

    The right half-line solution e^{ikx} meets h0 psi' = h1 e^{i theta} psi at
    k = -i (h1/h0) e^{i theta}; the left one, e^{-ikx} with
    h0 psi' = -h1 e^{-i theta} psi, at k = -i (h1/h0) e^{-i theta}.
    """
    if h0 == 0.0:
        return [], True
    ks = [-1j * (h1 / h0) * np.exp(1j * theta), -1j * (h1 / h0) * np.exp(-1j * theta)]
    lams = _physical_lambdas(ks)
    return lams, all(abs(z.imag) <= 1e-10 * max(1.0, abs(z)) for z in lams)


def interface_system(B, l, k):
    """The 4x4 interface system of the two-point model at wave number k, rows of unit norm.

    Ansatz: c1 e^{-ik(x+l)} for x < -l, c2 e^{ik(x+l)} + c3 e^{-ik(x-l)} on
    |x| < l and c4 e^{ik(x-l)} for x > l.  Every exponential has modulus <= 1
    on its piece when Im k >= 0, so no entry grows with Im k.  Rows: at +l,
    (psi, psi')(l+) = B (psi, psi')(l-); at -l, (psi, psi')(-l-) = P (psi, psi')(-l+)
    with P = J conj(B) J, the condition B seen through x -> -x and conjugation.
    """
    B = np.asarray(B, dtype=complex)
    P = np.diag([1.0, -1.0]) @ np.conj(B) @ np.diag([1.0, -1.0])
    ik = 1j * k
    q = np.exp(2j * k * l)
    # middle piece at +l: value q c2 + c3, derivative ik (q c2 - c3);
    # at -l: value c2 + q c3, derivative ik (c2 - q c3)
    val_p, der_p = np.array([q, 1.0]), ik * np.array([q, -1.0])
    val_m, der_m = np.array([1.0, q]), ik * np.array([1.0, -q])
    A = np.zeros((4, 4), dtype=complex)
    A[0, 3], A[1, 3] = 1.0, ik
    A[0, 1:3] = -(B[0, 0] * val_p + B[0, 1] * der_p)
    A[1, 1:3] = -(B[1, 0] * val_p + B[1, 1] * der_p)
    A[2, 0], A[3, 0] = 1.0, -ik
    A[2, 1:3] = -(P[0, 0] * val_m + P[0, 1] * der_m)
    A[3, 1:3] = -(P[1, 0] * val_m + P[1, 1] * der_m)
    return A / np.linalg.norm(A, axis=1, keepdims=True)


def interface_sv(B, l, k):
    """Relative smallest singular value of interface_system: ~0 exactly at eigenvalues."""
    sv = np.linalg.svd(interface_system(B, l, k), compute_uv=False)
    return float(sv[-1] / sv[0])


def delta_pair_axis_roots(u, v, l, kappa_max, samples=4000):
    """Roots kappa in (IM_MIN, kappa_max] of the delta-pair axis equation, by bisection.

    At k = i kappa the interface system of [[1, 0], [1, u+iv]] is singular iff
    tanh(2 kappa l)((1+u^2+v^2) kappa^2 + 2 kappa + 1) + 2 u kappa (kappa + 1) = 0.
    Sign changes are found on a uniform grid and each is bisected to full
    precision; returns the eigenvalues -kappa^2.
    """
    def f(x):
        return np.tanh(2 * x * l) * ((1 + u * u + v * v) * x * x + 2 * x + 1) + 2 * u * x * (x + 1)

    grid = np.linspace(IM_MIN, kappa_max, samples)
    vals = f(grid)
    lams = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        lo, hi = grid[i], grid[i + 1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if np.sign(f(mid)) == np.sign(vals[i]):
                lo = mid
            else:
                hi = mid
        lams.append(-(0.5 * (lo + hi)) ** 2)
    return lams


def match_within(reference, found, tol):
    """True when each reference value has its own distinct partner in found within tol."""
    remaining = list(found)
    for z in reference:
        if not remaining:
            return False
        j = int(np.argmin([abs(z - w) for w in remaining]))
        if abs(z - remaining[j]) > tol(z):
            return False
        remaining.pop(j)
    return True
