import numpy as np
import pytest

from ptpoint.boundary import (
    MAX_ENTRY,
    TwoPoint,
    TypeIParams,
    is_selfadjoint_connected,
    matrix_from_type_I,
    two_point_interfaces,
)
from ptpoint.errors import (
    ContourThroughZero,
    DegenerateIdenticallyZero,
    EigensolverFailure,
    InvalidParams,
    NoConvergence,
    NotAnEigenvalue,
    PointInteractionError,
)
from ptpoint import spectra
from ptpoint.finitediff import OracleConfig, oracle_discrete_spectrum
from ptpoint.zeros import _counts, _track
from ptpoint.spectra import (
    RELATIONS,
    ContourSpec,
    NEGATIVE_REAL,
    default_contour,
    delta_pair_matrix,
    two_point_dispersion_value,
    two_point_spectrum,
)
from ptpoint.states import (
    KERNEL_TOL,
    eigenfunction_two_point,
    interface_residual,
    interface_system,
    pt_apply,
    pt_symmetry_defect,
    two_point_kernel,
)

# fixtures with vanishing lower-right entry: for these the closed-form
# dispersion equals the 4x4 interface-system determinant identically, so the
# contour solver, the kernel construction, and the finite-difference oracle
# can all be cross-checked against each other
REAL_PAIR_MODEL = np.array([[1.0, 1.0], [-1.0, 0.0]], dtype=complex)
COMPLEX_PAIR_MODEL = np.array([[1j, 1.0], [1.0, 0.0]], dtype=complex)


def _bisect(f, lo, hi):
    """Root of f in [lo, hi], given a sign change."""
    assert f(lo) * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _type_I_draws(n, seed):
    """Connected PT matrices over the whole family: theta, phi in U(0, 2 pi), b in U(0.1, 2), c in U(max(-1/b, -2), 2)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        theta, phi, b = rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0.1, 2.0)
        out.append(matrix_from_type_I(TypeIParams(theta, phi, b, rng.uniform(max(-1.0 / b, -2.0), 2.0))))
    return out


def _with_zeros(*zeros):
    """Vectorized monic polynomial with exactly the given zeros (repeat for order), and its derivative."""

    def f(z):
        value, slope = np.ones_like(np.asarray(z, dtype=complex)), np.zeros_like(np.asarray(z, dtype=complex))
        for r in zeros:
            value, slope = value * (z - r), slope * (z - r) + value
        return value, slope

    return f


class TestWindingCount:
    """The argument-principle counter of the zero search (zeros._counts) on polynomials with known zeros.

    Rectangle [-1, 1] x [0.1, 1].
    """

    RECT = (-1.0, 1.0, 0.1, 1.0)

    def count(self, f):
        return int(_counts(f, np.array([self.RECT]), False, 1.0)[0])

    @pytest.mark.parametrize(
        "zeros, count",
        [
            ((2.0 + 0.5j, -0.5 - 0.2j, 0.3 + 1.5j), 0),
            ((0.2 + 0.5j, 0.2 + 0.5j, -0.4 + 0.3j, 3.0j), 3),  # double zero
            ((0.3 + 0.101j,), 1),  # 1e-3 inside the bottom edge
            ((0.3 + 0.099j,), 0),  # 1e-3 outside it
            ((0.999 + 0.6j, -0.7 + 0.999j, 0.5j), 3),  # 1e-3 inside the right and top edges
            (tuple(0.5j + 0.3 * np.exp(2j * np.pi * np.arange(12) / 12)), 12),
        ],
    )
    def test_known_count(self, zeros, count):
        assert self.count(_with_zeros(*zeros)) == count

    def test_zero_at_corner_is_a_node(self):
        with pytest.raises(ContourThroughZero, match="a zero lies on an edge of the zero search"):
            self.count(_with_zeros(-1.0 + 0.1j, 0.5j))

    def test_overflow_on_an_edge(self):
        def f(k):
            return np.where(k.real > 0.5, np.inf, k), np.ones_like(k)

        with pytest.raises(EigensolverFailure, match="the function overflows on an edge"):
            self.count(f)


class TestDispersionValue:
    def test_free_conditions(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            k = rng.normal() + 1j * rng.normal()
            l = rng.uniform(0.3, 2.0)
            d = two_point_dispersion_value(np.eye(2), l, k)
            assert abs(d - 2j * k * k * np.cos(2 * k * l)) < 1e-12 * max(1.0, abs(d))

    def test_delta_pair_factorization(self):
        v = 2.0
        B = delta_pair_matrix(0.0, v)
        rng = np.random.default_rng(13)
        for _ in range(20):
            k = rng.normal() + 1j * rng.normal()
            expect = np.sin(2 * k) * (k * k * (1 - v * v) + 2j * k - 1)
            assert abs(two_point_dispersion_value(B, 1.0, k) - expect) < 1e-12 * max(1.0, abs(expect))

    def test_vanishes_at_origin(self):
        rng = np.random.default_rng(14)
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert two_point_dispersion_value(B, 0.7, 0.0) == 0

    def test_vectorized(self):
        ks = np.array([0.2 + 0.1j, 1.0 + 1.0j, -0.5 + 2.0j])
        vals = two_point_dispersion_value(REAL_PAIR_MODEL, 1.0, ks)
        singles = [two_point_dispersion_value(REAL_PAIR_MODEL, 1.0, k) for k in ks]
        assert np.allclose(vals, singles)

    @pytest.mark.parametrize("relation", ["printed", "operator"])
    def test_deep_lower_half_plane(self, relation):
        # the direct sin/cos form is finite at Im(k) l = -200 and -300; the
        # upper-half-plane rescaling would overflow there
        B = np.array([[1, 0.5], [0.2, 1.1]], dtype=complex)
        a, b, g, d = B[0, 0], B[0, 1], B[1, 0], B[1, 1]
        s = -1.0 if relation == "printed" else 1.0
        for k in (-200j, -300j, 1.5 - 250j):
            P1 = (-k**4 * abs(b) ** 2 - 1j * k**3 * (b * np.conj(d) + np.conj(b) * d)
                  + k**2 * (abs(a) ** 2 + s * abs(d) ** 2) + 1j * k * (a * np.conj(g) + np.conj(a) * g)
                  - abs(g) ** 2)
            P2 = (k**2 * (a * np.conj(b) + np.conj(a) * b)
                  + 1j * k * (a * np.conj(d) + np.conj(a) * d + b * np.conj(g) + np.conj(b) * g)
                  - (g * np.conj(d) + np.conj(g) * d))
            expect = np.sin(2 * k) * P1 + k * np.cos(2 * k) * P2
            got = two_point_dispersion_value(B, 1.0, k, relation=relation)
            assert np.isfinite(got) and abs(got - expect) < 1e-12 * abs(expect)

    def test_mixed_half_planes_vectorized(self):
        ks = np.array([[1.0 + 2.0j, -1.0 - 200.0j], [3.0, 0.5 - 0.1j]])
        vals = two_point_dispersion_value(REAL_PAIR_MODEL, 1.0, ks)
        singles = [[two_point_dispersion_value(REAL_PAIR_MODEL, 1.0, k) for k in row] for row in ks]
        assert vals.shape == (2, 2) and np.allclose(vals, singles, rtol=1e-14)

    @pytest.mark.parametrize("l", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_length(self, l):
        with pytest.raises(InvalidParams):
            two_point_dispersion_value(REAL_PAIR_MODEL, l, 1j)
        with pytest.raises(InvalidParams):
            two_point_spectrum(REAL_PAIR_MODEL, l)
        with pytest.raises(InvalidParams):
            two_point_spectrum(REAL_PAIR_MODEL, l, ContourSpec(-2.0, 2.0, 1e-6, 2.0))


class TestDeltaPairMatrix:
    def test_entry_assignment(self):
        assert np.allclose(delta_pair_matrix(0, 2), [[1, 0], [1, 2j]])
        assert np.allclose(delta_pair_matrix(0, 0), [[1, 0], [1, 0]])

    def test_degenerate_at_zero_coupling(self):
        assert abs(np.linalg.det(delta_pair_matrix(0, 0))) == 0

    def test_selfadjoint_at_unit_real_coupling(self):
        assert is_selfadjoint_connected(delta_pair_matrix(1, 0))

    def test_textbook_variant_differs(self):
        paper = delta_pair_matrix(2, 0)
        textbook = delta_pair_matrix(2, 0, variant="textbook")
        assert np.allclose(textbook, [[1, 0], [2, 1]])
        assert not np.allclose(paper, textbook)

    def test_unknown_variant(self):
        with pytest.raises(InvalidParams):
            delta_pair_matrix(0, 1, variant="other")


class TestTwoPointSpectrum:
    def test_delta_pair_strong_coupling(self):
        rep = two_point_spectrum(delta_pair_matrix(0, 2), 1.0, ContourSpec(-5, 5, 1e-6, 5))
        assert rep.total_multiplicity == 1
        e = rep.eigenvalues[0]
        assert abs(e.lam + 1) < 1e-8 and e.kind == NEGATIVE_REAL and rep.all_real

    def test_delta_pair_weak_coupling(self):
        rep = two_point_spectrum(delta_pair_matrix(0, 0.5), 1.0, ContourSpec(-5, 5, 1e-6, 5))
        assert rep.eigenvalues == ()

    def test_free_conditions_empty(self):
        rep = two_point_spectrum(np.eye(2), 1.0, ContourSpec(-5, 5, 1e-6, 5))
        assert rep.eigenvalues == ()

    @pytest.mark.parametrize("v", [0.5, -0.5, 2.0, -2.0, 3.0, -3.0])
    def test_matches_closed_form_roots(self, v):
        rep = two_point_spectrum(delta_pair_matrix(0, v), 1.0)
        expect = [k for k in (-1j / (1 + v), -1j / (1 - v)) if k.imag > 1e-6]
        got = sorted((e.k.k for e in rep.eigenvalues), key=lambda z: z.imag)
        assert len(got) == len(expect)
        for a, b in zip(got, sorted(expect, key=lambda z: z.imag)):
            assert abs(a - b) < 1e-8

    def test_exact_axis_roots(self):
        # pure imaginary zeros come back with exactly zero real part
        rep = two_point_spectrum(delta_pair_matrix(0, 2), 1.0)
        assert rep.eigenvalues[0].k.k.real == 0.0

    def test_root_set_mirror_symmetry(self):
        for B in (REAL_PAIR_MODEL, COMPLEX_PAIR_MODEL, delta_pair_matrix(0, 2)):
            rep = two_point_spectrum(B, 1.0)
            ks = [e.k.k for e in rep.eigenvalues]
            for k in ks:
                assert min(abs(-np.conj(k) - kk) for kk in ks) < 1e-8

    def test_eigenvalues_closed_under_conjugation(self):
        rep = two_point_spectrum(COMPLEX_PAIR_MODEL, 1.0)
        lams = [e.lam for e in rep.eigenvalues]
        assert len(lams) >= 2 and not rep.all_real
        for lam in lams:
            assert min(abs(np.conj(lam) - mu) for mu in lams) < 1e-8

    def test_lowest_pair_isolated_by_contour(self):
        rep = two_point_spectrum(COMPLEX_PAIR_MODEL, 1.0, ContourSpec(-1.2, 1.2, 1e-6, 1.0))
        lams = sorted((e.lam for e in rep.eigenvalues), key=lambda z: z.imag)
        assert len(lams) == 2
        assert abs(lams[0] - np.conj(lams[1])) < 1e-8

    def test_contour_off_the_axis_keeps_its_own_roots(self):
        # the search covers the symmetric hull of the rectangle; only the root inside it stays
        pair = two_point_spectrum(COMPLEX_PAIR_MODEL, 1.0, ContourSpec(-1.2, 1.2, 1e-6, 1.0)).eigenvalues
        right = two_point_spectrum(COMPLEX_PAIR_MODEL, 1.0, ContourSpec(0.0, 1.2, 1e-6, 1.0)).eigenvalues
        assert [e.k.k for e in right] == [e.k.k for e in pair if e.k.k.real > 0]

    def test_contour_narrower_than_the_period(self):
        # a rectangle narrower than the period pi/(2l) of e^{4ikl} narrows the search's columns
        rep = two_point_spectrum(delta_pair_matrix(0, 5), 0.5, ContourSpec(-0.4, 0.4, 1e-6, 0.4))
        assert [e.k.k for e in rep.eigenvalues] == [0.25j]

    def test_contour_through_zero(self):
        # delta-pair root k = i sits exactly on the top edge im_max = 1
        with pytest.raises(ContourThroughZero):
            two_point_spectrum(delta_pair_matrix(0, 2), 1.0, ContourSpec(-5, 5, 1e-6, 1.0))

    def test_zero_on_a_node_of_the_bottom_edge(self):
        # k = i on the bottom edge im_min = 1 is a node of the search itself
        with pytest.raises(ContourThroughZero, match="a zero lies on an edge of the zero search"):
            two_point_spectrum(delta_pair_matrix(0, 2), 1.0, ContourSpec(-5, 5, 1, 5))
        rep = two_point_spectrum(delta_pair_matrix(0, 2), 1.0, ContourSpec(-5, 5, 0.5, 5))
        assert [e.lam for e in rep.eigenvalues] == [-1]

    def test_passes_through_the_dispersion(self, monkeypatch):
        # the grid stage cuts at every grid line in the passes that fit NODES_PER_PASS, and
        # one stacked call certifies every root: at most 17 evaluation calls (21 when every
        # pass bisected, 11 with the whole grid in one pass and the refinement in lockstep),
        # the same 5 roots, one certificate call
        evaluations, certificates = [], []
        with_slope, kernel = spectra._ScaledDispersion.with_slope, spectra.two_point_kernel

        def evaluated(self, k, *args, **kwargs):
            evaluations.append(k)
            return with_slope(self, k, *args, **kwargs)

        def certified(B, l, k):
            certificates.append(k)
            return kernel(B, l, k)

        monkeypatch.setattr(spectra._ScaledDispersion, "with_slope", evaluated)
        monkeypatch.setattr(spectra, "two_point_kernel", certified)
        rep = two_point_spectrum(delta_pair_matrix(-2, 0.5), 1, relation="operator")
        assert len(evaluations) <= 17
        expect = [1.037775411189865j, 1.1492255912151939 + 0.6668160760924616j,
                  2.954280575645418 + 0.5223416738520319j]
        expect += [-np.conj(k) for k in expect[1:]]
        got = [e.k.k for e in rep.eigenvalues]
        assert len(got) == 5 and all(min(abs(k - g) for g in got) <= 1e-12 for k in expect)
        assert [e.multiplicity for e in rep.eigenvalues] == [1] * 5
        assert len(certificates) == 1 and np.shape(certificates[0]) == (5,)

    @pytest.mark.parametrize("v, calls", [(1.0, 10), (0.0, 17)])
    def test_sequential_steps_of_a_solve(self, v, calls, monkeypatch):
        # the whole grid is counted in one pass after the boundary, and the Newton iterates,
        # the axis samples and bracket steps, and the axis phase probe share each call of f:
        # 10 and 17 calls, where one pass for the column edges and another for the heights,
        # then each refinement in calls of its own, took 16 and 24; the default contour
        # and the search share one dispersion
        evaluations, tracks, built = [], [], []
        init, search_function = spectra._ScaledDispersion.__init__, spectra._ScaledDispersion.search_function

        def build(self, *args):
            built.append(args)
            init(self, *args)

        def counted(self, K):
            f = search_function(self, K)

            def g(k):
                evaluations.append(np.size(k))
                return f(k)

            return g

        def tracked(f, *stacks):
            tracks.append(stacks)
            return _track(f, *stacks)

        monkeypatch.setattr(spectra._ScaledDispersion, "__init__", build)
        monkeypatch.setattr(spectra._ScaledDispersion, "search_function", counted)
        monkeypatch.setattr("ptpoint.zeros._track", tracked)
        rep = two_point_spectrum(delta_pair_matrix(-1.5, v), 1, relation="operator")
        assert rep.total_multiplicity == 5
        assert len(built) == 1
        assert len(evaluations) == calls
        assert len(tracks) == 2  # the boundary, then every grid line in one pass

    def test_search_failure_is_no_convergence(self, monkeypatch):
        monkeypatch.setattr("ptpoint.zeros.MAX_ROUNDS", 1)
        with pytest.raises(NoConvergence, match="cannot be resolved"):
            two_point_spectrum(delta_pair_matrix(-2, 0.5), 1.0)

    def test_identically_zero_dispersion(self):
        with pytest.raises(DegenerateIdenticallyZero):
            two_point_spectrum(np.zeros((2, 2)), 1.0, ContourSpec(-5, 5, 1e-6, 5))

    def test_default_contour_covers_known_roots(self):
        c = default_contour(delta_pair_matrix(0, 2), 1.0)
        assert c.im_max > 1.0 and c.re_max > 1.0 and c.im_min > 0

    def test_wide_contour_large_roots(self):
        # v near 1 pushes the root high up the axis; default contour tracks it
        v = 1.015
        rep = two_point_spectrum(delta_pair_matrix(0, v), 1.0)
        expect = -1j / (1 - v)
        assert rep.total_multiplicity == 1
        assert abs(rep.eigenvalues[0].k.k - expect) < 1e-6 * abs(expect)


def _mirrored_roots(rep):
    """The roots k of a report, each repeated by its multiplicity, after checking they are closed under k -> -conj(k)."""
    ks = [e.k.k for e in rep.eigenvalues for _ in range(e.multiplicity)]
    # a two-point model is PT: each root k comes with -conj(k)
    for k in ks:
        assert min(abs(-np.conj(k) - kk) for kk in ks) <= 1e-8 * max(1.0, abs(k))
    return ks


# seed-7 type_I draws (l = 1) whose default-contour solve once reported part of the
# spectrum and no error: (relation, draw, the full root count, as 1024 nodes per
# contour side count it)
SILENT_MISCOUNTS = [
    ("printed", 1, 4), ("printed", 81, 4), ("printed", 93, 6), ("printed", 219, 8),
    ("printed", 258, 6), ("printed", 268, 8), ("operator", 22, 12), ("operator", 173, 4),
]


@pytest.mark.parametrize("relation, draw, count", SILENT_MISCOUNTS)
def test_silent_miscounts_give_the_whole_mirrored_spectrum(relation, draw, count):
    rep = two_point_spectrum(_type_I_draws(300, seed=7)[draw], 1.0, relation=relation)
    assert len(_mirrored_roots(rep)) == count


# the dispersion's zero at k = 0 is double where l |gamma|^2 + Re(gamma conj(delta)) = 0:
# delta_pair with u = -l, and gamma = 0 (type_I with c = 0)
DOUBLE_ZERO_AT_ORIGIN = [
    *((f"delta_pair u=-1 v={v:g}", delta_pair_matrix(-1.0, v)) for v in np.linspace(-3, 3, 13) if v != 0),
    *((f"type_I c=0 b={b:g} phi={phi:g}", matrix_from_type_I(TypeIParams(0.0, phi, b, 0.0)))
      for b in (0.5, 1.0, 2.0) for phi in (0.0, 0.5, 1.5, 2.5, 3.0)),
]


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("B", [B for _, B in DOUBLE_ZERO_AT_ORIGIN], ids=[name for name, _ in DOUBLE_ZERO_AT_ORIGIN])
def test_double_zero_at_the_origin_solves(B, relation):
    rep = two_point_spectrum(B, 1.0, relation=relation)
    _mirrored_roots(rep)
    if relation == "operator":
        assert all(e.operator_certified for e in rep.eigenvalues)


def test_close_axis_roots_are_both_found():
    # two operator roots 2.9e-4 apart on the imaginary axis, where |Dt'| is 5.8e-4
    B = matrix_from_type_I(TypeIParams(0.2074954382451559, 3.1625561745561543, 0.3339539465261404, -1.2947825145274914))
    rep = two_point_spectrum(B, 1.0, relation="operator")
    ks = sorted((e.k.k for e in rep.eigenvalues for _ in range(e.multiplicity)), key=lambda k: k.imag)
    assert [k.real for k in ks] == [0.0, 0.0]
    assert np.allclose([k.imag for k in ks], [5.249392206849063, 5.249681618119561], rtol=1e-9, atol=0)
    assert all(e.operator_certified for e in rep.eigenvalues)


@pytest.mark.slow
def test_draw_22_roots_are_oracle_eigenvalues():
    # seed-7 draw 22 (operator relation), once reported with no eigenvalue: 12 roots.  The
    # oracle's box [-L, L] truncates an eigenfunction by e^{-2 Im(k) L}, which at L = 12 is
    # 0.27 for the root with Im k = 0.054: there only the roots with Im k > 0.4 are compared
    B = _type_I_draws(300, seed=7)[22]
    eigs = two_point_spectrum(B, 1.0, relation="operator").eigenvalues
    assert len(eigs) == 12
    for L, N, compared in ((12.0, 2400, 8), (96.0, 38400, 12)):
        cand = oracle_discrete_spectrum(TwoPoint(1.0, B), OracleConfig(L=L, N=N))
        near = [e.lam for e in eigs if np.exp(-2 * e.k.k.imag * L) < 1e-4]
        assert len(near) == compared
        for lam in near:
            assert min(abs(lam - mu) for mu in cand) <= 1e-3 * max(1.0, abs(lam))


class TestInterfaceSystem:
    def test_determinant_matches_dispersion_when_lower_right_vanishes(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            B[1, 1] = 0.0
            if abs(np.linalg.det(B)) < 0.1:
                continue
            k = rng.normal() + 1j * rng.normal()
            # det = -2i Dt(k), Dt = e^{2ikl} D(k) the rescaled dispersion
            det = np.linalg.det(interface_system(two_point_interfaces(B, 1.0), k))
            disp = -2j * np.exp(2j * k) * two_point_dispersion_value(B, 1.0, k)
            assert abs(det - disp) < 1e-10 * max(1.0, abs(det))

    def test_determinant_matches_operator_relation(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert abs(B[1, 1]) > 0
            k = rng.normal() + 1j * rng.normal()
            l = rng.uniform(0.3, 2.0)
            det = np.linalg.det(interface_system(two_point_interfaces(B, l), k))
            disp = -2j * np.exp(2j * k * l) * two_point_dispersion_value(B, l, k, relation="operator")
            assert abs(det - disp) < 1e-10 * max(1.0, abs(det))

    def test_unknown_relation(self):
        with pytest.raises(InvalidParams):
            two_point_dispersion_value(np.eye(2), 1.0, 1j, relation="other")

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_kernel_of_an_array_of_k_is_the_kernel_at_each_k(self, seed):
        # seeded B with delta != 0, at its operator roots (certified) and at points off them
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(B[1, 1]) > 0
        roots = [e.k.k for e in two_point_spectrum(B, 1.0, relation="operator").eigenvalues]
        k = np.array(roots + list(rng.normal(size=6) + 1j * rng.uniform(0.1, 3.0, 6)))
        ratio, vectors = two_point_kernel(B, 1.0, k)
        assert ratio.shape == k.shape and vectors.shape == k.shape + (4,)
        for kj, r in zip(k, ratio):
            alone = two_point_kernel(B, 1.0, kj)[0]
            assert abs(r - alone) <= 1e-15 and (r <= KERNEL_TOL) == (alone <= KERNEL_TOL)
        assert (ratio[:len(roots)] <= KERNEL_TOL).all() and (ratio[len(roots):] > KERNEL_TOL).all()

    def test_kernel_of_an_array_of_k_with_zero_rows(self):
        # singular B whose first row at each interface cancels at k = 10i to 3e-9 of its
        # condition's size, under KERNEL_TOL, and counts as a zero row there, next to points
        # where no row does
        B = np.array([[1e9, -1e8], [0, 0]], dtype=complex)
        k = np.array([10j, 10j + 0.1, 9.5j, 1 + 12j, 1j, 0.5 + 0.2j])
        interfaces = two_point_interfaces(B, 1.0)
        size = np.linalg.norm(interfaces[1][1] * [1.0, 10.0, 1.0, 10.0], axis=1)
        assert (np.linalg.norm(interface_system(interfaces, 10j)[2:], axis=1) <= KERNEL_TOL * size).any()
        ratio = two_point_kernel(B, 1.0, k)[0]
        assert ratio[0] <= KERNEL_TOL < ratio[1:].min()
        for kj, r in zip(k, ratio):
            alone = two_point_kernel(B, 1.0, kj)[0]
            assert abs(r - alone) <= 1e-15 and (r <= KERNEL_TOL) == (alone <= KERNEL_TOL)

    def test_textbook_double_delta_operator_spectrum(self):
        # self-adjoint attractive pair: derivative jump -2 psi at x = +-1;
        # even and odd bound states solve kappa (1 + tanh kappa) = 2 and
        # kappa (1 + coth kappa) = 2
        even = _bisect(lambda x: x * (1 + np.tanh(x)) - 2, 0.1, 3.0)
        odd = _bisect(lambda x: x * (1 + 1 / np.tanh(x)) - 2, 0.1, 3.0)
        assert abs(even**2 - 1.22957) < 1e-5 and abs(odd**2 - 0.63491) < 1e-5
        B = delta_pair_matrix(-2, 0, variant="textbook")
        rep = two_point_spectrum(B, 1.0, relation="operator")
        lams = [e.lam for e in rep.eigenvalues]
        assert len(lams) == 2 and rep.all_real
        assert abs(lams[0] + even**2) < 1e-10 and abs(lams[1] + odd**2) < 1e-10
        for e in rep.eigenvalues:
            assert e.operator_certified
            psi = eigenfunction_two_point(B, 1.0, e.k.k)
            assert interface_residual(psi, B, 1.0) < 1e-8

    def test_textbook_double_delta_printed_roots_not_certified(self):
        B = delta_pair_matrix(-2, 0, variant="textbook")
        rep = two_point_spectrum(B, 1.0)
        assert [round(e.lam.real, 3) for e in rep.eigenvalues] == [-11.657, -0.257]
        assert all(e.operator_certified is False for e in rep.eigenvalues)

    def test_certificate_at_large_imaginary_k(self):
        # printed root k = i/0.015 of v = 1.015: the operator has no eigenvalue
        # there, and entries of order e^{2 Im(k) l} must not fake a kernel
        B = delta_pair_matrix(0, 1.015)
        (e,) = two_point_spectrum(B, 1.0).eigenvalues
        assert e.k.k.imag > 60 and e.operator_certified is False and e.operator_sv > 1e-2
        with pytest.raises(NotAnEigenvalue):
            eigenfunction_two_point(B, 1.0, e.k.k)

    def test_delta_pair_closed_root_is_not_a_kernel_point(self):
        # the closed-form relation vanishes at k = i for v = 2, but the
        # interface system stays nonsingular there: the two objects separate
        # when the lower-right entry is nonzero
        B = delta_pair_matrix(0, 2)
        assert abs(two_point_dispersion_value(B, 1.0, 1j)) < 1e-14
        ratio, _ = two_point_kernel(B, 1.0, 1j)
        assert ratio > 0.4  # 0.440
        with pytest.raises(NotAnEigenvalue):
            eigenfunction_two_point(B, 1.0, 1j)


class TestTwoPointEigenfunctions:
    def test_real_pair_model(self):
        rep = two_point_spectrum(REAL_PAIR_MODEL, 1.0)
        assert rep.total_multiplicity == 2 and rep.all_real
        for e in rep.eigenvalues:
            psi = eigenfunction_two_point(REAL_PAIR_MODEL, 1.0, e.k.k)
            assert interface_residual(psi, REAL_PAIR_MODEL, 1.0) < 1e-8
            assert pt_symmetry_defect(psi) < 1e-8

    def test_complex_pair_partner_map(self):
        rep = two_point_spectrum(COMPLEX_PAIR_MODEL, 1.0, ContourSpec(-1.2, 1.2, 1e-6, 1.0))
        e = rep.eigenvalues[0]
        psi = eigenfunction_two_point(COMPLEX_PAIR_MODEL, 1.0, e.k.k)
        assert interface_residual(psi, COMPLEX_PAIR_MODEL, 1.0) < 1e-8
        assert pt_symmetry_defect(psi) > 0.1
        partner = pt_apply(psi)
        assert interface_residual(partner, COMPLEX_PAIR_MODEL, 1.0) < 1e-8

    def test_free_conditions_have_no_eigenfunctions(self):
        with pytest.raises(NotAnEigenvalue):
            eigenfunction_two_point(np.eye(2), 1.0, 0.5j)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(NotAnEigenvalue):
            eigenfunction_two_point(REAL_PAIR_MODEL, 1.0, -0.5j)


class TestContourSpec:
    def test_default_contour_overflow_is_invalid_params(self):
        # |g|^2 / |b|^2 passes the float range: the default rectangle cannot be written down
        B = np.array([[1.0, -0.173], [3.98e153, 1.0]], dtype=complex)
        for solve in (lambda: default_contour(B, 1.0), lambda: two_point_spectrum(B, 1.0)):
            with pytest.raises(InvalidParams, match="default contour overflows"):
                solve()

    def test_entries_near_max_entry_give_errors_not_warnings(self):
        # one entry of modulus 1e153 .. MAX_ENTRY: every solve returns or raises a package
        # error, and none warns (RuntimeWarning is an error in this suite)
        rng = np.random.default_rng(153)
        for _ in range(600):
            B = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
            B[rng.integers(2), rng.integers(2)] = 10 ** rng.uniform(153, np.log10(MAX_ENTRY)) * np.exp(
                1j * rng.uniform(0, 2 * np.pi))
            try:
                two_point_spectrum(B, 1.0)
            except PointInteractionError:
                pass

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["re_min", "re_max", "im_min", "im_max"])
    def test_rejects_non_finite_field(self, field, value):
        box = {"re_min": -5.0, "re_max": 5.0, "im_min": 1e-6, "im_max": 5.0, field: value}
        with pytest.raises(InvalidParams, match=f"{field} must be finite"):
            two_point_spectrum(delta_pair_matrix(0, 2), 1.0, ContourSpec(**box))


@pytest.mark.slow
class TestTwoPointOracle:
    def test_real_pair_model_confirmed_independently(self):
        spec = TwoPoint(1.0, REAL_PAIR_MODEL)
        closed = [e.lam for e in two_point_spectrum(REAL_PAIR_MODEL, 1.0).eigenvalues]
        cand = oracle_discrete_spectrum(spec, OracleConfig(L=12.0, N=1200))
        for lam in closed:
            assert min(abs(lam - mu) for mu in cand) < 1e-3
