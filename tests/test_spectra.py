from decimal import Decimal, localcontext

import numpy as np
import pytest

from ptpoint.boundary import TypeIIParams, TypeIParams, matrix_from_type_I
from ptpoint.errors import DegenerateIdenticallyZero
from ptpoint.spectra import (
    COMPLEX_SPECTRUM,
    CONJUGATE_PAIR_MEMBER,
    NEGATIVE_REAL,
    REAL_ALL_ROOTS_LOWER_HALF,
    REAL_PURE_IMAGINARY_ROOTS,
    discrete_spectrum_origin_connected,
    discrete_spectrum_separated,
    dispersion_roots_general,
    dispersion_roots_type_I,
    real_spectrum_classify_general,
    real_spectrum_predicate_type_I,
)

from test_boundary import random_type_I


def sorted_roots(roots):
    return sorted(roots, key=lambda z: (z.real, z.imag))


def assert_same_multiset(lams1, lams2, tol):
    """Greedy nearest-match comparison, robust to sort-order flips at ulp level."""
    assert len(lams1) == len(lams2)
    pool = list(lams2)
    for lam in lams1:
        j = min(range(len(pool)), key=lambda i: abs(pool[i] - lam))
        assert abs(pool[j] - lam) < tol, f"{lam} unmatched (closest {pool[j]})"
        pool.pop(j)


class TestTypeIRoots:
    def test_parabolic_case(self):
        roots = sorted_roots(dispersion_roots_type_I(TypeIParams(0, np.pi, 1, 0)))
        assert np.allclose(roots, [0, 2j])

    def test_attractive_delta(self):
        (k,) = dispersion_roots_type_I(TypeIParams(0, 0, 0, -2))
        assert k == 1j

    def test_real_pair(self):
        roots = sorted_roots(dispersion_roots_type_I(TypeIParams(0, np.pi / 2, 1, 1)))
        assert np.allclose(roots, [-1, 1], atol=1e-15)

    def test_no_roots_when_linear_part_vanishes(self):
        assert dispersion_roots_type_I(TypeIParams(0, np.pi / 2, 0, 1)) == []

    def test_identically_zero(self):
        with pytest.raises(DegenerateIdenticallyZero):
            dispersion_roots_type_I(TypeIParams(0, np.pi / 2, 0, 0))

    @pytest.mark.parametrize("b", [1e-5, 1e-9, 1e-11])
    def test_small_root_keeps_its_digits(self, b):
        # b k^2 + 2i sqrt(1 - 2b) k + 2 = 0 has the roots i(-sqrt(1 - 2b) -+ 1)/b: the small
        # one, about i, is i(1 - sqrt(1 - 2b))/b, which cancels in floats; here in 40 digits
        small = dispersion_roots_type_I(TypeIParams(0, 0, b, -2))[1]
        with localcontext() as ctx:
            ctx.prec = 40
            exact = (1 - (1 + Decimal(b) * Decimal(-2)).sqrt()) / Decimal(b)
        assert small.real == 0.0
        assert abs(Decimal(small.imag) - exact) <= Decimal("1e-15") * exact

    def test_root_symmetry_invariant(self):
        # roots are pure imaginary or swapped by k -> -conj(k)
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            p = random_type_I(rng)
            roots = dispersion_roots_type_I(p)
            if len(roots) < 2:
                continue
            k1, k2 = roots
            pure_imag = k1.real == 0.0 and k2.real == 0.0
            mirrored = abs(k2 - (-np.conj(k1))) < 1e-10 * max(1.0, abs(k1))
            assert pure_imag or mirrored


class TestGeneralRoots:
    def test_delta_matches_type_I(self):
        (k,) = dispersion_roots_general(np.array([[1, 0], [-2, 1]], dtype=complex))
        assert abs(k - 1j) < 1e-15

    def test_nilpotent_shift(self):
        roots = dispersion_roots_general(np.array([[1, 1], [0, 1]], dtype=complex))
        assert np.allclose(sorted_roots(roots), [-2j, 0])

    def test_traceless(self):
        roots = dispersion_roots_general(np.array([[2, 1], [-1, -2]], dtype=complex))
        assert np.allclose(sorted_roots(roots), [-1j, 1j])

    def test_no_roots(self):
        assert dispersion_roots_general(np.array([[1, 0], [3, -1]], dtype=complex)) == []

    @pytest.mark.parametrize("beta", [1e-5, 1e-9, 1e-11])
    def test_small_beta_keeps_both_roots(self, beta):
        # beta k^2 + 2ik + 2 = 0 has the roots i(-1 +- sqrt(1 + 2 beta))/beta; the small one
        # cancels in (-i tau + disc)/(2 beta), which put it 1.4e-7 off at beta = 1e-9
        with localcontext() as ctx:
            ctx.prec = 40
            root = (1 + 2 * Decimal(beta)).sqrt()
            exact = [complex(0, -(1 + root) / Decimal(beta)), complex(0, 2 / (1 + root))]
        roots = sorted(dispersion_roots_general(np.array([[1, beta], [-2, 1]], dtype=complex)), key=lambda k: k.imag)
        assert all(abs(k - e) <= 1e-14 * abs(e) for k, e in zip(roots, exact, strict=True))

    def test_double_root_at_zero(self):
        # tau = gamma = 0: k^2 = 0, where the product of the roots gives no second root
        with np.errstate(all="raise"):
            assert dispersion_roots_general(np.array([[1, 1], [0, -1]], dtype=complex)) == [0, 0]


class TestOriginSpectrum:
    def test_single_bound_state(self):
        rep = discrete_spectrum_origin_connected(matrix_from_type_I(TypeIParams(0, np.pi, 1, 0)))
        assert rep.total_multiplicity == 1
        e = rep.eigenvalues[0]
        assert abs(e.lam + 4) < 1e-12 and e.kind == NEGATIVE_REAL
        assert rep.nonphysical_roots == (0j,)
        assert rep.all_real

    def test_free_operator_empty(self):
        rep = discrete_spectrum_origin_connected(np.eye(2))
        assert rep.eigenvalues == () and rep.all_real

    def test_conjugate_pair(self):
        rep = discrete_spectrum_origin_connected(
            matrix_from_type_I(TypeIParams(0, 2 * np.pi / 3, 1, 4))
        )
        lams = [e.lam for e in rep.eigenvalues]
        expect = 1.5 + 1j * np.sqrt(55) / 2
        assert len(lams) == 2 and not rep.all_real
        assert min(abs(l - expect) for l in lams) < 1e-12
        assert min(abs(l - np.conj(expect)) for l in lams) < 1e-12
        assert all(e.kind == CONJUGATE_PAIR_MEMBER for e in rep.eigenvalues)

    def test_coincident_roots_report_single_simple_eigenvalue(self):
        # k^2 - 2ik - 1 = (k - i)^2: exact double root at k = i
        rep = discrete_spectrum_origin_connected(np.array([[-2, 1], [1, 0]], dtype=complex))
        assert len(rep.eigenvalues) == 1
        e = rep.eigenvalues[0]
        assert e.multiplicity == 1 and abs(e.lam + 1) < 1e-14

    def test_ac_branch_marker(self):
        rep = discrete_spectrum_origin_connected(np.eye(2))
        assert rep.ac_branch == "[0, inf)"


class TestSeparatedSpectrum:
    def test_double_negative_eigenvalue(self):
        rep = discrete_spectrum_separated(TypeIIParams(0, 1, -1))
        assert rep.total_multiplicity == 2
        e = rep.eigenvalues[0]
        assert e.multiplicity == 2 and e.lam == -1 and e.kind == NEGATIVE_REAL

    def test_no_bound_states(self):
        rep = discrete_spectrum_separated(TypeIIParams(0, 1, 1))
        assert rep.eigenvalues == () and rep.nonphysical_roots == (-1j,)

    def test_conjugate_pair(self):
        rep = discrete_spectrum_separated(TypeIIParams(np.pi / 4, 1, -1))
        lams = sorted((e.lam for e in rep.eigenvalues), key=lambda z: z.imag)
        assert np.allclose(lams, [-1j, 1j], atol=1e-14)
        assert not rep.all_real

    def test_dirichlet_empty(self):
        rep = discrete_spectrum_separated(TypeIIParams(0.9, 0, 1))
        assert rep.eigenvalues == ()


class TestRealSpectrumPredicate:
    def test_condition_one(self):
        r = real_spectrum_predicate_type_I(TypeIParams(0, np.pi, 1, 0))
        assert r.is_real and r.condition == "I"

    def test_neither(self):
        r = real_spectrum_predicate_type_I(TypeIParams(0, 2 * np.pi / 3, 1, 4))
        assert not r.is_real and r.condition == "neither"

    def test_equality_case(self):
        r = real_spectrum_predicate_type_I(TypeIParams(0, np.pi / 4, 1, 1))
        assert r.is_real and r.condition == "both"

    def test_agreement_with_roots(self):
        rng = np.random.default_rng(8)
        mismatches = 0
        for _ in range(10_000):
            p = random_type_I(rng, b_max=5.0, c_max=5.0)
            pred = real_spectrum_predicate_type_I(p).is_real
            roots = dispersion_roots_type_I(p)
            direct = all(k.imag <= 0 or k.real == 0.0 for k in roots)
            mismatches += pred != direct
        assert mismatches == 0


class TestRealSpectrumGeneral:
    def test_common_phase_family(self):
        B = np.exp(0.7j) * np.array([[1, 1], [-1, 1]])
        assert real_spectrum_classify_general(B) == REAL_PURE_IMAGINARY_ROOTS

    def test_lower_half_case(self):
        B = np.array([[1, 1], [0, 1]], dtype=complex)
        assert real_spectrum_classify_general(B) == REAL_ALL_ROOTS_LOWER_HALF

    def test_complex_case(self):
        B = np.array([[1, 1], [1j, 1]])
        assert real_spectrum_classify_general(B) == COMPLEX_SPECTRUM

    def test_linear_branch_pure_imaginary(self):
        # beta = 0: single root classified directly
        B = np.array([[1, 0], [-2, 1]], dtype=complex)  # root k = i
        assert real_spectrum_classify_general(B) == REAL_PURE_IMAGINARY_ROOTS

    def test_linear_branch_lower_half(self):
        B = np.array([[1, 0], [2j, 1]], dtype=complex)  # root k = 1, on the axis
        assert real_spectrum_classify_general(B) == REAL_ALL_ROOTS_LOWER_HALF

    def test_linear_branch_complex(self):
        B = np.array([[1, 0], [-1 + 1j, 1]], dtype=complex)  # root k = (1+i)/2
        assert real_spectrum_classify_general(B) == COMPLEX_SPECTRUM

    def test_agreement_with_roots_random(self):
        # random complex matrices have no roots on the imaginary axis; type_I
        # draws and phased real matrices (a third with beta = 0) do
        rng = np.random.default_rng(9)
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(500)]
        mats += [matrix_from_type_I(random_type_I(rng)) for _ in range(500)]
        for _ in range(500):
            R = rng.normal(size=(2, 2))
            if rng.uniform() < 1 / 3:
                R[0, 1] = 0.0
            mats.append(np.exp(2j * np.pi * rng.uniform()) * R)
        seen = set()
        for B in mats:
            if abs(np.linalg.det(B)) < 1e-3:
                continue
            upper = [k for k in dispersion_roots_general(B) if k.imag > 0]
            if not upper:
                expected = REAL_ALL_ROOTS_LOWER_HALF
            elif all(abs(k.real) <= 1e-10 * max(1.0, abs(k)) for k in upper):
                expected = REAL_PURE_IMAGINARY_ROOTS
            else:
                expected = COMPLEX_SPECTRUM
            assert real_spectrum_classify_general(B) == expected
            seen.add(expected)
        assert seen == {REAL_ALL_ROOTS_LOWER_HALF, REAL_PURE_IMAGINARY_ROOTS, COMPLEX_SPECTRUM}

    def test_real_axis_roots_are_not_eigenvalues(self):
        # roots within DEFAULT_TOL of the real axis are not eigenvalues: the connected
        # matrices put a root 1e-12 above k = 0 and above k = sqrt(3) (the other root
        # at 0.7 - i and at -i), and rounding puts the separated model's roots k = +-1
        # (theta = pi/2) 6e-17 above the axis
        for k1, k2 in ((1e-12j, 0.7 - 1j), (np.sqrt(3) + 1e-12j, -1j)):
            # k^2 beta + i k (alpha + delta) - gamma = (k - k1)(k - k2) with beta = 1, alpha = 2
            B = np.array([[2, 1], [-k1 * k2, 1j * (k1 + k2) - 2]])
            assert 0 < max(k.imag for k in dispersion_roots_general(B)) < 1e-10
            assert discrete_spectrum_origin_connected(B).eigenvalues == ()
            assert real_spectrum_classify_general(B) == REAL_ALL_ROOTS_LOWER_HALF
        rep = discrete_spectrum_separated(TypeIIParams(np.pi / 2, 1.0, -1.0))
        assert rep.eigenvalues == () and len(rep.nonphysical_roots) == 2


class TestAxisRoots:
    def test_negative_real_eigenvalues_have_k_on_the_axis_with_real_part_plus_zero(self):
        # rounding in the phase-normalized coefficients left Re k = +-1e-16 or -0 here
        rng = np.random.default_rng(11)
        params = [random_type_I(rng) for _ in range(2000)] + [
            TypeIParams(0.5, 2.5, 1.0, 0.0),
            TypeIParams(0.0, 5.034555946803014, 0.2569475014308731, -2.2597841435433104),
        ]
        mats = np.array([matrix_from_type_I(p) for p in params])
        k = [e.k.k for B in mats for e in discrete_spectrum_origin_connected(B).eigenvalues if e.kind == NEGATIVE_REAL]
        assert len(k) > 500
        assert all(z.real == 0 and not np.signbit(z.real) for z in k)
        stack = discrete_spectrum_origin_connected(mats)
        negative_real = stack.lam[stack.all_real & (stack.count > 0)]
        assert not np.signbit(negative_real.imag).any()

    def test_complex_rows_are_not_made_real(self):
        # alpha + delta = 2 + 1e-9 i: an imaginary part far above rounding moves the roots
        # i (-1 +- sqrt(3)) off the axis by about 1e-10, and stays
        roots = dispersion_roots_general(np.array([[1 + 1e-9j, 1], [-2, 1]]))
        assert all(1e-10 < k.real < 1e-9 for k in roots)


class TestThetaInvariance:
    def test_spectra_do_not_depend_on_theta(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            b = rng.uniform(0.5, 3.0)
            c = rng.uniform(max(-1.0 / b, -3.0), 3.0)
            phi = rng.uniform(0, 2 * np.pi)
            base = None
            for th in (0.0, 1.1, 2.7):
                rep = discrete_spectrum_origin_connected(
                    matrix_from_type_I(TypeIParams(th, phi, b, c))
                )
                lams = [e.lam for e in rep.eigenvalues]
                if base is None:
                    base = lams
                else:
                    assert_same_multiset(base, lams, 1e-12)


class TestStructure:
    def test_reports_structurally_sound(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            if rng.random() < 0.5:
                rep = discrete_spectrum_origin_connected(
                    matrix_from_type_I(random_type_I(rng, b_max=3.0, c_max=3.0))
                )
            else:
                rep = discrete_spectrum_separated(
                    TypeIIParams(rng.uniform(0, 2 * np.pi), rng.normal(), rng.normal())
                )
            assert rep.total_multiplicity <= 2
            lams = [e.lam for e in rep.eigenvalues for _ in range(e.multiplicity)]
            for lam in lams:
                matched = min((abs(np.conj(lam) - mu) for mu in lams), default=np.inf)
                assert matched < 1e-9 * max(1.0, abs(lam))
            for e in rep.eigenvalues:
                if e.kind == NEGATIVE_REAL:
                    assert e.lam.imag == pytest.approx(0, abs=1e-9) and e.lam.real < 0
                assert e.k.k.imag > 0
                assert abs(e.lam - e.k.k**2) < 1e-12 * max(1.0, abs(e.lam))
