import numpy as np
import pytest

from ptpoint.boundary import (
    ClassificationReport,
    ConnectedOrigin,
    DeltaPair,
    SeparatedOrigin,
    TwoPoint,
    TypeIIParams,
    TypeIParams,
    classify,
    is_pt_connected,
    is_selfadjoint_connected,
    matrix_from_type_I,
    pt_boundary_image,
    pt_mirror,
    type_I_from_matrix,
)
from ptpoint.errors import Degenerate, InvalidParams, NotInFamily
from ptpoint.spectra import ContourSpec, discrete_spectrum_origin_connected, two_point_spectrum


def random_type_I(rng, b_max=4.0, c_max=4.0):
    b = rng.uniform(0.0, b_max)
    c_lo = -1.0 / b if b > 1e-12 else -c_max
    c = rng.uniform(max(c_lo, -c_max), c_max)
    return TypeIParams(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi), b, c)


class TestTypeIMatrix:
    def test_free_operator(self):
        assert np.allclose(matrix_from_type_I(TypeIParams(0, 0, 0, 0)), np.eye(2))

    def test_delta_interaction(self):
        c0 = -2.7
        assert np.allclose(
            matrix_from_type_I(TypeIParams(0, 0, 0, c0)), [[1, 0], [c0, 1]]
        )

    def test_quarter_phases(self):
        B = matrix_from_type_I(TypeIParams(np.pi / 2, np.pi / 2, 1, 1))
        expect = np.array([[-np.sqrt(2), 1j], [1j, np.sqrt(2)]])
        assert np.allclose(B, expect, atol=1e-14)

    def test_determinant_is_phase(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = random_type_I(rng)
            det = np.linalg.det(matrix_from_type_I(p))
            assert abs(det - np.exp(2j * p.theta)) < 1e-12

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            TypeIParams(0, 0, -1.0, 0.0)
        with pytest.raises(InvalidParams):
            TypeIParams(0, 0, 2.0, -1.0)  # 1 + bc < 0


class TestTypeIExtraction:
    def test_delta_case(self):
        p = type_I_from_matrix(np.array([[1, 0], [-2, 1]], dtype=complex))
        assert (p.theta, p.phi, p.b, p.c) == (0.0, 0.0, 0.0, -2.0)

    def test_round_trip_of_example(self):
        B = np.array([[-np.sqrt(2), 1j], [1j, np.sqrt(2)]])
        p = type_I_from_matrix(B)
        assert abs(p.theta - np.pi / 2) < 1e-12
        assert abs(p.phi - np.pi / 2) < 1e-12
        assert abs(p.b - 1) < 1e-12 and abs(p.c - 1) < 1e-12

    def test_rejects_complex_offdiagonal(self):
        with pytest.raises(NotInFamily):
            type_I_from_matrix(np.array([[1, 1j], [0, 1]]))

    def test_rejects_unit_modulus_violation(self):
        with pytest.raises(NotInFamily):
            type_I_from_matrix(np.array([[2, 0], [0, 1]], dtype=complex))

    def test_rejects_diagonal_modulus_mismatch(self):
        # det = 1 and real off-diagonal, but |alpha| != sqrt(1 + bc)
        B = np.array([[1.2 * np.exp(0.4j), 0], [0, np.exp(-0.4j) / 1.2]])
        with pytest.raises(NotInFamily):
            type_I_from_matrix(B)

    def test_round_trip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            p = random_type_I(rng)
            B = matrix_from_type_I(p)
            q = type_I_from_matrix(B)
            assert np.max(np.abs(matrix_from_type_I(q) - B)) < 1e-12

    def test_pi_shifted_branch(self):
        # theta in [pi, 2pi) forces the shifted representative to keep b >= 0
        p = TypeIParams(4.0, 1.0, 1.0, 0.5)
        q = type_I_from_matrix(matrix_from_type_I(p))
        assert q.theta >= np.pi
        assert np.max(np.abs(matrix_from_type_I(q) - matrix_from_type_I(p))) < 1e-12


class TestPTConnected:
    def test_identity(self):
        assert is_pt_connected(np.eye(2))

    def test_family_always_passes(self):
        B = matrix_from_type_I(TypeIParams(1.1, 2.3, 0.7, 0.4))
        assert is_pt_connected(B)

    def test_upper_triangular_complex_fails(self):
        assert not is_pt_connected(np.array([[1, 1j], [0, 1]]))

    def test_degenerate_raises(self):
        with pytest.raises(Degenerate):
            is_pt_connected(np.array([[1, 0], [1, 0]], dtype=complex))


class TestSelfAdjointConnected:
    def test_real_delta(self):
        assert is_selfadjoint_connected(np.array([[1, 0], [-2, 1]], dtype=complex))

    def test_phase_times_real_unimodular(self):
        B = np.exp(1j * np.pi / 5) * np.array([[2, 1], [3, 2]])
        assert is_selfadjoint_connected(B)

    def test_complex_coupling_fails(self):
        assert not is_selfadjoint_connected(np.array([[1, 0], [1j, 1]]))

    def test_joint_family_characterization(self):
        # both predicates hold exactly on e^{i theta} [[a, b], [c, a]] with
        # a, b, c real and a^2 - bc = 1
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(-2, 2)
            b = rng.uniform(0.2, 2)
            c = (a * a - 1.0) / b
            th = rng.uniform(0, 2 * np.pi)
            B = np.exp(1j * th) * np.array([[a, b], [c, a]])
            assert is_pt_connected(B) and is_selfadjoint_connected(B)
            # unequal diagonal: still self-adjoint when det stays 1, no longer PT
            d = a + 0.7
            c2 = (a * d - 1.0) / b
            B2 = np.exp(1j * th) * np.array([[a, b], [c2, d]])
            assert is_selfadjoint_connected(B2) and not is_pt_connected(B2)
            # generic PT member with phi not 0 or pi: PT, not self-adjoint
            B3 = matrix_from_type_I(TypeIParams(th, 1.0, 1.0, 0.3))
            assert is_pt_connected(B3) and not is_selfadjoint_connected(B3)


class TestBoundaryImage:
    def test_basis_vectors(self):
        assert np.allclose(pt_boundary_image([1, 0, 0, 0]), [0, 0, 1, 0])
        assert np.allclose(pt_boundary_image([0, 1j, 0, 0]), [0, 0, 0, 1j])

    def test_involution(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert np.allclose(pt_boundary_image(pt_boundary_image(v)), v)


class TestClassify:
    def test_free_operator(self):
        rep = classify(ConnectedOrigin(np.eye(2)))
        assert rep.pt_selfadjoint and rep.selfadjoint and rep.family == "type_I"

    def test_separated_nonzero_phase(self):
        rep = classify(SeparatedOrigin(TypeIIParams(np.pi / 4, 1, 1)))
        assert rep.pt_selfadjoint and not rep.selfadjoint and rep.family == "type_II"

    def test_separated_selfadjoint_cases(self):
        assert classify(SeparatedOrigin(TypeIIParams(0.0, 1, 1))).selfadjoint
        assert classify(SeparatedOrigin(TypeIIParams(np.pi, 1, 1))).selfadjoint
        assert classify(SeparatedOrigin(TypeIIParams(1.3, 0, 1))).selfadjoint  # Dirichlet
        assert classify(SeparatedOrigin(TypeIIParams(1.3, 1, 0))).selfadjoint  # Neumann

    def test_general_connected(self):
        rep = classify(ConnectedOrigin(np.array([[1, 1j], [0, 1]])))
        assert not rep.pt_selfadjoint and not rep.selfadjoint and rep.family == "general"

    def test_two_point_always_pt(self):
        rep = classify(TwoPoint(1.0, np.array([[1, 1], [-1, 0]], dtype=complex)))
        assert rep.pt_selfadjoint

    def test_delta_pair_selfadjoint_case(self):
        rep = classify(DeltaPair(1.0, 0.0, 1.0))
        assert rep.pt_selfadjoint and rep.selfadjoint

    def test_delta_pair_degenerate(self):
        rep = classify(DeltaPair(0.0, 0.0, 1.0))
        assert rep.pt_selfadjoint and not rep.selfadjoint and "degenerate" in rep.notes


class TestSpecValidation:
    def test_two_point_needs_positive_l(self):
        with pytest.raises(InvalidParams):
            TwoPoint(0.0, np.eye(2))

    def test_connected_needs_nondegenerate(self):
        with pytest.raises(Degenerate):
            ConnectedOrigin(np.array([[1, 0], [1, 0]], dtype=complex))

    def test_type_II_canonical_form(self):
        p = TypeIIParams(0.5, -2.0, 2.0)
        assert abs(p.h0**2 + p.h1**2 - 1) < 1e-14 and p.h0 > 0

    def test_type_II_rejects_zero(self):
        with pytest.raises(InvalidParams):
            TypeIIParams(0.0, 0.0, 0.0)

    def test_pt_mirror_matches_inverse_exactly_on_pt_family(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            B = matrix_from_type_I(random_type_I(rng))
            assert np.max(np.abs(pt_mirror(B) - np.linalg.inv(B))) < 1e-10


NAN, INF = float("nan"), float("inf")


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: discrete_spectrum_origin_connected([[1, NAN], [0, 1]]),
            lambda: ConnectedOrigin(np.array([[1, 0], [INF, 1]])),
            lambda: TypeIParams(0, 0, NAN, 0),
            lambda: TypeIParams(-INF, 0, 1, 0),
            lambda: TypeIIParams(0, INF, 1),
            lambda: TypeIIParams(NAN, 1, 0),
            lambda: DeltaPair(NAN, 0, 1),
            lambda: DeltaPair(0, 1, INF),
            lambda: TwoPoint(INF, np.eye(2)),
            lambda: TwoPoint(1.0, np.array([[1, 0], [0, NAN]])),
            lambda: two_point_spectrum(np.array([[1, NAN], [0, 1]]), 1.0),
            lambda: two_point_spectrum(np.array([[1, NAN], [0, 1]]), 1.0, ContourSpec(-2, 2, 1e-6, 2)),
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(InvalidParams, match="finite"):
            build()
