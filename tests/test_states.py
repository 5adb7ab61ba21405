import numpy as np
import pytest

from ptpoint.boundary import (
    ConnectedOrigin,
    DeltaPair,
    SeparatedOrigin,
    TwoPoint,
    TypeIIParams,
    TypeIParams,
    matrix_from_type_I,
)
from ptpoint.errors import (
    InvalidParams,
    InvalidRegion,
    NotAnEigenvalue,
    ResonantK,
    SpectrumPoint,
)
from ptpoint.finitediff import OracleConfig, oracle_resolvent_residual
from ptpoint.states import (
    GridFunction,
    PiecewiseExp,
    apply_resolvent,
    eigenfunction_origin,
    eigenfunction_two_point,
    interface_residual,
    pt_apply,
    pt_symmetry_defect,
    scattering_coefficients,
)

DELTA_WELL = np.array([[1, 0], [-2, 1]], dtype=complex)


class TestPiecewiseExp:
    def test_evaluation(self):
        f = PiecewiseExp(((-np.inf, 0.0, ((1.0, 1.0),)), (0.0, np.inf, ((1.0, -1.0),))))
        x = np.linspace(-3, 3, 7)
        assert np.allclose(f(x), np.exp(-np.abs(x)))

    def test_derivative(self):
        f = PiecewiseExp(((-np.inf, 0.0, ((1.0, 2.0),)), (0.0, np.inf, ((1.0, -2.0),))))
        assert np.allclose(f.derivative()([-1.0, 1.0]), [2 * np.e**-2, -2 * np.e**-2])

    def test_side_values(self):
        f = PiecewiseExp(((-np.inf, 0.0, ((1.0, 1.0),)), (0.0, np.inf, ((2.0, -1.0),))))
        assert f.side_values(0.0, "-") == (1.0, 1.0)
        assert f.side_values(0.0, "+") == (2.0, -2.0)

    def test_rejects_growing_tail(self):
        with pytest.raises(InvalidParams):
            PiecewiseExp(((0.0, np.inf, ((1.0, 0.5),)),))
        with pytest.raises(InvalidParams):
            PiecewiseExp(((-np.inf, 0.0, ((1.0, -0.5),)),))

    def test_rejects_gap(self):
        with pytest.raises(InvalidParams):
            PiecewiseExp(((-np.inf, 0.0, ()), (1.0, np.inf, ())))


class TestGridFunction:
    def test_nodes_are_staggered_and_symmetric(self):
        g = GridFunction.sample(lambda x: x, 4.0, 32)
        assert 0.0 not in g.nodes
        assert np.allclose(g.nodes, -g.nodes[::-1])
        assert abs(g.h - 0.25) < 1e-15

    def test_invariants(self):
        with pytest.raises(InvalidParams):
            GridFunction(4.0, 15, np.zeros(15))
        with pytest.raises(InvalidParams):
            GridFunction(4.0, 8, np.zeros(8))


class TestEigenfunctionOrigin:
    def test_type_I_bound_state(self):
        B = matrix_from_type_I(TypeIParams(0, np.pi, 1, 0))
        psi = eigenfunction_origin(B, 2j)
        x = np.linspace(-2, 2, 9)
        assert np.allclose(psi(x), np.exp(-2 * np.abs(x)))
        assert interface_residual(psi, B) < 1e-10

    def test_delta_bound_state(self):
        psi = eigenfunction_origin(DELTA_WELL, 1j)
        x = np.linspace(-3, 3, 13)
        assert np.allclose(psi(x), np.exp(-np.abs(x)))

    def test_free_has_none(self):
        with pytest.raises(NotAnEigenvalue):
            eigenfunction_origin(np.eye(2), 1j)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(NotAnEigenvalue):
            eigenfunction_origin(DELTA_WELL, -1j)

    def test_solves_equation_per_piece(self):
        from ptpoint.spectra import discrete_spectrum_origin_connected

        B = matrix_from_type_I(TypeIParams(0.3, 2 * np.pi / 3, 1, 4))
        k = max(
            (e.k.k for e in discrete_spectrum_origin_connected(B).eigenvalues),
            key=lambda z: z.imag,
        )
        psi = eigenfunction_origin(B, k)
        for _, _, terms in psi.pieces:
            for _, s in terms:
                assert abs(s * s + k * k) < 1e-12  # -psi'' = k^2 psi term by term
        assert interface_residual(psi, B) < 1e-10


class TestResolvent:
    def test_linearity_zero_input(self):
        F = GridFunction.sample(lambda x: np.zeros_like(x), 8.0, 64)
        U = apply_resolvent(ConnectedOrigin(np.eye(2)), 1 + 1j, F)
        assert np.allclose(U.values, 0)

    def test_free_resolvent_is_plain_convolution(self):
        F = GridFunction.sample(lambda x: np.exp(-(x**2)), 10.0, 400)
        U = apply_resolvent(ConnectedOrigin(np.eye(2)), 2 + 0.5j, F)
        k = np.sqrt(2 + 0.5j)
        x = F.nodes
        conv = -F.h * (np.exp(1j * k * np.abs(x[:, None] - x[None, :])) / (2j * k) @ F.values)
        assert np.allclose(U.values, conv)

    def test_residual_second_order(self):
        spec = ConnectedOrigin(DELTA_WELL)
        prev = None
        for N in (300, 600):
            F = GridFunction.sample(lambda x: np.exp(-(x**2)), 12.0, N)
            U = apply_resolvent(spec, 1 + 1j, F)
            r = oracle_resolvent_residual(spec, 1 + 1j, U, F)
            if prev is not None:
                assert 3.3 < prev / r < 4.7
            prev = r

    def test_boundary_conditions_hold(self):
        # quadratic one-sided extrapolation of the sampled solution to 0+-
        spec = ConnectedOrigin(DELTA_WELL)
        F = GridFunction.sample(lambda x: np.exp(-(x**2)), 12.0, 1200)
        U = apply_resolvent(spec, 1 + 1j, F)
        h, vals, n = U.h, U.values, U.N // 2
        m1, m2, m3 = vals[n - 1], vals[n - 2], vals[n - 3]  # x = -h/2, -3h/2, -5h/2
        p1, p2, p3 = vals[n], vals[n + 1], vals[n + 2]      # x = +h/2, +3h/2, +5h/2
        psi_m = (15 * m1 - 10 * m2 + 3 * m3) / 8
        dpsi_m = (2 * m1 - 3 * m2 + m3) / h
        psi_p = (15 * p1 - 10 * p2 + 3 * p3) / 8
        dpsi_p = -(2 * p1 - 3 * p2 + p3) / h
        resid = np.array([psi_p, dpsi_p]) - DELTA_WELL @ np.array([psi_m, dpsi_m])
        scale = max(abs(psi_p), abs(dpsi_p), 1e-300)
        assert np.max(np.abs(resid)) / scale < 5e-3  # O(h^2) at h = 0.02

    def test_spectrum_point(self):
        F = GridFunction.sample(lambda x: np.exp(-(x**2)), 8.0, 64)
        with pytest.raises(SpectrumPoint):
            apply_resolvent(ConnectedOrigin(DELTA_WELL), -1.0 + 1e-14j, F)
        with pytest.raises(SpectrumPoint):
            apply_resolvent(SeparatedOrigin(TypeIIParams(0, 1, -1)), -1.0 + 1e-14j, F)

    def test_invalid_region(self):
        F = GridFunction.sample(lambda x: np.exp(-(x**2)), 8.0, 64)
        with pytest.raises(InvalidRegion):
            apply_resolvent(ConnectedOrigin(DELTA_WELL), 2.5, F)

    def test_separated_resolvent_residual(self):
        spec = SeparatedOrigin(TypeIIParams(np.pi / 3, 1, -1))
        F = GridFunction.sample(lambda x: np.exp(-(x**2)), 12.0, 600)
        U = apply_resolvent(spec, 1 + 1j, F)
        assert oracle_resolvent_residual(spec, 1 + 1j, U, F) < 5e-3

    def test_separated_dirichlet_resolvent(self):
        # h0 = 0 decouples with psi(0+-) = 0; the solution vanishes at 0
        spec = SeparatedOrigin(TypeIIParams(0.7, 0, 1))
        F = GridFunction.sample(lambda x: np.exp(-(x**2)), 12.0, 600)
        U = apply_resolvent(spec, 1 + 1j, F)
        n = U.N // 2
        val0 = (15 * U.values[n] - 10 * U.values[n + 1] + 3 * U.values[n + 2]) / 8
        assert abs(val0) < 1e-3 * np.max(np.abs(U.values))
        assert oracle_resolvent_residual(spec, 1 + 1j, U, F) < 5e-3

    @pytest.mark.parametrize(
        "spec",
        [DeltaPair(-2, 0.5, 1), TwoPoint(1.0, matrix_from_type_I(TypeIParams(0, 2.8, 1, -0.5)))],
        ids=["delta_pair", "type_I"],
    )
    def test_two_point_resolvent_second_order(self, spec):
        # the interior residual and both interface conditions, read off U by the
        # one-sided quadratic extrapolation of test_boundary_conditions_hold, fall like h^2
        residuals, conditions = [], []
        for N in (600, 1200, 2400):
            F = GridFunction.sample(lambda x: np.exp(-(x**2)), 12.0, N)
            U = apply_resolvent(spec, 1 + 1j, F)
            residuals.append(oracle_resolvent_residual(spec, 1 + 1j, U, F))
            h, vals = U.h, U.values
            worst = []
            for s, Q in spec.interfaces():
                n = int(round((s + U.L) / h))  # x_n = s + h/2
                m1, m2, m3 = vals[n - 1], vals[n - 2], vals[n - 3]
                p1, p2, p3 = vals[n], vals[n + 1], vals[n + 2]
                w = np.array([
                    (15 * p1 - 10 * p2 + 3 * p3) / 8, -(2 * p1 - 3 * p2 + p3) / h,
                    (15 * m1 - 10 * m2 + 3 * m3) / 8, (2 * m1 - 3 * m2 + m3) / h,
                ])
                worst.append(np.max(np.abs(Q @ w)) / np.max(np.abs(w)))
            conditions.append(worst)
        for a, b in zip(residuals, residuals[1:]):
            assert 3.5 < a / b < 4.5
        for a, b in zip(conditions, conditions[1:]):
            assert all(3 < x / y < 5 for x, y in zip(a, b))
        assert max(conditions[-1]) < 5e-4


class TestPTApply:
    def test_even_real_function_fixed(self):
        psi = eigenfunction_origin(DELTA_WELL, 1j)
        image = pt_apply(psi)
        x = np.linspace(-2, 2, 11)
        assert np.allclose(image(x), psi(x))

    def test_plane_wave_on_grid(self):
        g = GridFunction.sample(lambda x: np.exp(1j * x), 5.0, 64)
        assert np.allclose(pt_apply(g).values, g.values)

    def test_involution(self):
        rng = np.random.default_rng(16)
        g = GridFunction(5.0, 64, rng.normal(size=64) + 1j * rng.normal(size=64))
        assert np.allclose(pt_apply(pt_apply(g)).values, g.values)


class TestSymmetryDefect:
    def test_even_function_has_zero_defect(self):
        psi = eigenfunction_origin(DELTA_WELL, 1j)
        assert pt_symmetry_defect(psi) < 1e-12

    def test_real_eigenvalue_eigenfunction(self):
        B = matrix_from_type_I(TypeIParams(0.4, np.pi, 1, 0))
        psi = eigenfunction_origin(B, 2j)
        assert pt_symmetry_defect(psi) < 1e-8

    def test_pair_member_defect_large(self):
        from ptpoint.spectra import discrete_spectrum_origin_connected

        B = matrix_from_type_I(TypeIParams(0, 2 * np.pi / 3, 1, 4))
        e = discrete_spectrum_origin_connected(B).eigenvalues[0]
        psi = eigenfunction_origin(B, e.k.k)
        assert pt_symmetry_defect(psi) > 0.1
        partner = pt_apply(psi)
        assert interface_residual(partner, B) < 1e-8


class TestScattering:
    def test_free(self):
        sd = scattering_coefficients(np.eye(2), 1.7)
        assert abs(sd.t_left - 1) < 1e-14 and abs(sd.r_left) < 1e-14
        assert abs(sd.t_right - 1) < 1e-14 and abs(sd.r_right) < 1e-14

    def test_delta_transmission(self):
        sd = scattering_coefficients(DELTA_WELL, 1.0)
        assert abs(sd.t_left - (1 + 1j) / 2) < 1e-14
        assert abs(abs(sd.t_left) ** 2 - 0.5) < 1e-14

    def test_selfadjoint_flux_conservation(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.uniform(-2, 2)
            b = rng.uniform(0.2, 2)
            c = (a * a - 1.0) / b
            B = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.array([[a, b], [c, a]])
            sd = scattering_coefficients(B, rng.uniform(0.3, 3.0))
            assert abs(abs(sd.t_left) ** 2 + abs(sd.r_left) ** 2 - 1) < 1e-10
            assert abs(abs(sd.t_right) ** 2 + abs(sd.r_right) ** 2 - 1) < 1e-10

    def test_nonselfadjoint_flux_not_conserved(self):
        B = matrix_from_type_I(TypeIParams(0, 1.0, 1.0, 0.5))
        sd = scattering_coefficients(B, 1.0)
        assert abs(abs(sd.t_left) ** 2 + abs(sd.r_left) ** 2 - 1) > 1e-3

    def test_resonant_k(self):
        B = matrix_from_type_I(TypeIParams(0, np.pi / 2, 1, 1))  # real roots at +-1
        with pytest.raises(ResonantK):
            scattering_coefficients(B, 1.0)


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "call",
        [
            lambda F: eigenfunction_origin(DELTA_WELL, complex(np.nan, 1)),
            lambda F: eigenfunction_two_point(DELTA_WELL, 1.0, complex(np.nan, 1)),
            lambda F: eigenfunction_two_point(DELTA_WELL, np.inf, 1j),
            lambda F: apply_resolvent(ConnectedOrigin(DELTA_WELL), complex(np.nan, 1), F),
            lambda F: apply_resolvent(ConnectedOrigin(DELTA_WELL), -np.inf, F),
            lambda F: scattering_coefficients(DELTA_WELL, np.inf),
        ],
        ids=["origin_k", "two_point_k", "two_point_l", "resolvent_nan", "resolvent_inf", "scattering_k"],
    )
    def test_rejected(self, call):
        with pytest.raises(InvalidParams, match="finite"):
            call(GridFunction.sample(lambda x: np.exp(-(x**2)), 8.0, 64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_resolvent_of_non_finite_samples_rejected(self, bad):
        values = np.exp(-OracleConfig(8.0, 64).nodes ** 2).astype(complex)
        values[17] = bad
        with pytest.raises(InvalidParams, match="finite"):
            apply_resolvent(ConnectedOrigin(DELTA_WELL), 1 + 1j, GridFunction(8.0, 64, values))
        with pytest.raises(InvalidParams, match="finite"):
            GridFunction.sample(lambda x: np.where(x > 0, bad, 1.0), 8.0, 64)


class TestFreeConvolution:
    def test_free_resolvent_equals_dense_kernel(self):
        # for B = I no interface correction remains, so U is the free convolution,
        # here against the N x N kernel e^{ik|x_i - x_j|} written out
        lam = 0.7 + 1.1j
        F = GridFunction.sample(lambda x: np.exp(-(((x - 0.3) / 1.1) ** 2)) * (1 + 0.5j * x), 12.0, 600)
        U = apply_resolvent(ConnectedOrigin(np.eye(2)), lam, F)
        k = np.sqrt(lam)
        x = F.nodes
        dense = F.h * (-np.exp(1j * k * np.abs(x[:, None] - x[None, :])) / (2j * k) @ F.values)
        assert np.max(np.abs(U.values - dense)) <= 1e-13 * np.max(np.abs(dense))
