import functools

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
from ptpoint.errors import GridCollision, GridMismatch, InvalidParams
from ptpoint.finitediff import (
    DROP_TOL,
    OracleConfig,
    ROW_INTERFACE,
    ROW_INTERIOR,
    SEARCH_K,
    _assemble,
    _Determinant,
    _interface_rows,
    discretize,
    oracle_discrete_spectrum,
    oracle_resolvent_residual,
)
from ptpoint.spectra import (
    discrete_spectrum_origin_connected,
    real_spectrum_predicate_type_I,
)
from ptpoint.states import GridFunction, apply_resolvent
from ptpoint.zeros import find_zeros

DELTA_WELL = ConnectedOrigin(np.array([[1, 0], [-2, 1]], dtype=complex))

# models by the symmetry of their matrix: real and parity-symmetric (so also
# PT-symmetric), PT-symmetric only (real in the PT basis), neither (complex)
PARITY_MODELS = {
    "delta_well": DELTA_WELL,
    "delta_pair_v0": DeltaPair(-2.0, 0.0, 1.0),
}
PT_MODELS = {
    "separated": SeparatedOrigin(TypeIIParams(0.4, 1.0, -1.0)),
    "type_I_pairs": ConnectedOrigin(matrix_from_type_I(TypeIParams(0.0, 2 * np.pi / 3, 1.0, 4.0))),
    "delta_pair": DeltaPair(-2.0, 0.5, 1.0),
    "two_point": TwoPoint(1.0, matrix_from_type_I(TypeIParams(0.0, 2.8, 1.0, -0.5))),
}
ASYMMETRIC_MODELS = {
    "connected_complex": ConnectedOrigin(np.array([[1, 0.3j], [-2, 1]], dtype=complex)),
}
SYMMETRIC_MODELS = {**PARITY_MODELS, **PT_MODELS}
ALL_MODELS = {**SYMMETRIC_MODELS, **ASYMMETRIC_MODELS}
DENSE_N = 600

# two matrix entries that a symmetry maps onto each other match when they differ by at
# most SYMMETRY_TOL * eps * max|M|: on the 17 models of test_fd_zero_search those that PT
# maps onto each other differ by under 3 eps * max|M| where PT holds, and by over 1e13
# eps * max|M| where it fails
SYMMETRY_TOL = 64

# initial nodes per continuum spacing pi/(2L) along the walled search's bottom edge,
# which passes just above the box-truncated continuum; with 64 the count came out wrong
NODES_PER_SPACING = 8


def walled_discrete_spectrum(spec, cfg):
    """The eigenvalues of discretize's matrix, by the zero search on the walled determinant.

    The link between the oracle's determinant and the dense matrix: the same
    _Determinant with Dirichlet walls at +-L.  Its zeros include the
    box-truncated continuum, just above the real axis, so the search's
    bottom edge passes DROP_TOL/(4K) above it, K = SEARCH_K/h, from
    NODES_PER_SPACING nodes per continuum spacing, and the eigenvalues with
    Re < -DROP_TOL or |Im| > DROP_TOL are kept, capped at the horizon.
    """
    rows = _interface_rows(spec, cfg)
    h = cfg.h
    K = SEARCH_K / h
    f = _Determinant(rows, cfg.N, h, walls=True)
    kappa, multiplicity = find_zeros(
        f, K, DROP_TOL / (4 * K), np.pi / (2 * cfg.L), spec.pt_selfadjoint, NODES_PER_SPACING, pointwise=False
    )
    ev = np.repeat((2.0 / h * np.sin(0.5 * h * kappa)) ** 2, multiplicity)
    keep = (ev.real < -DROP_TOL) | (np.abs(ev.imag) > DROP_TOL)
    keep &= np.abs(ev) <= cfg.resolved_lambda_max
    out = ev[keep]
    return out[np.lexsort((out.imag, out.real))]


@functools.lru_cache(maxsize=None)
def _candidates(name):
    return walled_discrete_spectrum(ALL_MODELS[name], OracleConfig(L=12.0, N=DENSE_N))


class TestDiscretize:
    def test_free_matches_dirichlet_laplacian(self):
        cfg = OracleConfig(L=12.0, N=600)
        M = discretize(ConnectedOrigin(np.eye(2)), cfg)
        ev = np.sort(np.linalg.eigvals(M.real))
        for n in (1, 2, 3):
            expect = (n * np.pi / 24) ** 2
            assert abs(ev[n - 1] - expect) < 1e-3 * expect + 1e-6

    def test_selfadjoint_deviation_confined_to_interface_rows(self):
        cfg = OracleConfig(L=12.0, N=240)
        M = discretize(DELTA_WELL, cfg)
        kinds = _assemble(DELTA_WELL, cfg)[1]
        D = M - np.conj(M).T
        zone = set()
        for m in np.where(kinds == ROW_INTERFACE)[0]:
            zone.update(range(m - 1, m + 3))
        mask = np.ones(cfg.N, dtype=bool)
        mask[list(zone)] = False
        assert np.max(np.abs(D[np.ix_(mask, mask)])) == 0.0
        assert np.max(np.abs(D)) > 0  # the well itself is encoded somewhere

    def test_grid_collision(self):
        with pytest.raises(GridCollision):
            discretize(DeltaPair(0.0, 2.0, 1.0), OracleConfig(L=12.0, N=36))

    def test_degenerate_delta_pair(self):
        # B = [[1, 0], [1, 0]] is singular, but [I | -B] still has rank 2; the
        # dispersion has no root under either relation, so no candidate either
        assert len(oracle_discrete_spectrum(DeltaPair(0.0, 0.0, 1.0), OracleConfig(L=12.0, N=1200))) == 0


class TestOracleSpectrum:
    def test_free_operator_empty(self):
        assert len(oracle_discrete_spectrum(ConnectedOrigin(np.eye(2)), OracleConfig(L=12.0, N=400))) == 0

    def test_delta_well_bound_state(self):
        cand = oracle_discrete_spectrum(DELTA_WELL, OracleConfig(L=12.0, N=600))
        assert len(cand) == 1
        assert abs(cand[0] + 1) < 1e-3

    def test_convergence_at_least_second_order(self):
        errs = []
        for N in (300, 600, 1200):
            cand = oracle_discrete_spectrum(DELTA_WELL, OracleConfig(L=12.0, N=N))
            errs.append(abs(cand[0] + 1))
        for e0, e1 in zip(errs, errs[1:]):
            assert 3.2 < e0 / e1 < 10.0

    def test_separated_double_eigenvalue_cluster(self):
        spec = SeparatedOrigin(TypeIIParams(0.0, 1.0, -1.0))
        cand = oracle_discrete_spectrum(spec, OracleConfig(L=12.0, N=600))
        assert len(cand) == 2
        assert all(abs(c + 1) < 1e-3 for c in cand)

    def test_separated_dirichlet_no_discrete_spectrum(self):
        spec = SeparatedOrigin(TypeIIParams(0.7, 0.0, 1.0))
        cand = oracle_discrete_spectrum(spec, OracleConfig(L=12.0, N=400))
        assert len(cand) == 0

    def test_conjugate_pair_reproduced(self):
        B = matrix_from_type_I(TypeIParams(0.0, 2 * np.pi / 3, 1.0, 4.0))
        closed = [e.lam for e in discrete_spectrum_origin_connected(B).eigenvalues]
        cand = oracle_discrete_spectrum(ConnectedOrigin(B), OracleConfig(L=12.0, N=600))
        for lam in closed:
            nearest = cand[np.argmin(np.abs(cand - lam))]
            assert abs(nearest - lam) < 1e-2
        # paired exactly: the discretization commutes with reflection-conjugation
        up = [c for c in cand if c.imag > 1]
        dn = [c for c in cand if c.imag < -1]
        assert len(up) == 1 and len(dn) == 1
        assert abs(up[0] - np.conj(dn[0])) < 1e-9

    @pytest.mark.slow
    def test_real_spectrum_agreement_no_spurious_candidates(self):
        # 50 random real-spectrum models: every closed-form eigenvalue has an
        # oracle partner, and the oracle reports no extra negative candidates.
        # Eigenfunctions must decay enough for L = 12 (Im k >= 0.35) and sit in
        # the resolved range for N = 600.
        rng = np.random.default_rng(18)
        checked = 0
        while checked < 50:
            b = rng.uniform(0.3, 2.0)
            c = rng.uniform(-0.9 / b, 2.0)
            phi = rng.uniform(0, 2 * np.pi)
            p = TypeIParams(rng.uniform(0, 2 * np.pi), phi, b, c)
            if not real_spectrum_predicate_type_I(p).is_real:
                continue
            B = matrix_from_type_I(p)
            closed = [e.lam for e in discrete_spectrum_origin_connected(B).eigenvalues]
            if any(k.imag < 0.35 for k in
                   (e.k.k for e in discrete_spectrum_origin_connected(B).eigenvalues)):
                continue
            if any(abs(l) > 12 for l in closed):
                continue
            checked += 1
            cfg = OracleConfig(L=12.0, N=600)
            cand = oracle_discrete_spectrum(ConnectedOrigin(B), cfg)
            negatives = [c_ for c_ in cand if c_.real < -DROP_TOL and abs(c_.imag) < 1e-3]
            assert len(negatives) == len(closed)
            for lam in closed:
                tol = max(1e-2, 10 * cfg.h**2 * abs(lam))
                assert min(abs(lam - mu) for mu in negatives) < tol

    def test_delta_pair_interface_conditions_have_empty_point_spectrum(self):
        # the mirrored-condition operator with the delta-pair entry assignment
        # keeps both polynomial roots in the lower half-plane for every v; the
        # lattice moves its real spectral singularities k = n pi/2 just above
        # the real axis, where the candidate filter drops them
        for N in (600, 2400, 9600):
            assert len(oracle_discrete_spectrum(DeltaPair(0.0, 2.0, 1.0), OracleConfig(L=12.0, N=N))) == 0


class TestDenseReference:
    """The walled search against np.linalg.eigvals of the assembled matrix, filtered the same way."""

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_same_candidates_as_dense_solve(self, name):
        cfg = OracleConfig(L=12.0, N=DENSE_N)
        ev = np.linalg.eigvals(discretize(ALL_MODELS[name], cfg))
        keep = (ev.real < -DROP_TOL) | (np.abs(ev.imag) > DROP_TOL)
        reference = ev[keep & (np.abs(ev) <= cfg.resolved_lambda_max)]
        cand = _candidates(name)
        assert len(cand) == len(reference) > 0
        for a, b in ((cand, reference), (reference, cand)):
            for lam in a:
                assert np.min(np.abs(b - lam)) <= 1e-9 * max(1.0, abs(lam))

    @pytest.mark.parametrize(
        "models, parity, pt",
        [(PARITY_MODELS, True, True), (PT_MODELS, False, True), (ASYMMETRIC_MODELS, False, False)],
        ids=["parity", "pt", "asymmetric"],
    )
    def test_models_cover_each_symmetry(self, models, parity, pt):
        # J M J = M, J conj(M) J = M for the flip J, to rounding or far from it
        for spec in models.values():
            M = discretize(spec, OracleConfig(L=12.0, N=DENSE_N))
            tol = SYMMETRY_TOL * np.finfo(float).eps * np.max(np.abs(M))
            assert (np.max(np.abs(M[::-1, ::-1] - M)) <= tol) == parity
            assert (np.max(np.abs(np.conj(M[::-1, ::-1]) - M)) <= tol) == pt

    @pytest.mark.parametrize("name", SYMMETRIC_MODELS)
    def test_non_real_candidates_in_exact_conjugate_pairs(self, name):
        cand = _candidates(name)
        non_real = cand[cand.imag != 0]
        assert all(np.count_nonzero(cand == np.conj(lam)) == 1 for lam in non_real)
        assert np.count_nonzero(non_real.imag > 0) == np.count_nonzero(non_real.imag < 0)


class TestResolventResidual:
    def test_zero_solution_gives_unit_residual(self):
        F = GridFunction.sample(lambda x: np.exp(-(x**2)), 12.0, 300)
        U = GridFunction(12.0, 300, np.zeros(300, dtype=complex))
        r = oracle_resolvent_residual(DELTA_WELL, 1 + 1j, U, F)
        assert abs(r - 1.0) < 1e-12

    def test_grid_mismatch(self):
        F = GridFunction.sample(lambda x: np.exp(-(x**2)), 12.0, 300)
        U = GridFunction(10.0, 300, np.zeros(300, dtype=complex))
        with pytest.raises(GridMismatch):
            oracle_resolvent_residual(DELTA_WELL, 1 + 1j, U, F)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_solution_rejected(self, bad):
        F = GridFunction.sample(lambda x: np.exp(-(x**2)), 12.0, 300)
        with pytest.raises(InvalidParams, match="finite"):
            oracle_resolvent_residual(DELTA_WELL, 1 + 1j, GridFunction(12.0, 300, np.full(300, bad)), F)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, complex(np.nan, 1)])
    def test_non_finite_lambda_rejected(self, lam):
        F = GridFunction.sample(lambda x: np.exp(-(x**2)), 12.0, 300)
        with pytest.raises(InvalidParams, match="finite"):
            oracle_resolvent_residual(DELTA_WELL, lam, F, F)

    @pytest.mark.parametrize("N", [600, 1440])
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_stencil_equals_dense_residual(self, name, N):
        # the residual of the dense matrix of discretize, restricted to its interior rows
        spec = ALL_MODELS[name]
        F = GridFunction.sample(lambda x: np.exp(-(x**2)), 12.0, N)
        U = apply_resolvent(spec, 1 + 1j, F)
        M, kinds = _assemble(spec, U)
        interior = kinds == ROW_INTERIOR
        dense = np.linalg.norm((M @ U.values - (1 + 1j) * U.values - F.values)[interior])
        dense /= np.linalg.norm(F.values[interior])
        assert abs(oracle_resolvent_residual(spec, 1 + 1j, U, F) - dense) <= 1e-8 * dense


class TestConfig:
    def test_invariants(self):
        with pytest.raises(InvalidParams):
            OracleConfig(L=12.0, N=15)
        with pytest.raises(InvalidParams):
            OracleConfig(L=-1.0, N=64)

    @pytest.mark.parametrize("L", [0.0, -12.0, np.nan, np.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda L: OracleConfig(L=L, N=64),
            lambda L: GridFunction(L, 64, np.zeros(64)),
            lambda L: GridFunction.sample(np.exp, L, 64),
        ],
        ids=["config", "grid_function", "sample"],
    )
    def test_width_must_be_finite_and_positive(self, build, L):
        with pytest.raises(InvalidParams, match="finite and positive"):
            build(L)

    @pytest.mark.parametrize("L", [1e-300, 1e-160, 1e-154])
    def test_grid_too_fine_for_floats(self, L):
        # the ghost elimination squares entries of size 1/h, which overflowed in _ghosts
        with pytest.raises(InvalidParams, match="1/h\\^2 overflows"):
            OracleConfig(L=L, N=2400)
        with pytest.raises(InvalidParams, match="1/h\\^2 overflows"):
            oracle_resolvent_residual(DELTA_WELL, 1 + 1j, *[GridFunction.sample(np.exp, L, 64)] * 2)
        OracleConfig(L=1e-150, N=2400)  # 1/h^2 = 1.4e306

    def test_resolution_horizon_default(self):
        cfg = OracleConfig(L=12.0, N=2400)
        assert abs(cfg.resolved_lambda_max - (0.15 / 0.01) ** 2) < 1e-9

    def test_two_point_uses_mirrored_condition(self):
        # discretized two-point operator must agree with the origin-model
        # structure: build it and confirm it assembles with two interfaces
        spec = TwoPoint(1.0, np.array([[1.0, 1.0], [-1.0, 0.0]], dtype=complex))
        kinds = _assemble(spec, OracleConfig(L=12.0, N=600))[1]
        assert int(np.sum(kinds == ROW_INTERFACE)) == 4
