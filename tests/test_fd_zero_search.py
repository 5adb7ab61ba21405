"""The oracle's interface-determinant zero search against dense eigensolves of the same matrix.

finitediff.oracle_discrete_spectrum finds the eigenvalues of the matrix of
finitediff.discretize as zeros of a small determinant, without building the
matrix.  Here every candidate is checked against np.linalg.eigvals of that
matrix, filtered the same way, on models that stress the search: decoupled
halves with double continuum eigenvalues, near-double continuum pairs, an
exceptional point, delta couplings with delta != 0.
"""

import ast
import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ptpoint import finitediff
from ptpoint.boundary import (
    ConnectedOrigin,
    DeltaPair,
    SeparatedOrigin,
    TwoPoint,
    TypeIIParams,
    TypeIParams,
    matrix_from_type_I,
)
from ptpoint.errors import EigensolverFailure
from ptpoint.finitediff import (
    DROP_TOL,
    SYMMETRY_TOL,
    OracleConfig,
    _interface_rows,
    _pt_symmetric,
    discretize,
    oracle_discrete_spectrum,
)
from ptpoint.spectra import delta_pair_matrix, two_point_spectrum
from ptpoint.zeros import _track

from test_finitediff import ALL_MODELS, DELTA_WELL


def _seeded_two_point(seed):
    """A type_I two-point model with 1 + bc > 0, so delta != 0."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.3, 2.0)
    c = rng.uniform(-0.9 / b, 2.0)
    return TwoPoint(1.0, matrix_from_type_I(TypeIParams(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi), b, c)))


EXCEPTIONAL_POINT = ConnectedOrigin(matrix_from_type_I(TypeIParams(0.0, 3 * np.pi / 4, 1.0, 1.0)))

# name -> (model, N); L = 12 throughout
MODELS = {
    **{name: (spec, 600) for name, spec in ALL_MODELS.items()},
    "delta_pair_u-1": (DeltaPair(-1.0, 0.5, 1.0), 600),
    **{f"two_point_seed{seed}": (_seeded_two_point(seed), 600) for seed in (141, 142, 143)},
    # decoupled halves: every continuum eigenvalue is double
    "separated_dirichlet": (SeparatedOrigin(TypeIIParams(0.7, 0.0, 1.0)), 600),
    "delta_pair_zero": (DeltaPair(0.0, 0.0, 1.0), 1200),
    "separated_double": (SeparatedOrigin(TypeIIParams(0.0, 1.0, -1.0)), 600),
    "exceptional_point": (EXCEPTIONAL_POINT, 1200),
    # two zeros on the imaginary kappa axis, lambda = -7.36377 and -7.23080
    "close_axis_pair": (TwoPoint(1.0, matrix_from_type_I(TypeIParams(0.0, 3.0, 0.7, -0.25))), 600),
    # a complex delta: parity-symmetric but not PT, so searched without mirroring
    "complex_delta": (ConnectedOrigin(np.array([[1, 0], [-2 + 0.5j, 1]], dtype=complex)), 600),
}


def _filtered(ev, cfg):
    keep = (ev.real < -DROP_TOL) | (np.abs(ev.imag) > DROP_TOL)
    return ev[keep & (np.abs(ev) <= cfg.resolved_lambda_max)]


@functools.lru_cache(maxsize=None)
def _both(name):
    spec, N = MODELS[name]
    cfg = OracleConfig(L=12.0, N=N)
    M = discretize(spec, cfg)
    return oracle_discrete_spectrum(spec, cfg), _filtered(np.linalg.eigvals(M), cfg), np.max(np.abs(M))


@pytest.mark.parametrize("name", MODELS)
def test_same_candidates_as_dense_solve(name):
    cand, reference, peak = _both(name)
    assert len(cand) == len(reference)
    # at the exceptional point's Jordan pair the dense solve is only good to about
    # sqrt(eps max|M|): at N = 1200 it splits the pair by 4.8e-6 (the mean is
    # checked to 1e-9 below)
    tol = 4 * np.sqrt(np.finfo(float).eps * peak) if name == "exceptional_point" else 1e-9
    for a, b in ((cand, reference), (reference, cand)):
        for lam in a:
            assert np.min(np.abs(b - lam)) <= tol * max(1.0, abs(lam))


@pytest.mark.parametrize("name", [n for n, (spec, N) in MODELS.items()
                                  if _pt_symmetric(_interface_rows(spec, OracleConfig(12.0, N)), N)])
def test_pt_and_real_models_pair_exactly(name):
    cand = _both(name)[0]
    non_real = cand[cand.imag != 0]
    assert all(np.count_nonzero(cand == np.conj(lam)) == 1 for lam in non_real)
    assert np.count_nonzero(non_real.imag > 0) == np.count_nonzero(non_real.imag < 0)
    # negative candidates come from the imaginary kappa axis, solved in real arithmetic
    assert not np.any((cand.real < 0) & (np.abs(cand.imag) > 0) & (np.abs(cand.imag) <= DROP_TOL))


def test_exceptional_pair_and_cluster_both_come_out():
    cand, reference, _ = _both("exceptional_point")
    pair = cand[np.abs(cand + 1) < 1e-3]
    assert len(pair) == 2 and np.all(pair.imag == 0)
    # the mean of a Jordan pair is well conditioned even where its members are not
    assert abs(pair.mean() - reference[np.abs(reference + 1) < 1e-3].mean()) <= 1e-9
    cluster = _both("separated_double")[0]
    assert np.count_nonzero(np.abs(cluster + 1) <= 1e-3) == 2


@pytest.mark.parametrize("name", MODELS)
def test_symmetry_read_off_the_interface_rows(name):
    # the rows decide what the dense matrix shows: J conj(M) J = M for the flip J
    spec, N = MODELS[name]
    cfg = OracleConfig(L=12.0, N=N)
    M = discretize(spec, cfg)
    tol = SYMMETRY_TOL * np.finfo(float).eps * np.max(np.abs(M))
    assert _pt_symmetric(_interface_rows(spec, cfg), N) == (np.max(np.abs(np.conj(M[::-1, ::-1]) - M)) <= tol)


@pytest.mark.parametrize("name", ["connected_complex", "delta_well", "delta_pair_v0", "two_point_seed141"])
def test_determinant_derivative_matches_difference_quotient(name):
    # origin models (asymmetric and parity-symmetric) and two-point models (parity-
    # symmetric and PT); the fourth-order central difference with step 3e-4 is good
    # to about 1e-9 where F varies on the scale 1/(2L)
    spec, N = MODELS[name]
    cfg = OracleConfig(L=12.0, N=N)
    K = finitediff.SEARCH_K / cfg.h
    rng = np.random.default_rng(29)
    kappa = rng.uniform(-K, K, 200) + 1j * rng.uniform(DROP_TOL / (4 * K), K, 200)
    step = 3e-4
    det = finitediff._Determinant(_interface_rows(spec, cfg), N, cfg.h)
    _, slope = det(kappa)
    F = {j: det(kappa + j * step)[0] for j in (-2, -1, 1, 2)}
    quotient = (8 * (F[1] - F[-1]) - (F[2] - F[-2])) / (12 * step)
    assert np.all(np.abs(slope - quotient) <= 1e-7 * np.abs(slope))


def test_tracked_edge_passing_close_zeros():
    # one to three zeros 1e-12 .. 1e-5 above or below an edge, and in one trial in three
    # a pair 1e-9 .. 1e-4 apart that straddles it: the phase change along the edge is
    # exact, whichever zero a segment divides out
    rng = np.random.default_rng(19)
    nodes = np.linspace(0.0, 2.0, 129) + 1.5e-6j
    a, b = nodes[0], nodes[-1]
    for trial in range(300):
        n = rng.integers(1, 4)
        zeros = rng.uniform(0.05, 1.95, n) + 1.5e-6j + 1j * rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-12, -5, n)
        if trial % 3 == 0:
            centre, gap = rng.uniform(0.05, 1.95) + 1.5e-6j, 10 ** rng.uniform(-9, -4)
            half = 0.5 * gap * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
            zeros = np.append(zeros, [centre + half, centre - half])

        def f(kappa):
            d = kappa[..., None] - zeros
            P = np.prod(d, axis=-1)
            dP = sum(np.prod(np.delete(d, j, axis=-1), axis=-1) for j in range(len(zeros)))
            e = np.exp(0.3j * kappa)
            return e * P, e * (0.3j * P + dP)

        turn = _track(f, nodes[None]).sum()
        assert abs(turn - (np.sum(np.angle((b - zeros) / (a - zeros))) + 0.6)) < 1e-6


@pytest.mark.parametrize("spec, before", [(DELTA_WELL, 5593), (DeltaPair(-2.0, 0.0, 1.0), 6791)])
def test_search_evaluation_budget(spec, before, monkeypatch):
    # kappa points at which the search evaluates F at L = 12, N = 2400: `before` with
    # every continuum zero under the bottom edge bisected for 13 rounds and 8 lid nodes
    # per spacing; dividing those zeros out and the lid's node rule take 2779 and 4310
    points = []
    call = finitediff._Determinant.__call__

    def counted(self, kappa):
        points.append(np.size(kappa))
        return call(self, kappa)

    monkeypatch.setattr(finitediff._Determinant, "__call__", counted)
    oracle_discrete_spectrum(spec, OracleConfig(L=12.0, N=2400))
    assert sum(points) <= 0.8 * before


class TestLargeN:
    """Grids no dense solve could handle: the cost of the search does not grow like N^3."""

    def test_delta_well_at_96000(self):
        cand = oracle_discrete_spectrum(DELTA_WELL, OracleConfig(L=12.0, N=96000))
        assert len(cand) == 1
        assert abs(cand[0] + 1) <= 1e-9

    @pytest.mark.parametrize("spec, exact, tol", [
        (DELTA_WELL, [-0.99999999985097343], 5e-12),  # the README's well.json
        (TwoPoint(1.0, np.array([[1, 1], [-1, 0]], dtype=complex)), [-0.49250526788398669, -0.23197291571415593], 1e-11),
    ])
    def test_rounding_floor_at_96000(self, spec, exact, tol):
        # exact: the zeros of F at L = 12, N = 96 000 from the same float coefficients of the
        # interface rows, computed in 50-digit arithmetic (mpmath, not a dependency of the
        # package); the outer stretch terms grow like 1/(kappa h) and leave the float zeros
        # about 1e-12 from them
        cand = oracle_discrete_spectrum(spec, OracleConfig(L=12.0, N=96000))
        assert len(cand) == len(exact)
        for lam in exact:
            assert np.min(np.abs(cand - lam)) <= tol * abs(lam)

    def test_delta_pair_at_24000(self):
        # O(h^2) error, about 8e-8 for the root -1.07698 and 3e-7 for the pair
        # 0.876 +- 1.533i; L = 16 keeps the box truncation e^{-2 Im(k) L} of the
        # pair (Im k = 0.667) under that, where L = 12 leaves 1.3e-6
        cand = oracle_discrete_spectrum(DeltaPair(-2.0, 0.5, 1.0), OracleConfig(L=16.0, N=24000))
        rep = two_point_spectrum(delta_pair_matrix(-2.0, 0.5), 1.0, relation="operator")
        roots = [e.lam for e in rep.eigenvalues if abs(e.lam) < 3]
        assert len(roots) == 3
        for lam in roots:
            assert np.min(np.abs(cand - lam)) <= 1e-6

    def test_small_peak_memory(self):
        # the models and grids of the benchmark's FD cross-check (L = 12): at most
        # 3.3 MiB each, on the delta pair
        models = [
            (ConnectedOrigin(np.array([[1, 0], [-2, 1]], dtype=complex)), 2400),
            (SeparatedOrigin(TypeIIParams(0.4, 1.0, -1.0)), 1440),
            (DeltaPair(-2.0, 0.0, 1.0), 2400),
            (TwoPoint(1.0, matrix_from_type_I(TypeIParams(0.0, 2.8, 1.0, -0.5))), 1440),
        ]
        for spec, N in models:
            tracemalloc.start()
            try:
                oracle_discrete_spectrum(spec, OracleConfig(L=12.0, N=N))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20


class TestFailure:
    """The search raises rather than return a partial list."""

    def test_unresolved_edge(self, monkeypatch):
        monkeypatch.setattr("ptpoint.zeros.MAX_ROUNDS", 1)
        with pytest.raises(EigensolverFailure, match="cannot be resolved"):
            oracle_discrete_spectrum(DeltaPair(-2.0, 0.5, 1.0), OracleConfig(L=12.0, N=600))

    def test_zeros_that_cannot_be_refined(self, monkeypatch):
        monkeypatch.setattr("ptpoint.zeros.MAX_NEWTON", 0)
        with pytest.raises(EigensolverFailure):
            oracle_discrete_spectrum(DeltaPair(-2.0, 0.5, 1.0), OracleConfig(L=12.0, N=600))


def _package_imports(module):
    """(level, module, names) of each import of module from inside the package."""
    tree = ast.parse((Path(finitediff.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ptpoint")):
            local.add((node.level, node.module, tuple(alias.name for alias in node.names)))
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("ptpoint") for alias in node.names)
    return local


def test_finitediff_and_zeros_import_only_errors_and_spectra_not_finitediff():
    # the oracle and the zero search stay independent of the routes they check, and the
    # two-point route shares the search but not the oracle
    assert {(level, name) for level, name, _ in _package_imports("finitediff")} == {(1, "errors"), (1, "zeros")}
    assert {(level, name) for level, name, _ in _package_imports("zeros")} == {(1, "errors")}
    for _, name, names in _package_imports("spectra"):
        assert "finitediff" not in (name or "").split(".") + list(names)
