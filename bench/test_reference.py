"""Tests of the benchmark's reference computations against published values.

Run with: python3 -m pytest -q bench
"""

import numpy as np

import reference


def _sv_minimum(B, l, lo, hi):
    """kappa in [lo, hi] minimizing the interface system's relative smallest singular value."""
    g = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        if reference.interface_sv(B, l, 1j * a) < reference.interface_sv(B, l, 1j * b):
            hi = b
        else:
            lo = a
    return 0.5 * (lo + hi)


def test_textbook_double_delta_levels():
    # -psi'' - 2 delta(x-1) psi - 2 delta(x+1) psi: value continuity and the
    # derivative jump -2 psi, B = [[1, 0], [-2, 1]], with even and odd levels
    # -1.22957 and -0.63491
    B = np.array([[1.0, 0.0], [-2.0, 1.0]])
    for published in (-1.22957, -0.63491):
        kappa = np.sqrt(-published)
        found = _sv_minimum(B, 1.0, 0.98 * kappa, 1.02 * kappa)
        assert abs(-found**2 - published) < 5e-6
        assert reference.interface_sv(B, 1.0, 1j * found) < 1e-10
    # away from the levels the system is well conditioned
    assert reference.interface_sv(B, 1.0, 1.0j) > 1e-2


def test_delta_pair_axis_root():
    # DeltaPair(-2, 0.5, 1): interface matrix [[1, 0], [1, -2 + 0.5i]], one
    # axis eigenvalue -1.0769778
    lams = reference.delta_pair_axis_roots(-2.0, 0.5, 1.0, kappa_max=4.0)
    assert len(lams) == 1
    assert abs(lams[0] - (-1.0769778)) < 5e-8
    B = np.array([[1.0, 0.0], [1.0, -2.0 + 0.5j]])
    assert reference.interface_sv(B, 1.0, 1j * np.sqrt(-lams[0])) < 1e-10


def test_type_I_origin_roots():
    # theta = 0, phi = pi, b = 1, c = 0: k^2 - 2ik = 0, so k = 2i and lambda = -4
    lams, all_real = reference.type_I_origin(0.0, np.pi, 1.0, 0.0)
    assert len(lams) == 1 and abs(lams[0] + 4.0) < 1e-12 and all_real
    # phi = 0, b = 1, c = -0.5: k^2 + i sqrt(2) k + 0.5 = 0, k = i(-1/sqrt(2) +- 1),
    # one physical root
    lams, all_real = reference.type_I_origin(0.0, 0.0, 1.0, -0.5)
    assert len(lams) == 1 and abs(lams[0] + (1 - 1 / np.sqrt(2)) ** 2) < 1e-14 and all_real
    # d > 0 with cos(phi) < 0: both roots share Im k > 0, a conjugate pair of lambdas
    lams, all_real = reference.type_I_origin(0.3, 2.5, 2.0, 1.5)
    assert len(lams) == 2 and abs(lams[0] - np.conj(lams[1])) < 1e-12 and not all_real
    assert abs(lams[0].imag) > 1e-3


def test_connected_and_separated_origin():
    # [[1, 0], [-2, 1]]: 2ik + 2 = 0, k = i, lambda = -1
    lams = reference.connected_origin(np.array([[1.0, 0.0], [-2.0, 1.0]]))
    assert len(lams) == 1 and abs(lams[0] + 1.0) < 1e-14
    # theta = 0.3, h1/h0 = -1: k = i e^{+-0.3i}, lambda = -e^{+-0.6i}
    lams, all_real = reference.separated_origin(0.3, 1.0, -1.0)
    assert reference.match_within([-np.exp(0.6j), -np.exp(-0.6j)], lams, lambda z: 1e-14)
    assert not all_real


def test_match_within_needs_distinct_partners():
    assert reference.match_within([1.0, 1.0], [1.0, 1.0 + 1e-9], lambda z: 1e-6)
    assert not reference.match_within([1.0, 1.0], [1.0], lambda z: 1e-6)
    assert not reference.match_within([1.0], [1.1], lambda z: 1e-6)
