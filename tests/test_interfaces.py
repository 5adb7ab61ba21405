"""The (position, Q) interface representation against the closed forms and the FD ghost solve."""

import numpy as np
import pytest

from ptpoint.boundary import (
    ConnectedOrigin,
    DeltaPair,
    SeparatedOrigin,
    TwoPoint,
    TypeIIParams,
    matrix_from_type_I,
    pt_mirror,
)
from ptpoint.finitediff import _ghosts
from ptpoint.spectra import discrete_spectrum_origin_connected, discrete_spectrum_separated
from ptpoint.states import KERNEL_TOL, interface_system

from test_boundary import random_type_I


def random_connected_B(rng):
    while True:
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(B)) > 1e-3:
            return B


def random_type_II(rng, i):
    theta = rng.uniform(0, 2 * np.pi)
    h0, h1 = rng.normal(), rng.normal()
    if i % 4 == 1:
        h0 = 0.0  # Dirichlet
    elif i % 4 == 2:
        theta = np.pi * rng.integers(0, 2)  # double root
    return TypeIIParams(theta, h0, h1)


def relative_svs(A, Q, k):
    """Singular values of a one-interface system over a bound on its row norms."""
    return np.linalg.svd(A, compute_uv=False) / (max(1.0, abs(k)) * max(1.0, float(np.max(np.abs(Q)))))


class TestClosedFormsAgainstGenericDeterminant:
    def test_connected_roots_and_determinant(self):
        rng = np.random.default_rng(40)
        checked = 0
        for i in range(100):
            B = random_connected_B(rng) if i % 2 else matrix_from_type_I(random_type_I(rng))
            spec = ConnectedOrigin(B)
            (_, Q), = spec.interfaces()
            for e in discrete_spectrum_origin_connected(B).eigenvalues:
                k = e.k.k
                A = interface_system(spec.interfaces(), k)
                A = A / np.linalg.norm(A, axis=1, keepdims=True)
                sv = np.linalg.svd(A, compute_uv=False)
                assert sv[-1] / sv[0] <= KERNEL_TOL, (B, k)
                checked += 1
            beta, tau, gamma = B[0, 1], B[0, 0] + B[1, 1], B[1, 0]
            for k in rng.normal(size=3) + 1j * rng.normal(size=3):
                disp = k * k * beta + 1j * k * tau - gamma
                terms = abs(k) ** 2 * abs(beta) + abs(k * tau) + abs(gamma)
                # columns ordered (left piece, right piece): det = -dispersion
                assert abs(np.linalg.det(interface_system(spec.interfaces(), k)) + disp) <= 1e-12 * terms
        assert checked > 50

    def test_separated_roots_with_multiplicity(self):
        rng = np.random.default_rng(41)
        seen_double = seen_dirichlet = 0
        for i in range(100):
            p = random_type_II(rng, i)
            spec = SeparatedOrigin(p)
            (_, Q), = spec.interfaces()
            report = discrete_spectrum_separated(p)
            seen_dirichlet += p.h0 == 0.0
            for e in report.eigenvalues:
                svs = relative_svs(interface_system(spec.interfaces(), e.k.k), Q, e.k.k)
                assert np.count_nonzero(svs <= KERNEL_TOL) == e.multiplicity, (p, e)
                seen_double += e.multiplicity == 2
        assert seen_double > 5 and seen_dirichlet == 25


def quadratic_side_values(nodes, values, s, h):
    """Value and derivative at s of the quadratic through three (node, value) pairs."""
    coeffs = np.polyfit((nodes - s) / h, values, 2)
    return coeffs[2], coeffs[1] / h


class TestGhostSolve:
    def conditions(self, rng):
        out = [ConnectedOrigin(random_connected_B(rng)).interfaces()[0][1] for _ in range(10)]
        out += [ConnectedOrigin(matrix_from_type_I(random_type_I(rng))).interfaces()[0][1] for _ in range(10)]
        for h0, h1 in [(0.0, 1.0), (1.0, 0.0)] + [tuple(rng.normal(size=2)) for _ in range(8)]:
            out.append(SeparatedOrigin(TypeIIParams(rng.uniform(0, 2 * np.pi), h0, h1)).interfaces()[0][1])
        for _ in range(5):
            B = matrix_from_type_I(random_type_I(rng))
            out.append(TwoPoint(1.0, B).interfaces()[0][1])
        return out

    @pytest.mark.parametrize("h", [0.1, 0.01, 0.001])
    def test_boundary_vector_satisfies_condition(self, h):
        rng = np.random.default_rng(42)
        s = 0.3
        x = s + h * np.array([-1.5, -0.5, 0.5, 1.5])  # nodes m-1, m, m+1, m+2
        for Q in self.conditions(rng):
            u = rng.normal(size=4) + 1j * rng.normal(size=4)
            w_l, w_r = _ghosts(Q, h)
            left = np.array([u[0], u[1], w_l @ u])  # left function, ghost at x_{m+1}
            right = np.array([w_r @ u, u[2], u[3]])  # right function, ghost at x_m
            v = np.array(
                quadratic_side_values(x[1:], right, s, h) + quadratic_side_values(x[:3], left, s, h)
            )
            # derivatives are differences of node values over h
            scale = np.max(np.abs(Q)) * max(np.max(np.abs(left)), np.max(np.abs(right))) / h
            assert np.max(np.abs(Q @ v)) <= 1e-12 * scale, Q


class TestMirroredCondition:
    def test_mirror_rows_encode_pt_mirror(self):
        rng = np.random.default_rng(43)
        for i in range(20):
            B = random_connected_B(rng) if i % 2 else matrix_from_type_I(random_type_I(rng))
            l = rng.uniform(0.2, 3.0)
            (s_left, Q_left), (s_right, Q_right) = TwoPoint(l, B).interfaces()
            assert s_left == -l and s_right == l
            assert np.array_equal(Q_right, np.hstack([np.eye(2), -B]))
            assert np.linalg.matrix_rank(Q_left) == 2
            for _ in range(3):
                v_plus = rng.normal(size=2) + 1j * rng.normal(size=2)
                v = np.concatenate([v_plus, pt_mirror(B) @ v_plus])  # v(-l-) = pt_mirror(B) v(-l+)
                assert np.max(np.abs(Q_left @ v)) <= 1e-12 * np.max(np.abs(v)) * max(1.0, np.max(np.abs(B)))

    def test_delta_pair_matches_two_point(self):
        for spec, B in ((DeltaPair(-2.0, 0.5, 1.0), [[1, 0], [1, -2 + 0.5j]]),
                        (DeltaPair(0.0, 2.0, 1.5), [[1, 0], [1, 2j]])):
            assert np.array_equal(spec.B, np.array(B, dtype=complex))
            for (s, Q), (s2, Q2) in zip(spec.interfaces(), TwoPoint(spec.l, spec.B).interfaces()):
                assert s == s2 and np.array_equal(Q, Q2)
