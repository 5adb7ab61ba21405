"""The two-point dispersion as the zero search evaluates it, and the model sets that the search must solve.

spectra._ScaledDispersion.with_slope evaluates Dt and Dt' on arrays for
zeros.find_zeros; here it is checked against the plain evaluation and
against np.polyder.  The model sets hold the cases where the dispersion's
zero at k = 0 is double (delta_pair with u = -l, type_I with c = 0), which
an earlier finder could not solve, next to ordinary ones.
"""

import functools

import numpy as np
import pytest

from ptpoint import spectra
from ptpoint.boundary import TypeIParams, delta_pair_matrix, matrix_from_type_I
from ptpoint.errors import PointInteractionError

from test_two_point import _type_I_draws

MODEL_SETS = {
    "delta_pair_grid": [delta_pair_matrix(u, v) for u in np.linspace(-3, 3, 13) for v in np.linspace(-3, 3, 13)],
    # gamma = 0: the dispersion zero at k = 0 is double
    "type_I_c0": [matrix_from_type_I(TypeIParams(0.0, phi, b, 0.0))
                  for b in (0.5, 1.0, 2.0) for phi in (0.0, 0.5, 1.5, 2.5, 3.0)],
    "type_I_draws": _type_I_draws(40, seed=7),
}


@functools.lru_cache(maxsize=None)
def outcomes(name, relation):
    """The reports of one model set, or the exception a solve raised."""
    out = []
    for B in MODEL_SETS[name]:
        try:
            out.append(spectra.two_point_spectrum(B, 1.0, relation=relation))
        except PointInteractionError as exc:
            out.append(exc)
    return out


@pytest.mark.parametrize("relation", spectra.RELATIONS)
@pytest.mark.parametrize("name", MODEL_SETS)
def test_sets_cover_their_cases(name, relation):
    """Every model of every set solves, to a root set closed under k -> -conj(k); all but the c = 0 set have roots."""
    got = outcomes(name, relation)
    assert not [rep for rep in got if isinstance(rep, PointInteractionError)]
    for rep in got:
        ks = [e.k.k for e in rep.eigenvalues]
        for k in ks:
            assert min(abs(-np.conj(k) - kk) for kk in ks) <= 1e-8 * max(1.0, abs(k))
    assert any(rep.eigenvalues for rep in got)


def polyder_derivative(disp, k):
    """Dt'(k) on an array of k in numpy, through np.polyder and np.polyval, and the sum of its terms' moduli."""
    q = np.exp(4j * k * disp.l)
    P1, P2 = np.polyval(disp.p1, k), np.polyval(disp.p2, k)
    terms = [
        2.0 * disp.l * q * P1,
        -0.5j * (q - 1.0) * np.polyval(np.polyder(disp.p1), k),
        0.5 * (1.0 + q) * P2,
        2j * disp.l * k * q * P2,
        0.5 * k * (1.0 + q) * np.polyval(np.polyder(disp.p2), k),
    ]
    return sum(terms), sum(np.abs(t) for t in terms)


@pytest.mark.parametrize("relation", spectra.RELATIONS)
def test_scalar_evaluation_matches_array_evaluation(relation):
    """_ScaledDispersion.with_slope gives Dt as __call__ does and Dt' as np.polyder does, to 1e-14 of the size of their terms.

    Dt = -(i/2)(q-1) P1 + (k/2)(1+q) P2, and Dt' has five terms: where the
    terms cancel, neither evaluation keeps more digits than the terms have,
    so their size is the scale.
    """
    rng = np.random.default_rng(13)
    for _ in range(60):
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        disp = spectra._ScaledDispersion(B, rng.uniform(0.2, 3.0), relation)
        # |k| from 1e-7 (below the default contour's bottom edge) to 300
        k = 10 ** rng.uniform(-7, np.log10(300), 40) * np.exp(1j * rng.uniform(0, np.pi, 40))
        k = np.concatenate([k, 1e-6j + rng.uniform(-1e-3, 1e-3, 10)])
        q = np.exp(4j * k * disp.l)
        terms = np.abs(0.5 * (q - 1) * np.polyval(disp.p1, k)) + np.abs(0.5 * k * (1 + q) * np.polyval(disp.p2, k))
        value, slope = disp.with_slope(k)
        assert np.all(np.abs(value - disp(k)) <= 1e-14 * terms)
        expected, slope_terms = polyder_derivative(disp, k)
        assert np.all(np.abs(slope - expected) <= 1e-14 * slope_terms)
