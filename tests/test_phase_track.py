"""Winding counts bisect on Python numbers; no outcome changes.

The reference below is the all-array phase tracker, in which every round is
one array pass through the dispersion.  spectra._phase_track tests the same
starting segments and bisects the ones that need it on Python numbers, one
point at a time through _ScaledDispersion.at.  Two-point solves with either
must give the same roots (bit for bit), multiplicities, operator certificates
and exceptions.  No golden values are used, so the comparison holds on any
numpy version and CPU.
"""

import functools

import numpy as np
import pytest

from ptpoint import spectra
from ptpoint.boundary import TypeIParams, delta_pair_matrix, matrix_from_type_I
from ptpoint.errors import ContourThroughZero, NoConvergence, PointInteractionError


def array_phase_track(f, z, w, guard):
    """Total change of arg f around the closed polygon z (w = f(z)), all edges in one array pass per round."""
    seg_a, seg_b = z, np.roll(z, -1)
    val_a, val_b = w, np.roll(w, -1)
    floor = 1e-13 * np.maximum(np.abs(seg_b - seg_a), 1.0)
    total = 0.0
    for _ in range(80):
        dphi = np.angle(val_b * np.conj(val_a))
        ratio = np.abs(val_b) / np.abs(val_a)
        bad = (np.abs(dphi) > np.pi / 2) | (ratio > 8.0) | (ratio < 0.125)
        total += float(np.sum(dphi[~bad]))
        if not np.any(bad):
            return total
        seg_a, seg_b, floor = seg_a[bad], seg_b[bad], floor[bad]
        val_a, val_b = val_a[bad], val_b[bad]
        if np.any(np.abs(seg_b - seg_a) < floor):
            raise ContourThroughZero("dispersion zero on or near the contour; perturb the rectangle")
        mid = 0.5 * (seg_a + seg_b)
        val_m = f(mid)
        if np.any(np.abs(val_m) <= guard):
            raise ContourThroughZero(
                "dispersion value below safety threshold on the contour; perturb the rectangle"
            )
        seg_a = np.concatenate([seg_a, mid])
        seg_b = np.concatenate([mid, seg_b])
        floor = np.concatenate([floor, floor])
        val_a = np.concatenate([val_a, val_m])
        val_b = np.concatenate([val_m, val_b])
        if len(seg_a) > 400_000:
            raise NoConvergence("phase tracking exceeded the segment budget")
    raise NoConvergence("phase tracking did not resolve the contour")


def _type_I_draws(n, seed):
    """Connected PT matrices over the whole family: theta, phi in U(0, 2 pi), b in U(0.1, 2), c in U(max(-1/b, -2), 2)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        theta, phi, b = rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0.1, 2.0)
        out.append(matrix_from_type_I(TypeIParams(theta, phi, b, rng.uniform(max(-1.0 / b, -2.0), 2.0))))
    return out


MODEL_SETS = {
    "delta_pair_grid": [delta_pair_matrix(u, v) for u in np.linspace(-3, 3, 13) for v in np.linspace(-3, 3, 13)],
    # gamma = 0: the dispersion zero at k = 0 is double
    "type_I_c0": [matrix_from_type_I(TypeIParams(0.0, phi, b, 0.0))
                  for b in (0.5, 1.0, 2.0) for phi in (0.0, 0.5, 1.5, 2.5, 3.0)],
    "type_I_draws": _type_I_draws(40, seed=7),
}


def outcome(B, relation):
    """Everything a solve reports, as a repr (exact for floats, and -0.0 differs from 0.0)."""
    try:
        rep = spectra.two_point_spectrum(B, 1.0, relation=relation)
    except PointInteractionError as exc:
        return f"{type(exc).__name__}: {exc}"
    eigs = [(e.k.k, e.lam, e.multiplicity, e.kind, e.operator_sv, e.operator_certified) for e in rep.eigenvalues]
    return repr((eigs, rep.nonphysical_roots, rep.all_real))


@functools.lru_cache(maxsize=None)
def outcomes(name, relation, tracker):
    """The outcomes of one model set under the reference tracker ("array") or spectra's own ("python")."""
    with pytest.MonkeyPatch.context() as mp:
        if tracker == "array":
            mp.setattr(spectra, "_phase_track", array_phase_track)
        return [outcome(B, relation) for B in MODEL_SETS[name]]


@pytest.mark.parametrize("relation", spectra.RELATIONS)
@pytest.mark.parametrize("name", MODEL_SETS)
def test_sets_cover_their_cases(name, relation):
    """Every set has failed solves; all but the c = 0 set also have solves that report."""
    got = outcomes(name, relation, "array")
    failed = [text for text in got if text.startswith(("ContourThroughZero", "NoConvergence"))]
    assert 0 < len(failed) and (len(failed) == len(got)) == (name == "type_I_c0")


@pytest.mark.parametrize("relation", spectra.RELATIONS)
@pytest.mark.parametrize("name", MODEL_SETS)
def test_outcomes_equal_the_array_tracker(name, relation):
    """Every bisection on Python numbers, from the first one on, solves as the array tracker does."""
    assert outcomes(name, relation, "python") == outcomes(name, relation, "array")


class _CountedDispersion:
    """A dispersion that counts its array passes and the Python numbers it is bisected at."""

    def __init__(self, disp, counts):
        self.disp, self.counts = disp, counts

    def __call__(self, k, mirrored=False):
        self.counts["array"] += 1
        return self.disp(k, mirrored)

    def at(self, k):
        self.counts["python" if type(k) is complex else "other"] += 1
        return self.disp.at(k)


@pytest.mark.parametrize("relation", spectra.RELATIONS)
def test_all_rounds_on_python_numbers(relation):
    """Every bisection round, from the first one on, evaluates at Python complex numbers; the draws solve as with the array tracker."""
    counts = {"array": 0, "python": 0, "other": 0}
    track = spectra._phase_track

    def counted(f, z, w, guard):
        return track(_CountedDispersion(f, counts), z, w, guard)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_phase_track", counted)
        got = [outcome(B, relation) for B in MODEL_SETS["type_I_draws"]]
    assert counts["python"] > 0 and counts["array"] == counts["other"] == 0
    assert got == outcomes("type_I_draws", relation, "array")


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
    """_ScaledDispersion.at gives Dt as __call__ does and Dt' as np.polyder does, to 1e-14 of the size of their terms.

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
        value, slope = np.array([disp.at(z) for z in k.tolist()]).T
        assert np.all(np.abs(value - disp(k)) <= 1e-14 * terms)
        expected, slope_terms = polyder_derivative(disp, k)
        assert np.all(np.abs(slope - expected) <= 1e-14 * slope_terms)
