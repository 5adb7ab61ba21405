"""Winding counts finish their last bisection rounds on Python numbers; no outcome changes.

The reference below is the all-array phase tracker, in which every round,
however few segments are live, is one array pass.  Two-point solves with it
and with spectra._phase_track must give the same roots (bit for bit),
multiplicities, operator certificates and exceptions.  No golden values are
used, so the comparison holds on any numpy version and CPU.
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
    """The outcomes of one model set under the reference tracker or spectra's own, with its scalar rounds counted."""
    calls = []
    few = spectra._phase_track_few

    def counted(*args):
        calls.append(1)
        return few(*args)

    with pytest.MonkeyPatch.context() as mp:
        if tracker == "array":
            mp.setattr(spectra, "_phase_track", array_phase_track)
        else:
            mp.setattr(spectra, "SCALAR_SEGMENTS", {"default": spectra.SCALAR_SEGMENTS, "scalar": 10**9}[tracker])
            mp.setattr(spectra, "_phase_track_few", counted)
        return [outcome(B, relation) for B in MODEL_SETS[name]], len(calls)


@pytest.mark.parametrize("relation", spectra.RELATIONS)
@pytest.mark.parametrize("name", MODEL_SETS)
def test_sets_cover_their_cases(name, relation):
    """Every set has failed solves; all but the c = 0 set also have solves that report."""
    got = outcomes(name, relation, "array")[0]
    failed = [text for text in got if text.startswith(("ContourThroughZero", "NoConvergence"))]
    assert 0 < len(failed) and (len(failed) == len(got)) == (name == "type_I_c0")


@pytest.mark.parametrize("relation", spectra.RELATIONS)
@pytest.mark.parametrize("name", MODEL_SETS)
def test_outcomes_equal_the_array_tracker(name, relation):
    got, scalar_calls = outcomes(name, relation, "default")
    # the c = 0 solves fail at a node of the first contour, before any bisection
    assert (scalar_calls > 0) == (name != "type_I_c0")
    assert got == outcomes(name, relation, "array")[0]


@pytest.mark.parametrize("relation", spectra.RELATIONS)
def test_all_rounds_on_python_numbers(relation):
    """With every round on Python numbers, from the first one on, the draws solve as with the array tracker."""
    got, scalar_calls = outcomes("type_I_draws", relation, "scalar")
    assert scalar_calls > 0 and got == outcomes("type_I_draws", relation, "array")[0]


@pytest.mark.parametrize("relation", spectra.RELATIONS)
def test_scalar_evaluation_matches_array_evaluation(relation):
    """_ScaledDispersion.at agrees with __call__ to 1e-14 of the size of the two terms of Dt.

    Dt = -(i/2)(q-1) P1 + (k/2)(1+q) P2: where the terms cancel, neither
    evaluation keeps more digits of Dt than of the terms, so they are the scale.
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
        scalar = np.array([disp.at(z) for z in k.tolist()])
        assert np.all(np.abs(scalar - disp(k)) <= 1e-14 * terms)
