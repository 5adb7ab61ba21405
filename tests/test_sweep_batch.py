"""Origin sweeps are solved in chunks of SWEEP_CHUNK rows as arrays; no chunk size changes a byte.

Each expected CSV is built here one row at a time from the public
single-model API (model_from_dict, discrete_spectrum_*) and cli._fmt, the
way the sweep worked before it was batched.  No golden hashes are used, so
the comparison holds on any numpy version and CPU.
"""

import functools
import itertools
import json

import numpy as np
import pytest

from ptpoint import cli, spectra
from ptpoint.boundary import ConnectedOrigin, TypeIIParams, TypeIParams, matrix_from_type_I
from ptpoint.errors import PointInteractionError

PI = np.pi

# name: (sweep document without "output", texts that some row of its CSV must hold)
GRIDS = {
    # b = 0 (linear root or none), b < 0 and 1 + bc < 0 (errors); 1331 rows, not a multiple of 1024
    "type_I_b_c": (
        {"model": {"type": "type_I", "theta": 0.3, "phi": 2.0},
         "sweep": [{"name": "b", "min": -0.5, "max": 2, "steps": 11}, {"name": "c", "min": -3, "max": 3, "steps": 121}]},
        ["\n0,-3,", "b must be non-negative", "1 + b*c ="],
    ),
    # b = c = 0 at phi = pi/2 and 3 pi/2 vanishes identically; b = 0, c != 0 there has no root
    "type_I_phi_c": (
        {"model": {"type": "type_I", "theta": 1.0, "b": 0.0},
         "sweep": [{"name": "phi", "min": 0, "max": 2 * PI, "steps": 9}, {"name": "c", "min": -2, "max": 2, "steps": 5}]},
        ["DegenerateIdenticallyZero: dispersion vanishes identically", ",true,0,,,,,"],
    ),
    # theta in {0, pi, 2 pi}: one root of multiplicity 2 fills both eigenvalue columns
    "separated_theta_h1": (
        {"model": {"type": "separated", "h0": 1.0},
         "sweep": [{"name": "theta", "min": 0, "max": 2 * PI, "steps": 9}, {"name": "h1", "min": -2, "max": 2, "steps": 41}]},
        ["\n0,-2,true,2,-4,0,-4,0,\n", "\n3.1415926535897931,2,true,2,-4,0,-4,0,\n"],
    ),
    # h0 = h1 = 0 is an error; h0 = 0 alone has no eigenvalue; h0 < 0 is flipped
    "separated_h0_h1": (
        {"model": {"type": "separated", "theta": 0.7},
         "sweep": [{"name": "h0", "min": -1, "max": 1, "steps": 5}, {"name": "h1", "min": -1, "max": 1, "steps": 5}]},
        ["(h0; h1) must not be (0; 0)"],
    ),
    # one axis over several chunks, theta outside [0, 2 pi)
    "type_I_theta": (
        {"model": {"type": "type_I", "phi": 0.5, "b": 1.0, "c": 0.0},
         "sweep": [{"name": "theta", "min": -7, "max": 14, "steps": 1500}]},
        [],
    ),
    # an axis the model ignores: every row is the same model
    "connected_origin": (
        {"model": {"type": "connected_origin", "B": [[[1, 0], [0, 0]], [[-2, 0], [1, 0]]]},
         "sweep": [{"name": "b", "min": 0, "max": 1, "steps": 3}]},
        ["\n0,true,1,-1,0,,,\n"],
    ),
    "connected_origin_singular": (
        {"model": {"type": "connected_origin", "B": [[[1, 0], [2, 0]], [[2, 0], [4, 0]]]},
         "sweep": [{"name": "b", "min": 0, "max": 1, "steps": 3}]},
        ["interface matrix is singular"],
    ),
    "ignored_axis": (
        {"model": {"type": "type_I", "theta": 0.5, "phi": 0.5, "b": 1.0},
         "sweep": [{"name": "q", "min": 0, "max": 1, "steps": 3}, {"name": "c", "min": -2, "max": 2, "steps": 7}]},
        [],
    ),
    # entries past 1.34e154, whose det tolerance overflows: every row is an error, no traceback
    "type_I_huge_b": (
        {"model": {"type": "type_I", "theta": 0.0, "phi": 0.5, "c": 0.25},
         "sweep": [{"name": "b", "min": 1e200, "max": 1e201, "steps": 4}]},
        ["interface matrix entries must not exceed"],
    ),
    # a missing model field: every row is an error
    "missing_field": (
        {"model": {"type": "type_I", "theta": 0.5, "phi": 0.5},
         "sweep": [{"name": "b", "min": 0, "max": 1, "steps": 4}]},
        ["missing field 'c'"],
    ),
}


@functools.lru_cache(maxsize=None)
def expected_csv(name):
    doc = GRIDS[name][0]
    axes = [(ax["name"], np.linspace(ax["min"], ax["max"], ax["steps"])) for ax in doc["sweep"]]
    names = [n for n, _ in axes]
    lines = [",".join(names + ["all_real", "n_eigenvalues", "eig1_re", "eig1_im", "eig2_re", "eig2_im", "error"])]
    for values in itertools.product(*(g for _, g in axes)):
        point = dict(doc["model"])
        point.update(zip(names, map(float, values)))
        cells = [cli._fmt(v) for v in values]
        try:
            spec = cli.model_from_dict(point)
            if isinstance(spec, ConnectedOrigin):
                report = spectra.discrete_spectrum_origin_connected(spec.B)
            else:
                report = spectra.discrete_spectrum_separated(spec.params)
        except PointInteractionError as exc:
            cells += [""] * 6 + [f"{type(exc).__name__}: {exc}".replace(",", ";")]
        else:
            eigs = [e.lam for e in report.eigenvalues for _ in range(e.multiplicity)][:2]
            cells += [str(report.all_real).lower(), str(report.total_multiplicity)]
            for lam in eigs:
                cells += [cli._fmt(lam.real), cli._fmt(lam.imag)]
            cells += ["", ""] * (2 - len(eigs)) + [""]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", GRIDS)
def test_grid_covers_its_cases(name):
    text = expected_csv(name)
    for needle in GRIDS[name][1]:
        assert needle in text
    if name == "missing_field":
        assert all(line.endswith("missing field 'c'") for line in text.splitlines()[1:])


@pytest.mark.parametrize("chunk", [cli.SWEEP_CHUNK, 7, 1])
@pytest.mark.parametrize("name", GRIDS)
def test_chunked_sweep_matches_row_by_row(name, chunk, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
    out = tmp_path / "map.csv"
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(dict(GRIDS[name][0], output=str(out))), encoding="utf-8")
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == expected_csv(name).encode("utf-8")


def assert_row_is_report(rep, i, one):
    lams = [e.lam for e in one.eigenvalues for _ in range(e.multiplicity)]
    assert rep.ok[i] and rep.count[i] == len(lams) and rep.all_real[i] == one.all_real
    assert rep.lam[i].tolist() == (lams + [0j, 0j])[:2]


def test_connected_stack_rows_equal_single_calls():
    """A stack with singular, vanishing and valid matrices reports each row as the single call does."""
    rng = np.random.default_rng(3)
    mats = list(rng.normal(size=(40, 2, 2)) + 1j * rng.normal(size=(40, 2, 2)))
    mats += [np.eye(2), np.array([[1, 2], [2, 4]]), np.array([[1, 0], [0, -1]]), np.array([[0, 1], [-1, 0]]),
             np.array([[1, 0], [-2, 1]]), np.array([[np.inf, 0], [0, 1]])]
    rep = spectra.discrete_spectrum_origin_connected(np.array(mats, dtype=complex))
    for i, B in enumerate(mats):
        try:
            one = spectra.discrete_spectrum_origin_connected(B)
        except PointInteractionError:
            assert not rep.ok[i]
            continue
        assert_row_is_report(rep, i, one)


def test_type_I_stack_broadcasts_scalar_fields():
    phi = np.array([0.0, 0.5, PI / 2, PI, 4.0])
    for theta, b, c in [(0.0, 1.0, 0.0), (1.1, 0.0, -2.0), (2.0, 0.7, 0.5)]:
        rep = spectra.discrete_spectrum_origin_connected(matrix_from_type_I(TypeIParams(theta, phi, b, c)))
        for i, f in enumerate(phi):
            B = matrix_from_type_I(TypeIParams(theta, f, b, c))
            assert_row_is_report(rep, i, spectra.discrete_spectrum_origin_connected(B))


def test_separated_stack_broadcasts_scalar_fields():
    theta = np.array([0.0, 0.5, PI / 2, PI, 4.0, 2 * PI])
    for h0, h1 in [(1.0, -1.0), (0.0, 1.0), (-2.0, 0.5)]:
        rep = spectra.discrete_spectrum_separated(TypeIIParams(theta, h0, h1))
        for i, t in enumerate(theta):
            assert_row_is_report(rep, i, spectra.discrete_spectrum_separated(TypeIIParams(t, h0, h1)))
