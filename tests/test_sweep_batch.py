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
from ptpoint.boundary import (
    DEFAULT_TOL,
    MAX_ENTRY,
    ConnectedOrigin,
    TypeIIParams,
    TypeIParams,
    matrix_from_type_I,
    singular,
)
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
    # == takes -0 for +0: the signs of zero must match too
    expected = np.array((lams + [0j, 0j])[:2])
    assert np.signbit(rep.lam[i].real).tolist() == np.signbit(expected.real).tolist()
    assert np.signbit(rep.lam[i].imag).tolist() == np.signbit(expected.imag).tolist()


def assert_stack_rows_are_single_calls(mats):
    """Each row of the stack call reports what the single call reports, or is not ok where it raises."""
    rep = spectra.discrete_spectrum_origin_connected(np.array(mats, dtype=complex))
    for i, B in enumerate(mats):
        try:
            one = spectra.discrete_spectrum_origin_connected(B)
        except PointInteractionError:
            assert not rep.ok[i]
            continue
        assert_row_is_report(rep, i, one)
    return rep


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


def _near_threshold(side):
    """[[1, 1], [1, 1 + e]], whose det is e exactly, one to two ulps of 1 from the singularity threshold.

    The threshold is DEFAULT_TOL times the row maxima 1 and 1 + e; e is above
    it for side > 0 and below it otherwise, by at most 4.4e-6 of it.
    """
    ulp = np.finfo(float).eps
    e = (np.floor(DEFAULT_TOL / ulp) + (2 if side > 0 else -2)) * ulp
    return np.array([[1, 1], [1, 1 + e]], dtype=complex)


def test_connected_stack_rows_at_the_edges_equal_single_calls():
    """Rows at each edge of the closed form: the singularity test, MAX_ENTRY, a NaN, beta = 0, a vanishing
    relation, and a triple whose imaginary parts sit either side of 4 ulps of its largest coefficient."""
    eps = np.finfo(float).eps
    above, below = _near_threshold(+1), _near_threshold(-1)
    mats = [
        above, below, 1j * above, 1j * below,
        np.array([[MAX_ENTRY, 0], [0, 1]]), np.array([[np.nextafter(MAX_ENTRY, np.inf), 0], [0, 1]]),
        np.array([[1, 0], [MAX_ENTRY, 1]]), np.array([[MAX_ENTRY, 0], [0, MAX_ENTRY]]),
        np.array([[np.nan, 0], [0, 1]]), np.array([[1, 0], [0, np.nan]]),
        np.array([[2j, 0], [1, 1]]), np.array([[1, 0], [-3, -1]]), np.array([[1j, 0], [0, 1j]]),
        np.array([[1, 1e-15], [1e-15, -1]]), np.array([[1, 2e-14], [0, -1]]),
        np.array([[1, 1], [-2 + 6j * eps, 1]]), np.array([[1, 1], [-2 + 10j * eps, 1]]),
        np.array([[1, 1], [2 + 6j * eps, 1]]), np.array([[1, 1], [2 + 10j * eps, 1]]),
    ]
    rep = assert_stack_rows_are_single_calls(mats)
    assert singular(below) and not singular(above)
    assert rep.ok.tolist() == [True, False, True, False, True, False, False, True, False, False,
                               True, True, True, False, True, True, True, True, True]
    # tau = 2 is the largest coefficient: 6 eps is within 4 ulps of it, so the root k = (sqrt 3 - 1) i
    # has real part +0 and lambda = k^2 is exactly real; 10 eps is not, and leaves lambda off the axis
    assert rep.lam[15, 0].imag == 0.0 and not np.signbit(rep.lam[15, 0].imag) and rep.lam[16, 0].imag != 0.0


def test_separated_stack_rows_at_the_edges_equal_single_calls():
    """theta within 1e-14 of pi gives one double root, 2e-14 away two; h0 = 0 none; h0 < 0 is flipped."""
    theta = np.pi + np.array([-2e-14, -5e-15, 0.0, 5e-15, 2e-14])
    for h0, h1 in [(1.0, -1.0), (1.0, 1.0), (0.0, 1.0), (-2.0, 0.5), (-1.0, -3.0)]:
        rep = spectra.discrete_spectrum_separated(TypeIIParams(theta, h0, h1))
        for i, t in enumerate(theta):
            assert_row_is_report(rep, i, spectra.discrete_spectrum_separated(TypeIIParams(t, h0, h1)))
        if h0 == 1.0 and h1 == 1.0:  # k = -i e^{+-i theta}: near i, both eigenvalues
            assert rep.count.tolist() == [2, 2, 2, 2, 2] and (rep.lam[1:4, 0] == rep.lam[1:4, 1]).all()
            assert (rep.lam[[0, 4], 0] != rep.lam[[0, 4], 1]).all()
        if h0 == 0.0:
            assert rep.count.tolist() == [0] * 5


def test_solved_cells_print_each_float_as_float_format():
    """The % templates of the result cells print what format(x, FLOAT_FORMAT) prints, signs of zero included."""
    specials = [0.0, -0.0, 5e-324, -1.5611282634915153e-16, 1 / 3, 1e308, -np.inf, np.nan]
    rng = np.random.default_rng(8)
    parts = np.array(specials + list(rng.normal(size=16) * 10.0 ** rng.integers(-20, 20, 16)))
    lam = np.empty(len(parts), dtype=complex)
    lam.real, lam.imag = parts, parts[::-1]
    lam = lam.reshape(-1, 2)
    count = np.arange(len(lam)) % 5  # a count above 2 prints the first two eigenvalues
    all_real = np.arange(len(lam)) % 2 == 0
    for row, cells in enumerate(cli._solved_cells(all_real, count, lam)):
        want = [str(bool(all_real[row])).lower(), str(count[row])]
        for slot in range(2):
            z = lam[row, slot]
            shown = slot < count[row]
            want += [format(z.real, cli.FLOAT_FORMAT), format(z.imag, cli.FLOAT_FORMAT)] if shown else ["", ""]
        assert cells == ",".join(want + [""])


def test_two_point_sweep_rows_with_more_than_two_eigenvalues(tmp_path, capsys):
    """A point with three eigenvalues prints its count and the first two, as a row of the full width."""
    out = tmp_path / "map.csv"
    path = tmp_path / "sweep.json"
    doc = {"model": {"type": "delta_pair", "u": -1.5, "l": 3.0},
           "sweep": [{"name": "v", "min": 0.0, "max": 1.0, "steps": 2}], "output": str(out)}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    for v, line in zip((0.0, 1.0), rows):
        report = cli._spectrum_for(cli.model_from_dict(dict(doc["model"], v=v)))
        lams = [e.lam for e in report.eigenvalues for _ in range(e.multiplicity)]
        assert report.total_multiplicity == 3
        want = [cli._fmt(v), str(report.all_real).lower(), "3"]
        want += [format(x, cli.FLOAT_FORMAT) for lam in lams[:2] for x in (lam.real, lam.imag)]
        assert line == ",".join(want + [""])


def test_connected_roots_near_max_entry():
    """Coefficients near MAX_ENTRY, whose discriminant would overflow, keep their roots."""
    # beta = 1e141, tau = -2.4e154, gamma = 0: the roots 0 and -i tau / beta = 2.4e13 i
    M = np.array([[-1.2e154, 1e141], [0, -1.2e154]], dtype=complex)
    one = spectra.discrete_spectrum_origin_connected(M)
    assert [e.k.k for e in one.eigenvalues] == [pytest.approx(2.4e13j, rel=1e-15)]
    assert one.eigenvalues[0].lam.real == pytest.approx(-5.76e26, rel=1e-15)
    # tau^2 is 7e308 here: every root equals that of the same matrix scaled down by 2^300
    N = np.array([[1.2e154, 1e150], [-1e150, 1.2e154]], dtype=complex)
    assert spectra.dispersion_roots_general(N) == spectra.dispersion_roots_general(N * 2.0**-300)
    rep = assert_stack_rows_are_single_calls([M, N, N * 2.0**-300, matrix_from_type_I(TypeIParams(0.5, 2.5, 1, 0))])
    assert rep.ok.all() and rep.count.tolist() == [1, 1, 1, 1]
    assert rep.lam[1].tolist() == rep.lam[2].tolist()
