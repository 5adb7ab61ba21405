"""Every model-file type in cli.MODEL_FILE_TYPES goes through the JSON round trip and every command."""

import json

import numpy as np
import pytest

from ptpoint import cli
from ptpoint.boundary import TwoPoint

# one sample document per model-file type, and a wave number of one of its
# eigenvalues (None: the eigenfunction command refuses the type)
SAMPLES = {
    "connected_origin": ({"type": "connected_origin", "B": [[[1, 0], [0, 0]], [[-2, 0], [1, 0]]]}, 1j),
    "type_I": (
        {"type": "type_I", "theta": 0.3, "phi": 2.0, "b": 1.5, "c": 0.25},
        0.24664863838958645 + 0.32531694675689693j,
    ),
    "separated": ({"type": "separated", "theta": 0.785, "h0": 1.0, "h1": -1.0}, None),
    "two_point": ({"type": "two_point", "l": 1.0, "B": [[[1, 0], [1, 0]], [[-1, 0], [0, 0]]]}, 0.70178737784347045j),
    # an operator eigenvalue: the printed relation's roots of this model are not eigenvalues
    "delta_pair": ({"type": "delta_pair", "u": -2.0, "v": 0.5, "l": 1.0}, 1.0377754111898623j),
}


def test_every_type_has_a_sample():
    assert set(SAMPLES) == set(cli.MODEL_FILE_TYPES) == set(cli.MODEL_TYPES)


def _round_trip(spec):
    """The model read back from the JSON text of model_to_dict(spec), with the same interfaces to 1e-15."""
    again = cli.model_from_dict(json.loads(json.dumps(cli.model_to_dict(spec))))
    assert type(again) is type(spec)
    for (s, Q), (t, R) in zip(spec.interfaces(), again.interfaces(), strict=True):
        assert s == t and np.allclose(Q, R, rtol=0, atol=1e-15)
    return again


@pytest.mark.parametrize("mtype", cli.MODEL_FILE_TYPES)
def test_json_round_trip(mtype):
    doc, _ = SAMPLES[mtype]
    _round_trip(cli.model_from_dict(doc))
    if cli.MODEL_FILE_TYPES[mtype].textbook is not None:
        textbook = cli.model_from_dict(doc, variant="textbook")
        assert isinstance(textbook, TwoPoint)
        _round_trip(textbook)


# TypeIIParams normalizes (h0, h1) again when the document is read back, and
# hypot of a normalized pair is not always exactly 1, so a last bit can move
INEXACT = pytest.mark.xfail(strict=True, reason="separated (h0, h1) are normalized again on reading")


@pytest.mark.parametrize(
    "mtype", [pytest.param(m, marks=INEXACT) if m == "separated" else m for m in cli.MODEL_FILE_TYPES]
)
def test_json_round_trip_is_exact(mtype):
    spec = cli.model_from_dict(SAMPLES[mtype][0])
    written = cli.model_to_dict(spec)
    again = _round_trip(spec)
    assert cli.model_to_dict(again) == written
    for (_, Q), (_, R) in zip(spec.interfaces(), again.interfaces()):
        assert np.array_equal(Q, R)


@pytest.mark.parametrize("mtype", cli.MODEL_FILE_TYPES)
def test_every_command(mtype, tmp_path, capsys):
    doc, k = SAMPLES[mtype]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["classify", str(path)]) == cli.EXIT_OK
    assert "family: " in capsys.readouterr().out
    eigs = tmp_path / "eigs.csv"
    assert cli.main(["spectrum", str(path), "--out", str(eigs)]) == cli.EXIT_OK
    assert "eigenvalue_count: " in capsys.readouterr().out
    assert eigs.read_text().startswith("lambda_re,lambda_im,k_re,k_im,multiplicity,kind\n")
    at = 1j if k is None else k
    argv = ["eigenfunction", str(path), "--k", repr(at.real), repr(at.imag), "--grid", "4", "9"]
    if k is None:
        assert cli.main(argv) == cli.EXIT_PARSE
        assert "eigenfunction export supports connected and two-point models" in capsys.readouterr().err
    else:
        assert cli.main(argv) == cli.EXIT_OK
        residual = capsys.readouterr().out.split("\n")[1]
        assert residual.startswith("# interface_residual = ")
        assert float(residual.split("=")[1]) < 1e-8


@pytest.mark.parametrize("mtype, line", [
    ("type_I", "params: theta = 0.29999999999999993  phi = 2  b = 1.5  c = 0.25"),
    ("separated", "params: theta = 0.78500000000000003  h0 = 0.70710678118654746  h1 = -0.70710678118654746"),
])
def test_classify_params_line(mtype, line, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(SAMPLES[mtype][0]), encoding="utf-8")
    assert cli.main(["classify", str(path)]) == cli.EXIT_OK
    assert line in capsys.readouterr().out.split("\n")
