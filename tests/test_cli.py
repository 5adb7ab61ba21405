import json

import numpy as np
import pytest

from ptpoint.boundary import ConnectedOrigin, DeltaPair, SeparatedOrigin, TwoPoint
from ptpoint.cli import (
    EXIT_DEGENERATE,
    EXIT_NOT_EIGENVALUE,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_PARSE,
    EXIT_SOLVER,
    ModelFileError,
    main,
    model_from_dict,
    model_to_dict,
)


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


DELTA_DOC = {"type": "type_I", "theta": 0.0, "phi": 0.0, "b": 0.0, "c": -2.0}
DP2_DOC = {"type": "delta_pair", "u": 0.0, "v": 2.0, "l": 1.0}


class TestModelFiles:
    def test_round_trip_all_types(self):
        docs = [
            {"type": "connected_origin", "B": [[[1, 0], [0, 0]], [[-2, 0], [1, 0]]]},
            {"type": "separated", "theta": 0.25, "h0": 0.6, "h1": -0.8},
            {"type": "two_point", "l": 1.5, "B": [[[1, 0], [1, 0]], [[0, 1], [1, 0]]]},
            {"type": "delta_pair", "u": 0.5, "v": 2.0, "l": 1.0},
        ]
        for doc in docs:
            spec = model_from_dict(doc)
            # through actual JSON text, as the files would round-trip
            again = model_from_dict(json.loads(json.dumps(model_to_dict(spec))))
            assert type(again) is type(spec)
            if isinstance(spec, (ConnectedOrigin, TwoPoint)):
                assert np.array_equal(spec.B, again.B)
            if isinstance(spec, SeparatedOrigin):
                assert spec.params == again.params
            if isinstance(spec, DeltaPair):
                assert (spec.u, spec.v, spec.l) == (again.u, again.v, again.l)

    def test_diagnostics_name_fields(self):
        with pytest.raises(ModelFileError, match="'c'"):
            model_from_dict({"type": "type_I", "theta": 0, "phi": 0, "b": 0})
        with pytest.raises(ModelFileError, match="'type'"):
            model_from_dict({"theta": 0})
        with pytest.raises(ModelFileError, match="B"):
            model_from_dict({"type": "connected_origin", "B": [[1, 2], [3, 4]]})

    def test_textbook_variant(self):
        spec = model_from_dict({"type": "delta_pair", "u": 2.0, "v": 0.0, "l": 1.0}, variant="textbook")
        assert isinstance(spec, TwoPoint)
        assert np.allclose(spec.B, [[1, 0], [2, 1]])


class TestClassifyCommand:
    def test_delta(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", DELTA_DOC)
        assert main(["classify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pt_selfadjoint: true" in out and "selfadjoint: true" in out

    def test_separated(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", {"type": "separated", "theta": np.pi / 4, "h0": 1.0, "h1": 1.0})
        assert main(["classify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pt_selfadjoint: true" in out and "selfadjoint: false" in out

    def test_general_connected(self, tmp_path, capsys):
        doc = {"type": "connected_origin", "B": [[[1, 0], [0, 1]], [[0, 0], [1, 0]]]}
        path = write_json(tmp_path / "m.json", doc)
        assert main(["classify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pt_selfadjoint: false" in out and "selfadjoint: false" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", {"type": "type_I", "theta": 0, "phi": 0, "b": 0})
        assert main(["classify", path]) == EXIT_PARSE
        assert "'c'" in capsys.readouterr().err

    def test_unreadable_file(self, capsys):
        assert main(["classify", "/nonexistent/model.json"]) == EXIT_PARSE


class TestSpectrumCommand:
    def test_type_I(self, tmp_path, capsys):
        doc = {"type": "type_I", "theta": 0.0, "phi": np.pi, "b": 1.0, "c": 0.0}
        path = write_json(tmp_path / "m.json", doc)
        assert main(["spectrum", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lambda = -4" in out and "all_real: true" in out

    def test_delta_pair_contour(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", DP2_DOC)
        assert main(["spectrum", path, "--contour", "-5", "5", "1e-6", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lambda = -1+0j" in out and "eigenvalue_count: 1" in out

    def test_free_model(self, tmp_path, capsys):
        doc = {"type": "type_I", "theta": 0.0, "phi": 0.0, "b": 0.0, "c": 0.0}
        path = write_json(tmp_path / "m.json", doc)
        assert main(["spectrum", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "eigenvalue_count: 0" in out and "all_real: true" in out

    def test_separated_model(self, tmp_path, capsys):
        doc = {"type": "separated", "theta": 0.0, "h0": 1.0, "h1": -1.0}
        path = write_json(tmp_path / "m.json", doc)
        assert main(["spectrum", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "multiplicity = 2" in out and "lambda = -1+0j" in out

    def test_csv_byte_stable(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", DP2_DOC)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["spectrum", path, "--out", str(out1)]) == EXIT_OK
        assert main(["spectrum", path, "--out", str(out2)]) == EXIT_OK
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes().endswith(b"\n")

    def test_degenerate_model_exit_code(self, tmp_path, capsys):
        doc = {"type": "connected_origin", "B": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]}
        path = write_json(tmp_path / "m.json", doc)
        assert main(["spectrum", path]) == EXIT_PARSE  # rejected at validation

    def test_huge_delta_pair_coupling_exit_code(self, tmp_path, capsys):
        # past MAX_ENTRY the dispersion coefficients overflow: spectrum says so as classify does
        path = write_json(tmp_path / "m.json", {"type": "delta_pair", "u": 1e200, "v": 1.0, "l": 1.0})
        for command in ("spectrum", "classify"):
            assert main([command, path]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert err == "error: interface matrix entries must not exceed 1.341e+154 in modulus\n"

    def test_delta_pair_coupling_below_max_entry_overflows_on_the_contour(self, tmp_path, capsys):
        # |u|^2 fits in a float but k^2 |u|^2 at the contour's corners does not: a solver
        # error that names the overflow, and no RuntimeWarning
        path = write_json(tmp_path / "m.json", {"type": "delta_pair", "u": 1.3e154, "v": 1.0, "l": 1.0})
        assert main(["spectrum", path]) == EXIT_SOLVER
        assert "overflows" in capsys.readouterr().err

    def test_two_point_entry_near_max_entry_overflows_the_default_contour(self, tmp_path, capsys):
        # |g|^2 / |b|^2 overflows in the default rectangle: a usage error that names the
        # overflow, and no RuntimeWarning
        doc = {"type": "two_point", "l": 1.0, "B": [[[1, 0], [-0.173, 0]], [[3.98e153, 0], [1, 0]]]}
        path = write_json(tmp_path / "m.json", doc)
        assert main(["spectrum", path]) == EXIT_PARSE
        assert "default contour overflows" in capsys.readouterr().err

    def test_unimodular_matrix_with_a_large_entry(self, tmp_path, capsys):
        # det B = 1 is not singular however large b is, as long as the rows stay apart
        doc = {"type": "type_I", "theta": 0.0, "phi": 0.5, "b": 1e5, "c": 0.0}
        path = write_json(tmp_path / "m.json", doc)
        assert main(["spectrum", path]) == EXIT_OK
        assert "eigenvalue_count: 0" in capsys.readouterr().out

    def test_identically_zero_dispersion_exit_code(self, tmp_path, capsys):
        doc = {"type": "type_I", "theta": 0.0, "phi": np.pi / 2, "b": 0.0, "c": 0.0}
        path = write_json(tmp_path / "m.json", doc)
        assert main(["spectrum", path]) == EXIT_DEGENERATE

    @pytest.mark.parametrize("doc", [DELTA_DOC, {"type": "separated", "theta": 0.4, "h0": 1.0, "h1": -1.0}])
    def test_contour_rejected_on_origin_models(self, tmp_path, capsys, doc):
        path = write_json(tmp_path / "m.json", doc)
        assert main(["spectrum", path, "--contour", "-5", "5", "1e-6", "5"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert "--contour" in captured.err and captured.out == ""

    def test_contour_through_root_exit_code(self, tmp_path, capsys):
        # k = i sits exactly on the requested top edge
        path = write_json(tmp_path / "m.json", DP2_DOC)
        assert main(["spectrum", path, "--contour", "-5", "5", "1e-6", "1"]) == EXIT_SOLVER
        assert "perturb" in capsys.readouterr().err


class TestSweepCommand:
    def test_delta_pair_region(self, tmp_path, capsys):
        sweep = {
            "model": {"type": "delta_pair", "u": 0.0, "l": 1.0},
            "sweep": [{"name": "v", "min": -3.0, "max": 3.0, "steps": 9}],
            "output": str(tmp_path / "map.csv"),
        }
        path = write_json(tmp_path / "s.json", sweep)
        assert main(["sweep", path]) == EXIT_OK
        rows = (tmp_path / "map.csv").read_text().strip().split("\n")
        assert rows[0] == "v,all_real,n_eigenvalues,eig1_re,eig1_im,eig2_re,eig2_im,error"
        assert len(rows) == 10
        assert all(row.split(",")[1] == "true" for row in rows[1:])

    def test_single_point_matches_spectrum(self, tmp_path, capsys):
        sweep = {
            "model": {"type": "type_I", "theta": 0.0, "b": 1.0, "c": 0.0},
            "sweep": [{"name": "phi", "min": np.pi, "max": np.pi + 1, "steps": 2}],
            "output": str(tmp_path / "one.csv"),
        }
        path = write_json(tmp_path / "s.json", sweep)
        assert main(["sweep", path]) == EXIT_OK
        rows = (tmp_path / "one.csv").read_text().strip().split("\n")
        first = rows[1].split(",")
        assert first[1] == "true" and first[2] == "1"
        assert abs(float(first[3]) + 4.0) < 1e-10

    def test_region_boundary_matches_predicate(self, tmp_path):
        from ptpoint.boundary import TypeIParams
        from ptpoint.spectra import real_spectrum_predicate_type_I

        sweep = {
            "model": {"type": "type_I", "theta": 0.0, "b": 1.0},
            "sweep": [
                {"name": "phi", "min": 0.0, "max": 2 * np.pi, "steps": 11},
                {"name": "c", "min": -1.0, "max": 4.0, "steps": 6},
            ],
            "output": str(tmp_path / "region.csv"),
        }
        path = write_json(tmp_path / "s.json", sweep)
        assert main(["sweep", path]) == EXIT_OK
        rows = (tmp_path / "region.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 66
        for row in rows:
            cells = row.split(",")
            phi, c = float(cells[0]), float(cells[1])
            expect = real_spectrum_predicate_type_I(TypeIParams(0.0, phi, 1.0, c)).is_real
            assert cells[2] == str(expect).lower()

    def test_errors_reported_per_point(self, tmp_path):
        sweep = {
            "model": {"type": "type_I", "theta": 0.0, "phi": 0.0, "c": 0.5},
            "sweep": [{"name": "b", "min": -0.5, "max": 0.5, "steps": 3}],
            "output": str(tmp_path / "err.csv"),
        }
        path = write_json(tmp_path / "s.json", sweep)
        assert main(["sweep", path]) == EXIT_OK
        rows = (tmp_path / "err.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 3
        assert "InvalidParams" in rows[0] or "ModelFileError" in rows[0]
        assert rows[2].split(",")[-1] == ""  # b = 0.5 computes fine

    def test_out_flag_overrides_document(self, tmp_path, capsys):
        sweep = {
            "model": DELTA_DOC,
            "sweep": [{"name": "c", "min": -2.0, "max": 0.0, "steps": 3.0}],
            "output": str(tmp_path / "doc.csv"),
        }
        path = write_json(tmp_path / "s.json", sweep)
        assert main(["sweep", path, "--out", str(tmp_path / "flag.csv")]) == EXIT_OK
        assert len((tmp_path / "flag.csv").read_text().strip().split("\n")) == 4
        assert not (tmp_path / "doc.csv").exists()

    def test_fractional_steps_rejected(self, tmp_path, capsys):
        sweep = {
            "model": DELTA_DOC,
            "sweep": [{"name": "c", "min": -2.0, "max": 0.0, "steps": 2.9}],
            "output": str(tmp_path / "map.csv"),
        }
        assert main(["sweep", write_json(tmp_path / "s.json", sweep)]) == EXIT_PARSE
        assert "'steps'" in capsys.readouterr().err
        assert not (tmp_path / "map.csv").exists()


class TestOracleCommand:
    def test_delta_well_matches(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", DELTA_DOC)
        assert main(["oracle", path, "--L", "12", "--N", "600"]) == EXIT_OK
        assert "matched: true" in capsys.readouterr().out

    def test_free_model_trivially_matches(self, tmp_path, capsys):
        doc = {"type": "type_I", "theta": 0.0, "phi": 0.0, "b": 0.0, "c": 0.0}
        path = write_json(tmp_path / "m.json", doc)
        assert main(["oracle", path, "--L", "12", "--N", "400"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "closed_form_count: 0" in out and "oracle_count: 0" in out

    def test_singular_delta_pair_accepted(self, tmp_path, capsys):
        # B = [[1, 0], [1, 0]] is singular, but [I | -B] is a rank-2 condition,
        # accepted here as by spectrum and sweep
        path = write_json(tmp_path / "m.json", {"type": "delta_pair", "u": 0.0, "v": 0.0, "l": 1.0})
        assert main(["oracle", path, "--L", "12", "--N", "600"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "closed_form_count: 0" in out and "oracle_count: 0" in out

    def test_delta_pair_mismatch_reported(self, tmp_path, capsys):
        # the closed-form relation has a zero at k = i for v = 2, but the
        # discretized interface conditions produce no such eigenvalue; the
        # command reports the disagreement through its exit code
        path = write_json(tmp_path / "m.json", DP2_DOC)
        assert main(["oracle", path, "--L", "12", "--N", "600"]) == EXIT_ORACLE_MISMATCH
        out = capsys.readouterr().out
        assert "oracle = (none)" in out and "matched: false" in out


class TestEigenfunctionCommand:
    def test_delta_bound_state_csv(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", DELTA_DOC)
        out = tmp_path / "psi.csv"
        assert main(["eigenfunction", path, "--k", "0", "1", "--grid", "4", "9", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        lines = out.read_text().split("\n")
        assert lines[0].startswith("# pt_defect = 0")
        assert lines[1].startswith("# interface_residual = ")
        assert lines[2] == "x,psi_re,psi_im"
        mid = lines[3 + 4].split(",")
        assert abs(float(mid[1]) - 1.0) < 1e-12  # psi(0) = 1

    def test_not_an_eigenvalue_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", DELTA_DOC)
        assert main(["eigenfunction", path, "--k", "0", "2"]) == EXIT_NOT_EIGENVALUE

    def test_singular_delta_pair_has_no_eigenfunction(self, tmp_path, capsys):
        # accepted as a rank-2 condition, like every other command, and k = i is no eigenvalue
        path = write_json(tmp_path / "m.json", {"type": "delta_pair", "u": 0.0, "v": 0.0, "l": 1.0})
        assert main(["eigenfunction", path, "--k", "0", "1"]) == EXIT_NOT_EIGENVALUE

    def test_two_point_eigenfunction(self, tmp_path, capsys):
        doc = {"type": "two_point", "l": 1.0, "B": [[[1, 0], [1, 0]], [[-1, 0], [0, 0]]]}
        path = write_json(tmp_path / "m.json", doc)
        from ptpoint.spectra import two_point_spectrum

        B = np.array([[1, 1], [-1, 0]], dtype=complex)
        k = two_point_spectrum(B, 1.0).eigenvalues[0].k.k
        assert main(["eigenfunction", path, "--k", str(k.real), str(k.imag)]) == EXIT_OK
        out = capsys.readouterr().out
        resid = float(out.split("\n")[1].split("=")[1])
        assert resid < 1e-8


class TestNonFiniteInput:
    def test_nan_scalar_field(self, tmp_path, capsys):
        doc = {"type": "type_I", "theta": 0, "phi": float("nan"), "b": 1, "c": 0.5}
        path = write_json(tmp_path / "m.json", doc)
        assert "NaN" in (tmp_path / "m.json").read_text()
        assert main(["spectrum", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert "'phi'" in captured.err and captured.out == ""

    def test_infinity_matrix_entry(self, tmp_path, capsys):
        doc = {"type": "connected_origin", "B": [[[1, 0], [0, 0]], [[float("inf"), 0], [1, 0]]]}
        path = write_json(tmp_path / "m.json", doc)
        assert "Infinity" in (tmp_path / "m.json").read_text()
        assert main(["spectrum", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert "B[1][0]" in captured.err and captured.out == ""

    def test_infinite_sweep_steps(self, tmp_path, capsys):
        sweep = {
            "model": DELTA_DOC,
            "sweep": [{"name": "c", "min": -2.0, "max": 0.0, "steps": float("inf")}],
            "output": str(tmp_path / "map.csv"),
        }
        path = write_json(tmp_path / "s.json", sweep)
        assert main(["sweep", path]) == EXIT_PARSE
        assert "'steps'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eigenfunction", "{model}", "--k", "0", "1", "--grid", "8", "nan"],
            ["eigenfunction", "{model}", "--k", "0", "1", "--grid", "inf", "5"],
            ["eigenfunction", "{model}", "--k", "0", "inf"],
            ["oracle", "{model}", "--tol", "nan"],
            ["eigenfunction", "{model}", "--k", "nan", "2"],
            ["oracle", "{model}", "--L=-inf"],
            ["spectrum", "{model}", "--contour", "-5", "5", "1e-6", "inf"],
        ],
    )
    def test_non_finite_float_flag(self, tmp_path, capsys, argv):
        path = write_json(tmp_path / "m.json", DELTA_DOC)
        with pytest.raises(SystemExit) as exc:
            main([path if a == "{model}" else a for a in argv])
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert "finite" in captured.err and captured.out == ""


class TestInvalidInput:
    def test_sweep_missing_file(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "absent.json")]) == EXIT_PARSE
        assert "cannot read sweep file" in capsys.readouterr().err

    def test_sweep_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["sweep", str(path)]) == EXIT_PARSE
        assert "sweep file is not valid JSON" in capsys.readouterr().err

    def test_sweep_axis_not_an_object(self, tmp_path, capsys):
        sweep = {"model": DELTA_DOC, "sweep": [5], "output": str(tmp_path / "map.csv")}
        assert main(["sweep", write_json(tmp_path / "s.json", sweep)]) == EXIT_PARSE
        assert "'sweep'" in capsys.readouterr().err
        assert not (tmp_path / "map.csv").exists()

    @pytest.mark.parametrize("n", ["-5", "0", "1", "2.5"])
    def test_eigenfunction_grid_count(self, tmp_path, capsys, n):
        path = write_json(tmp_path / "m.json", DELTA_DOC)
        out = tmp_path / "psi.csv"
        argv = ["eigenfunction", path, "--k", "0", "1", "--grid", "8", n, "--out", str(out)]
        assert main(argv) == EXIT_PARSE
        assert "--grid" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("width", ["0", "-2"])
    def test_eigenfunction_grid_width(self, tmp_path, capsys, width):
        path = write_json(tmp_path / "m.json", DELTA_DOC)
        out = tmp_path / "psi.csv"
        argv = ["eigenfunction", path, "--k", "0", "1", "--grid", width, "4", "--out", str(out)]
        assert main(argv) == EXIT_PARSE
        assert "--grid" in capsys.readouterr().err and not out.exists()
