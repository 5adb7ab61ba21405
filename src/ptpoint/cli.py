"""Command-line front end: model files, classification, spectra, sweeps, validation.

Model files are JSON documents: a "type", one of the keys of
MODEL_FILE_TYPES, and that type's fields.  Complex numbers are stored as
[re, im] pairs (locale-proof, bit-exact), so a matrix B is
[[[1,0],[0,0]],[[-2,0],[1,0]]].  Angles are radians.

Exit codes: 0 success, 2 parse/validation error, 3 degenerate model,
4 solver failure, 5 oracle mismatch, 6 not an eigenvalue.
"""

import argparse
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import finitediff, spectra, states
from .boundary import (
    ConnectedOrigin,
    DeltaPair,
    PTPair,
    SeparatedOrigin,
    TwoPoint,
    TypeIIParams,
    TypeIParams,
    classify,
    delta_pair_matrix,
    matrix_from_type_I,
)
from .errors import (
    ContourThroughZero,
    Degenerate,
    DegenerateIdenticallyZero,
    EigensolverFailure,
    GridCollision,
    InvalidParams,
    NoConvergence,
    NotAnEigenvalue,
    PointInteractionError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_SOLVER = 4
EXIT_ORACLE_MISMATCH = 5
EXIT_NOT_EIGENVALUE = 6

_DEGENERATE_ERRORS = (Degenerate, DegenerateIdenticallyZero)
_SOLVER_ERRORS = (ContourThroughZero, NoConvergence, EigensolverFailure, GridCollision)

# rows of an origin-model sweep solved as one array operation
SWEEP_CHUNK = 1024


class ModelFileError(PointInteractionError):
    """Model document failed to parse or validate; message names the field."""


FLOAT_FORMAT = ".17g"  # every float the CLI prints: round-trip exact


def _fmt(x):
    return format(float(x), FLOAT_FORMAT)


def _fmt_complex(z):
    z = complex(z)
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}j"


def _need(doc, field):
    if field not in doc:
        raise ModelFileError(f"missing field {field!r}")
    v = doc[field]
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        raise ModelFileError(f"field {field!r}: expected float, got {v!r}")
    if not math.isfinite(x):
        raise ModelFileError(f"field {field!r}: expected a finite number, got {v!r}")
    return x


def _finite_float(text):
    """argparse type for float flags: NaN and +-inf are usage errors (exit 2)."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _parse_complex(entry, field):
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise ModelFileError(f"field {field!r}: complex entries must be [re, im] pairs")
    try:
        z = complex(float(entry[0]), float(entry[1]))
    except (TypeError, ValueError):
        raise ModelFileError(f"field {field!r}: non-numeric [re, im] pair {entry!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ModelFileError(f"field {field!r}: non-finite [re, im] pair {entry!r}")
    return z


def _parse_matrix(doc, field="B"):
    raw = doc.get(field)
    if raw is None:
        raise ModelFileError(f"missing field {field!r}")
    if not (isinstance(raw, list) and len(raw) == 2 and all(isinstance(r, list) and len(r) == 2 for r in raw)):
        raise ModelFileError(f"field {field!r}: expected a 2x2 matrix of [re, im] pairs")
    return np.array(
        [[_parse_complex(raw[i][j], f"{field}[{i}][{j}]") for j in range(2)] for i in range(2)]
    )


class ModelFileType(NamedTuple):
    """A model-file type: its fields in read order, and what build makes of them (or of the params they fill)."""

    fields: tuple
    build: object
    params: object = None
    solve: object = None  # an origin type's closed form over a stack of params (of matrices for connected_origin)
    textbook: object = None  # the type read instead under --variant textbook-delta


# the one list of model-file types
MODEL_FILE_TYPES = {
    "connected_origin": ModelFileType(("B",), ConnectedOrigin, solve=spectra.discrete_spectrum_origin_connected),
    "type_I": ModelFileType(
        ("theta", "phi", "b", "c"), lambda p: ConnectedOrigin(matrix_from_type_I(p)), TypeIParams,
        lambda p: spectra.discrete_spectrum_origin_connected(matrix_from_type_I(p)),
    ),
    "separated": ModelFileType(
        ("theta", "h0", "h1"), SeparatedOrigin, TypeIIParams, spectra.discrete_spectrum_separated,
    ),
    "two_point": ModelFileType(("l", "B"), TwoPoint),
    "delta_pair": ModelFileType(("u", "v", "l"), DeltaPair, textbook=ModelFileType(
        ("l", "u", "v"), lambda l, u, v: TwoPoint(l=l, B=delta_pair_matrix(u, v, variant="textbook")),
    )),
}
MODEL_TYPES = tuple(MODEL_FILE_TYPES)


def model_from_dict(doc, variant="default"):
    """Build a model from a parsed model document."""
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a JSON object")
    mtype = doc.get("type")
    if mtype not in MODEL_TYPES:
        raise ModelFileError(f"field 'type': expected one of {MODEL_TYPES}, got {mtype!r}")
    row = MODEL_FILE_TYPES[mtype]
    if variant == "textbook" and row.textbook:
        row = row.textbook
    try:
        fields = {f: _parse_matrix(doc, f) if f == "B" else _need(doc, f) for f in row.fields}
        return row.build(row.params(**fields)) if row.params else row.build(**fields)
    except InvalidParams as exc:
        raise ModelFileError(str(exc)) from exc
    except Degenerate as exc:
        raise ModelFileError(f"field 'B': {exc}") from exc


def _matrix_entries(B):
    return [[[float(B[i, j].real), float(B[i, j].imag)] for j in range(2)] for i in range(2)]


def model_to_dict(spec):
    """Serialize a model as the type whose build is its class; reading it back renormalizes separated (h0, h1)."""
    mtype = next((name for name, row in MODEL_FILE_TYPES.items() if row.build is type(spec)), None)
    if mtype is None:
        raise InvalidParams(f"cannot serialize {type(spec).__name__}")
    fields = vars(spec.params if MODEL_FILE_TYPES[mtype].params else spec)  # the type's fields, in order
    return {"type": mtype, **{f: _matrix_entries(v) if f == "B" else float(v) for f, v in fields.items()}}


def _read_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ModelFileError(f"cannot read {what} file: {exc}")
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{what} file is not valid JSON: {exc}")


def load_model(path, variant="default"):
    return model_from_dict(_read_json(path, "model"), variant=variant)


def _matrix_and_length(spec):
    """(B, l) of a model: its connected matrix (None if separated) and half-distance (None at the origin)."""
    if isinstance(spec, PTPair):
        return spec.B, spec.l
    return (spec.B if isinstance(spec, ConnectedOrigin) else None), None


def _spectrum_for(spec, contour=None):
    B, l = _matrix_and_length(spec)
    if l is not None:
        return spectra.two_point_spectrum(B, l, contour)
    if contour is not None:
        raise InvalidParams("--contour applies to two-point models only; origin spectra are closed form")
    if B is None:
        return spectra.discrete_spectrum_separated(spec.params)
    return spectra.discrete_spectrum_origin_connected(B)


def _print_report(report):
    print(f"ac_branch: {report.ac_branch}")
    print(f"eigenvalue_count: {report.total_multiplicity}")
    for e in report.eigenvalues:
        print(
            f"eigenvalue: lambda = {_fmt_complex(e.lam)}  k = {_fmt_complex(e.k.k)}  "
            f"multiplicity = {e.multiplicity}  kind = {e.kind}"
        )
    for k in report.nonphysical_roots:
        print(f"nonphysical_root: k = {_fmt_complex(k)}")
    print(f"all_real: {str(report.all_real).lower()}")


def _write_spectrum_csv(report, path):
    lines = ["lambda_re,lambda_im,k_re,k_im,multiplicity,kind"]
    for e in report.eigenvalues:
        lines.append(
            f"{_fmt(e.lam.real)},{_fmt(e.lam.imag)},{_fmt(e.k.k.real)},{_fmt(e.k.k.imag)},{e.multiplicity},{e.kind}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_classify(args):
    spec = load_model(args.model, variant=args.variant)
    rep = classify(spec)
    print(f"pt_selfadjoint: {str(rep.pt_selfadjoint).lower()}")
    print(f"selfadjoint: {str(rep.selfadjoint).lower()}")
    print(f"family: {rep.family}")
    if rep.extracted_params is not None:
        print("params: " + "  ".join(f"{name} = {_fmt(value)}" for name, value in vars(rep.extracted_params).items()))
    if rep.notes:
        print(f"notes: {rep.notes}")
    return EXIT_OK


def cmd_spectrum(args):
    spec = load_model(args.model, variant=args.variant)
    contour = None if args.contour is None else spectra.ContourSpec(*args.contour)
    report = _spectrum_for(spec, contour)
    _print_report(report)
    if args.out:
        _write_spectrum_csv(report, args.out)
    return EXIT_OK


def cmd_sweep(args):
    doc = _read_json(args.sweep, "sweep")
    if not isinstance(doc, dict):
        raise ModelFileError("sweep document must be a JSON object")
    model_doc = doc.get("model")
    if not isinstance(model_doc, dict):
        raise ModelFileError("missing field 'model'")
    axes = doc.get("sweep")
    if not (isinstance(axes, list) and 1 <= len(axes) <= 2):
        raise ModelFileError("field 'sweep': expected a list of 1 or 2 parameter ranges")
    out_path = args.out or doc.get("output")
    if not out_path:
        raise ModelFileError("missing field 'output' (or pass --out)")
    grids = []
    for ax in axes:
        if not isinstance(ax, dict):
            raise ModelFileError(f"field 'sweep': each parameter range must be an object, got {ax!r}")
        name = ax.get("name")
        if not isinstance(name, str):
            raise ModelFileError("sweep axis: missing 'name'")
        lo, hi = _need(ax, "min"), _need(ax, "max")
        steps = _need(ax, "steps")
        if steps < 2 or steps != int(steps):
            raise ModelFileError(f"sweep axis {name!r}: 'steps' must be an integer >= 2, got {ax['steps']!r}")
        grids.append((name, np.linspace(lo, hi, int(steps))))

    names = [name for name, _ in grids]
    header = names + ["all_real", "n_eigenvalues",
                      "eig1_re", "eig1_im", "eig2_re", "eig2_im", "error"]
    chunks = [",".join(header) + "\n"]  # the CSV text, one string per chunk of rows
    texts = [[_fmt(v) for v in g] for _, g in grids]  # each axis value is formatted once
    shape = tuple(len(g) for _, g in grids)
    total = math.prod(shape)
    for start in range(0, total, SWEEP_CHUNK):
        index = [i.tolist() for i in np.unravel_index(np.arange(start, min(start + SWEEP_CHUNK, total)), shape)]
        values = {name: g[i] for (name, g), i in zip(grids, index)}
        results = _sweep_results(model_doc, values, len(index[0]), args.variant)
        axis_cells = [[t[j] for j in i] for t, i in zip(texts, index)]
        chunks.append("".join(",".join(cells) + "\n" for cells in zip(*axis_cells, results)))
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)
    print(f"wrote {total} rows to {out_path}")
    return EXIT_OK


def _solved_cells(all_real, count, lam):
    """The all_real ... error cells of solved sweep points, built column by column.

    all_real and count are lists with one entry per point; lam is (n, 2)
    complex, each point's first two eigenvalues counted with multiplicity
    (read up to count).
    """
    cols = [["true" if r else "false" for r in all_real], list(map(str, count))]
    for slot in (0, 1):
        for part in (lam[:, slot].real.tolist(), lam[:, slot].imag.tolist()):
            cols.append([format(x, FLOAT_FORMAT) if c > slot else "" for x, c in zip(part, count)])
    cols.append([""] * len(count))
    return list(map(",".join, zip(*cols)))


def _point_result(point, variant):
    """Result cells of one sweep point from model_from_dict and the single-model spectrum."""
    try:
        report = _spectrum_for(model_from_dict(point, variant=variant))
    except (PointInteractionError, ModelFileError) as exc:
        return ",,,,,," + f"{type(exc).__name__}: {exc}".replace(",", ";")
    lam = np.zeros((1, 2), dtype=complex)
    eigs = [e.lam for e in report.eigenvalues for _ in range(e.multiplicity)][:2]
    lam[0, :len(eigs)] = eigs
    return _solved_cells([report.all_real], [report.total_multiplicity], lam)[0]


def _sweep_results(model_doc, values, n, variant):
    """Result cells of the n points of one chunk of a sweep: the document with each row of the axis columns.

    For an origin model the first point that model_from_dict accepts vouches for
    the document's other fields, and the type's solve takes the chunk as one stack,
    less the rows its parameter class rejects.  Those rows, rows the stack marks
    not ok, and every point of a two-point model go through _point_result.
    """
    def point(j):
        return dict(model_doc, **{name: float(col[j]) for name, col in values.items()})

    results = [None] * n
    mtype = model_doc.get("type")
    row = MODEL_FILE_TYPES[mtype] if mtype in MODEL_TYPES else None
    for j in range(n) if row is not None and row.solve is not None else ():
        try:
            spec = model_from_dict(point(j), variant=variant)
        except ModelFileError:
            continue
        if row.params is None:  # the fields are not numbers, so no axis changes the model
            rows, rep = np.arange(n), row.solve(np.broadcast_to(spec.B, (n, 2, 2)))
        else:
            cols = {f: values[f] if f in values else np.full(n, _need(model_doc, f)) for f in row.fields}
            with np.errstate(over="ignore", invalid="ignore"):
                rows = np.flatnonzero(np.logical_and.reduce([holds for holds, _, _ in row.params.conditions(**cols)]))
                rep = row.solve(row.params(**{f: col[rows] for f, col in cols.items()}))
        ok = rep.ok
        cells = _solved_cells(rep.all_real[ok].tolist(), rep.count[ok].tolist(), rep.lam[ok])
        for i, text in zip(rows[ok].tolist(), cells):
            results[i] = text
        break
    return [_point_result(point(j), variant) if r is None else r for j, r in enumerate(results)]


def cmd_oracle(args):
    spec = load_model(args.model, variant=args.variant)
    eigs = _spectrum_for(spec).eigenvalues
    closed = sorted((e.lam for e in eigs for _ in range(e.multiplicity)), key=lambda z: (z.real, z.imag))
    cfg = finitediff.OracleConfig(L=args.L, N=args.N)
    numeric = list(finitediff.oracle_discrete_spectrum(spec, cfg))
    print(f"closed_form_count: {len(closed)}")
    print(f"oracle_count: {len(numeric)}")
    # One-sided match: every closed-form eigenvalue needs an oracle partner.
    # Extras are reported but do not fail the check: for non-self-adjoint
    # interfaces the truncated-box continuum approximants carry O(1/L)
    # imaginary parts and land in the candidate filter.
    all_matched = True
    remaining = list(numeric)
    for lam in closed:
        if remaining:
            j = int(np.argmin([abs(lam - mu) for mu in remaining]))
            diff = abs(lam - remaining[j])
            print(f"closed = {_fmt_complex(lam)}  oracle = {_fmt_complex(remaining[j])}  |diff| = {_fmt(diff)}")
            if diff <= args.tol:
                remaining.pop(j)
            else:
                all_matched = False
        else:
            print(f"closed = {_fmt_complex(lam)}  oracle = (none)")
            all_matched = False
    for mu in remaining:
        print(f"unmatched_oracle_candidate = {_fmt_complex(mu)}")
    print(f"matched: {str(all_matched).lower()}")
    return EXIT_OK if all_matched else EXIT_ORACLE_MISMATCH


def cmd_eigenfunction(args):
    L, N = args.grid
    if not L > 0:
        raise InvalidParams(f"--grid: L must be positive, got {L:g}")
    if not (N >= 2 and N == int(N)):
        raise InvalidParams(f"--grid: N must be an integer >= 2, got {N:g}")
    spec = load_model(args.model, variant=args.variant)
    k = complex(args.k[0], args.k[1])
    B, l = _matrix_and_length(spec)
    if B is None:
        raise ModelFileError("eigenfunction export supports connected and two-point models")
    psi = states.eigenfunction_origin(B, k) if l is None else states.eigenfunction_two_point(B, l, k)
    resid = states.interface_residual(psi, B, l)
    defect = states.pt_symmetry_defect(psi)
    x = np.linspace(-L, L, int(N))
    vals = psi(x)
    lines = [
        f"# pt_defect = {_fmt(defect)}",
        f"# interface_residual = {_fmt(resid)}",
        "x,psi_re,psi_im",
    ]
    lines += [f"{_fmt(xi)},{_fmt(v.real)},{_fmt(v.imag)}" for xi, v in zip(x, vals)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {len(x)} samples to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ptpoint",
        description="Point interactions on the line: classification, spectra, validation.",
    )
    ap.add_argument(
        "--variant",
        choices=("default", "textbook-delta"),
        default="default",
        help="delta-pair interface matrix convention",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="symmetry and family classification")
    p.add_argument("model")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("spectrum", help="discrete spectrum report")
    p.add_argument("model")
    p.add_argument("--contour", type=_finite_float, nargs=4, metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    p.add_argument("--out", help="also write eigenvalues as CSV")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="parameter sweep to a CSV region map")
    p.add_argument("sweep", help="sweep document (JSON)")
    p.add_argument("--out", help="output path override")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="closed form vs finite-difference cross-check")
    p.add_argument("model")
    p.add_argument("--L", type=_finite_float, default=12.0, help="truncation half-width")
    p.add_argument("--N", type=int, default=2400, help="grid nodes")
    p.add_argument("--tol", type=_finite_float, default=1e-3, help="eigenvalue match tolerance")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("eigenfunction", help="sample an eigenfunction to CSV")
    p.add_argument("model")
    p.add_argument("--k", type=_finite_float, nargs=2, required=True, metavar=("RE", "IM"))
    p.add_argument("--grid", type=_finite_float, nargs=2, default=(8.0, 801), metavar=("L", "N"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_eigenfunction)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.variant == "textbook-delta":
        args.variant = "textbook"
    try:
        return args.func(args)
    except ModelFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _DEGENERATE_ERRORS as exc:
        print(f"error: degenerate model: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NotAnEigenvalue as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_EIGENVALUE
    except _SOLVER_ERRORS as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
