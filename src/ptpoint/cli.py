"""Command-line front end: model files, classification, spectra, sweeps, validation.

Model files are JSON documents with a "type" selector; complex numbers are
stored as [re, im] pairs (locale-proof, bit-exact).  Angles are radians.

    {"type": "type_I", "theta": 0.0, "phi": 3.14159, "b": 1.0, "c": 0.0}
    {"type": "connected_origin", "B": [[[1,0],[0,0]],[[-2,0],[1,0]]]}
    {"type": "separated", "theta": 0.785, "h0": 1.0, "h1": -1.0}
    {"type": "two_point", "l": 1.0, "B": [[[1,0],[1,0]],[[0,0],[1,0]]]}
    {"type": "delta_pair", "u": 0.0, "v": 2.0, "l": 1.0}

Exit codes: 0 success, 2 parse/validation error, 3 degenerate model,
4 solver failure, 5 oracle mismatch, 6 not an eigenvalue.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import finitediff, spectra, states
from .boundary import (
    ConnectedOrigin,
    DeltaPair,
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

MODEL_TYPES = ("connected_origin", "type_I", "separated", "two_point", "delta_pair")


class ModelFileError(PointInteractionError):
    """Model document failed to parse or validate; message names the field."""


def _fmt(x):
    return format(float(x), ".17g")


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


def model_from_dict(doc, variant="default"):
    """Build an InteractionSpec from a parsed model document."""
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a JSON object")
    mtype = doc.get("type")
    if mtype not in MODEL_TYPES:
        raise ModelFileError(f"field 'type': expected one of {MODEL_TYPES}, got {mtype!r}")
    try:
        if mtype == "connected_origin":
            return ConnectedOrigin(_parse_matrix(doc))
        if mtype == "type_I":
            p = TypeIParams(
                theta=_need(doc, "theta"), phi=_need(doc, "phi"),
                b=_need(doc, "b"), c=_need(doc, "c"),
            )
            return ConnectedOrigin(matrix_from_type_I(p))
        if mtype == "separated":
            return SeparatedOrigin(
                TypeIIParams(theta=_need(doc, "theta"), h0=_need(doc, "h0"), h1=_need(doc, "h1"))
            )
        if mtype == "two_point":
            return TwoPoint(l=_need(doc, "l"), B=_parse_matrix(doc))
        if variant == "textbook":
            return TwoPoint(
                l=_need(doc, "l"),
                B=delta_pair_matrix(_need(doc, "u"), _need(doc, "v"), variant="textbook"),
            )
        return DeltaPair(u=_need(doc, "u"), v=_need(doc, "v"), l=_need(doc, "l"))
    except InvalidParams as exc:
        raise ModelFileError(str(exc)) from exc
    except Degenerate as exc:
        raise ModelFileError(f"field 'B': {exc}") from exc


def _matrix_entries(B):
    return [[[float(B[i, j].real), float(B[i, j].imag)] for j in range(2)] for i in range(2)]


def model_to_dict(spec):
    """Serialize an InteractionSpec back to a model document (round-trip exact)."""
    if isinstance(spec, ConnectedOrigin):
        return {"type": "connected_origin", "B": _matrix_entries(spec.B)}
    if isinstance(spec, SeparatedOrigin):
        p = spec.params
        return {"type": "separated", "theta": float(p.theta), "h0": float(p.h0), "h1": float(p.h1)}
    if isinstance(spec, TwoPoint):
        return {"type": "two_point", "l": float(spec.l), "B": _matrix_entries(spec.B)}
    if isinstance(spec, DeltaPair):
        return {"type": "delta_pair", "u": float(spec.u), "v": float(spec.v), "l": float(spec.l)}
    raise InvalidParams(f"cannot serialize {type(spec).__name__}")


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


def _spectrum_for(spec, contour=None):
    if isinstance(spec, ConnectedOrigin):
        return spectra.discrete_spectrum_origin_connected(spec.B)
    if isinstance(spec, SeparatedOrigin):
        return spectra.discrete_spectrum_separated(spec.params)
    return spectra.two_point_spectrum(spec.B, spec.l, contour)


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
    rep = classify(spec, tol=args.tol)
    print(f"pt_selfadjoint: {str(rep.pt_selfadjoint).lower()}")
    print(f"selfadjoint: {str(rep.selfadjoint).lower()}")
    print(f"family: {rep.family}")
    if rep.extracted_params is not None:
        p = rep.extracted_params
        if isinstance(p, TypeIParams):
            print(f"params: theta = {_fmt(p.theta)}  phi = {_fmt(p.phi)}  b = {_fmt(p.b)}  c = {_fmt(p.c)}")
        elif isinstance(p, TypeIIParams):
            print(f"params: theta = {_fmt(p.theta)}  h0 = {_fmt(p.h0)}  h1 = {_fmt(p.h1)}")
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
    lines = [",".join(header)]
    meshes = np.meshgrid(*[g for _, g in grids], indexing="ij")
    flat = [m.ravel() for m in meshes]
    for row_vals in zip(*flat):
        point = dict(model_doc)
        for name, val in zip(names, row_vals):
            point[name] = float(val)
        cells = [_fmt(v) for v in row_vals]
        try:
            spec = model_from_dict(point, variant=args.variant)
            report = _spectrum_for(spec)
            eigs = [e for e in report.eigenvalues for _ in range(e.multiplicity)][:2]
            cells.append(str(report.all_real).lower())
            cells.append(str(report.total_multiplicity))
            for i in range(2):
                if i < len(eigs):
                    cells.extend([_fmt(eigs[i].lam.real), _fmt(eigs[i].lam.imag)])
                else:
                    cells.extend(["", ""])
            cells.append("")
        except (PointInteractionError, ModelFileError) as exc:
            cells.extend(["", "", "", "", "", "", f"{type(exc).__name__}: {exc}".replace(",", ";")])
        lines.append(",".join(cells))
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {out_path}")
    return EXIT_OK


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
    if isinstance(spec, SeparatedOrigin):
        raise ModelFileError("eigenfunction export supports connected and two-point models")
    if isinstance(spec, ConnectedOrigin):
        psi = states.eigenfunction_origin(spec.B, k)
        resid = states.interface_residual(psi, spec.B)
    else:
        psi = states.eigenfunction_two_point(spec.B, spec.l, k)
        resid = states.interface_residual(psi, spec.B, spec.l)
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
    p.add_argument("--tol", type=_finite_float, default=1e-10, help="algebraic predicate tolerance")
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
