"""Per-layer metrics from the spans of a traced run (see tracing.py for the span names).

Each metric names the layer (ptpoint module) that owns the work.  Counts are
per round, so they repeat exactly between runs of one seed.  A layer a
workload never calls reports 0.
"""

import numpy as np

# name: unit; the names and order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "cli.sweep_self_us_per_model": "us",
    "boundary.model_build_us_per_model": "us",
    "spectra.origin_us_per_model": "us",
    "spectra.origin_calls": "count",
    "spectra.contour_ms_per_solve": "ms",
    "spectra.default_contour_us_per_solve": "us",
    "spectra.solve_p90_ms": "ms",
    "spectra.solve_samples": "count",
    "spectra.roots_reported": "count",
    "spectra.solves_failed": "count",
    "spectra.solves_failed.NoConvergence": "count",
    "spectra.solves_failed.ContourThroughZero": "count",
    "states.certificate_ms_per_solve": "ms",
    "states.certificate_calls": "count",
    "states.resolvent_ms_per_call": "ms",
    "finitediff.assemble_ms_per_call": "ms",
    "finitediff.eigensolve_ms_per_call": "ms",
    "finitediff.matrix_mb_computed": "MiB",
    "finitediff.candidates_per_call": "count",
    "finitediff.residual_ms_per_call": "ms",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num, den):
    return float(num) / den if den else 0.0


def per_layer_metrics(spans, rounds):
    """Every PER_LAYER metric except trace.overhead_ratio, as {name: (value, unit)}."""
    labels = list(spans["labels"])
    name, dur, self_ns = spans["name"], spans["dur_ns"], spans["self_ns"]
    size, error = spans["size"], spans["error"]

    def label_id(label):
        return labels.index(label) if label in labels else -1

    def sel(span):
        return name == label_id(span)

    rows = int(np.count_nonzero(sel("boundary.model_build")))
    origin = sel("spectra.origin")
    solve = sel("spectra.two_point_spectrum")
    n_solve = int(np.count_nonzero(solve))
    cert = sel("states.certificate")
    disc = sel("finitediff.discretize")
    oracle = sel("finitediff.oracle")
    resid = sel("finitediff.residual")
    resolv = sel("states.resolvent")
    failed = solve & (error != 0)
    values = {
        "cli.sweep_self_us_per_model": _ratio(self_ns[sel("cli.sweep")].sum() / 1e3, rows),
        "boundary.model_build_us_per_model": _ratio(dur[sel("boundary.model_build")].sum() / 1e3, rows),
        "spectra.origin_us_per_model": _ratio(dur[origin].sum() / 1e3, np.count_nonzero(origin)),
        "spectra.origin_calls": _ratio(np.count_nonzero(origin), rounds),
        "spectra.contour_ms_per_solve": _ratio(self_ns[solve].sum() / 1e6, n_solve),
        "spectra.default_contour_us_per_solve": _ratio(dur[sel("spectra.default_contour")].sum() / 1e3, n_solve),
        "spectra.solve_p90_ms": float(np.percentile(dur[solve], 90) / 1e6) if n_solve else 0.0,
        "spectra.solve_samples": n_solve,
        "spectra.roots_reported": _ratio(size[solve].sum(), rounds),
        "spectra.solves_failed": _ratio(np.count_nonzero(failed), rounds),
        "spectra.solves_failed.NoConvergence": _ratio(
            np.count_nonzero(failed & (error == label_id("NoConvergence"))), rounds),
        "spectra.solves_failed.ContourThroughZero": _ratio(
            np.count_nonzero(failed & (error == label_id("ContourThroughZero"))), rounds),
        "states.certificate_ms_per_solve": _ratio(dur[cert].sum() / 1e6, n_solve),
        "states.certificate_calls": _ratio(np.count_nonzero(cert), rounds),
        "states.resolvent_ms_per_call": _ratio(dur[resolv].sum() / 1e6, np.count_nonzero(resolv)),
        "finitediff.assemble_ms_per_call": _ratio(dur[disc].sum() / 1e6, np.count_nonzero(disc)),
        "finitediff.eigensolve_ms_per_call": _ratio(self_ns[oracle].sum() / 1e6, np.count_nonzero(oracle)),
        # computed from N, not measured: one dense complex N x N matrix
        "finitediff.matrix_mb_computed": float(size[disc].max() ** 2 * 16 / 2**20) if disc.any() else 0.0,
        "finitediff.candidates_per_call": _ratio(size[oracle].sum(), np.count_nonzero(oracle)),
        "finitediff.residual_ms_per_call": _ratio(dur[resid].sum() / 1e6, np.count_nonzero(resid)),
    }
    return {k: (v, PER_LAYER[k]) for k, v in values.items()}
