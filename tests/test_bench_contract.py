"""The benchmark's tracer wraps ptpoint functions at module attributes (bench/tracing.py).

A rename, or a call that bypasses the module attribute, would silently zero a
traced per-layer metric; these tests read the tracer's target list and fail
first.  Nothing under bench/ is modified.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ptpoint import boundary, cli, finitediff, spectra, states

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_resolve_to_callables(tracing):
    assert tracing.TARGETS
    for mod_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(f"ptpoint.{mod_name}")
        assert callable(getattr(module, attr, None)), f"ptpoint.{mod_name}.{attr}"


def test_every_target_records_spans(tracing, tmp_path, capsys):
    modules = {"cli": cli, "spectra": spectra, "finitediff": finitediff, "states": states}
    tracer = tracing.Tracer(modules)
    sweeps = [
        {"model": {"type": "type_I", "theta": 0.0, "phi": 0.0, "b": 0.0}, "sweep": [{"name": "c", "min": -2, "max": 1, "steps": 3}]},
        {"model": {"type": "separated", "theta": 0.4, "h0": 1.0}, "sweep": [{"name": "h1", "min": -1, "max": 1, "steps": 3}]},
    ]
    origin = boundary.ConnectedOrigin(np.array([[1, 0], [-2, 1]], dtype=complex))
    cfg = finitediff.OracleConfig(L=6.0, N=60)
    F = states.GridFunction.sample(lambda x: np.exp(-x * x), cfg.L, cfg.N)
    tracer.install()
    try:
        for i, doc in enumerate(sweeps):
            doc["output"] = str(tmp_path / f"map{i}.csv")
            path = tmp_path / f"sweep{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert cli.main(["sweep", str(path)]) == cli.EXIT_OK
        spectra.two_point_spectrum(spectra.delta_pair_matrix(-2.0, 0.5), 1.0, relation="operator")
        finitediff.oracle_discrete_spectrum(boundary.DeltaPair(-2.0, 0.5, 1.0), cfg)
        U = states.apply_resolvent(origin, 1.0 + 1.0j, F)
        finitediff.oracle_resolvent_residual(origin, 1.0 + 1.0j, U, F)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = {tracer.labels[i] for i in tracer.name}
    for mod_name, attr, span in tracing.TARGETS:
        if span == "finitediff.discretize":
            # no package route builds the dense matrix: the oracle and the residual
            # work without it, and only the tests' dense reference calls discretize
            assert span not in recorded, f"a package route called ptpoint.{mod_name}.{attr}"
        else:
            assert span in recorded, f"no span from ptpoint.{mod_name}.{attr}"
    for mod_name, attr, _ in tracing.TARGETS:
        assert not hasattr(getattr(modules[mod_name], attr), "__wrapped__")
