"""Exactly solvable point interactions on the line with reflection-conjugation symmetry.

Library layout:

- :mod:`ptpoint.boundary`   interface-condition types, parameterizations, predicates
- :mod:`ptpoint.spectra`    dispersion relations and discrete spectra
- :mod:`ptpoint.states`     eigenfunctions, resolvent, symmetry checks, scattering
- :mod:`ptpoint.finitediff` independent finite-difference validation
- :mod:`ptpoint.zeros`      argument-principle zero search shared by spectra and finitediff
- :mod:`ptpoint.cli`        command-line front end (model files, sweeps, exports)
"""

from .boundary import (
    ClassificationReport,
    ConnectedOrigin,
    DeltaPair,
    SeparatedOrigin,
    TwoPoint,
    TypeIParams,
    TypeIIParams,
    classify,
    is_pt_connected,
    is_selfadjoint_connected,
    matrix_from_type_I,
    pt_boundary_image,
    pt_mirror,
    type_I_from_matrix,
)
from .spectra import (
    ContourSpec,
    Eigenvalue,
    OriginSpectra,
    SpectrumReport,
    WaveNumber,
    default_contour,
    delta_pair_matrix,
    discrete_spectrum_origin_connected,
    discrete_spectrum_separated,
    dispersion_roots_general,
    dispersion_roots_type_I,
    real_spectrum_classify_general,
    real_spectrum_predicate_type_I,
    two_point_dispersion_value,
    two_point_spectrum,
)
from .states import (
    GridFunction,
    PiecewiseExp,
    ScatteringData,
    apply_resolvent,
    eigenfunction_origin,
    eigenfunction_two_point,
    pt_apply,
    pt_symmetry_defect,
    scattering_coefficients,
)
from .finitediff import (
    OracleConfig,
    discretize,
    oracle_discrete_spectrum,
    oracle_resolvent_residual,
)

__version__ = "0.1.0"
