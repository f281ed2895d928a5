"""Variational truncation of uniform matrix product states.

The package provides the tangent-space optimization loop for
approximating a uniform MPS (optionally with an MPO applied) at a smaller
bond dimension, the local Schmidt-truncation baseline, uniform-MPS gauge
and transfer-matrix machinery, and the model builders and oracles used by
the command-line experiments.  The local baseline for an MPO-MPS product
is ``schmidt_truncate`` of the product that ``vomps_truncate`` builds at
its full bonds (see :mod:`vomps.baseline`).
"""

import os as _os

# UMPS_THREADS caps the BLAS thread pools, so it must be applied before
# anything below imports numpy
if _os.environ.get("UMPS_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["UMPS_THREADS"])

from .baseline import schmidt_truncate
from .io import load_state, save_state
from .tensor import (
    EigResult,
    leading_eig,
    polar,
    qr_positive,
    svd,
)
from .truncation import (
    CenterPair,
    TruncationReport,
    VompsConfig,
    compute_centers,
    epsilon_measure,
    error_epsilon,
    extract_gauges,
    power_method,
    vomps_truncate,
)
from .umps import (
    MPO,
    MixedEnvironment,
    OrthogonalStatesError,
    UniformMPS,
    environments,
    fidelity_per_site,
    left_orthonormalize,
    mixed_canonical,
    mpo_eigenvalue_per_site,
    random_uniform_mps,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
