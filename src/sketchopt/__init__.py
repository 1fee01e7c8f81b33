"""sketchopt: randomized sketching for non-PSD and complex matrices.

Dense complex linear algebra and complex->real lifting, leverage-score and
hybrid row sampling, sketched-Hessian Newton-type optimizers, sketch-and-solve
lp regression over the complex field, and TensorSketch estimation of
vector-matrix-vector products, plus a reproducible benchmark CLI (``bench``).

Each module's ``__all__`` declares its public names.  The package re-exports
them, and its ``__all__`` is ``__version__`` plus those lists.
"""

from . import (core_complex, sketch_sampling, hybrid_sampling, hessian_oracle,
               optimizers, lp_regression, vmv_sketch)
from .core_complex import *
from .sketch_sampling import *
from .hybrid_sampling import *
from .hessian_oracle import *
from .optimizers import *
from .lp_regression import *
from .vmv_sketch import *

__version__ = "0.1.0"

__all__ = ["__version__", *core_complex.__all__, *sketch_sampling.__all__,
           *hybrid_sampling.__all__, *hessian_oracle.__all__,
           *optimizers.__all__, *lp_regression.__all__, *vmv_sketch.__all__]
