"""Boundary symbol factorizations, Weyl constants, and spectral asymptotics.

Subpackage map:

* :mod:`fracspec.symbols` boundary symbol algebra and factorizations
* :mod:`fracspec.quadrature` domains, cosphere rules, asymptotic constants
* :mod:`fracspec.discretize` grids, operators, fractional restrictions
* :mod:`fracspec.eig` symmetric eigensolves
* :mod:`fracspec.asymptotics` power-law fits and boundary-behavior probes
* :mod:`fracspec.zaremba` mixed-problem assemblies and the resolvent
  difference (Krein) spectra
* :mod:`fracspec.cli` command-line entry point

The hot kernels (:mod:`fracspec._kernels`) are vectorized numpy.  numpy
and scipy each carry their own OpenBLAS; the large dense products that
feed scipy's LAPACK go through ``_kernels.gemm``, on scipy's.  Importing
the package loads no numeric library, so ``--jobs`` can still cap both
thread pools first.
"""

__version__ = "0.1.0"


def backend() -> str:
    """Name of the kernel build, recorded as ``kernel_backend`` in every manifest."""
    return "numpy"


__all__ = ["backend", "__version__"]
