"""Boundary symbol factorizations, Weyl constants, and spectral asymptotics.

Subpackage map:

* :mod:`fracspec.symbols` boundary symbol algebra and factorizations
* :mod:`fracspec.quadrature` domains, cosphere rules, asymptotic constants
* :mod:`fracspec.discretize` grids, operators, fractional restrictions
* :mod:`fracspec.eig` symmetric eigensolves and singular values
* :mod:`fracspec.asymptotics` power-law fits and boundary-behavior probes
* :mod:`fracspec.zaremba` mixed-problem assemblies and the resolvent
  difference (Krein) spectra
* :mod:`fracspec.cli` command-line entry point
"""

__version__ = "0.1.0"

from ._accel import backend

__all__ = ["backend", "__version__"]
