"""Photon-counting interferometry: simulation, estimation, calibration.

A two-path polarization-entangled source feeds a sensing rotation and a
reference rotation; lossy multiplexed click counters measure all four
output modes.  This package computes exact detection-pattern
probabilities for that arrangement, the Fisher information and precision
bounds they imply, and the estimators and calibration routines needed to
run the scheme on counted data.  Each layer's ``__all__`` is its public
API, and the package re-exports every one of them.
"""

__version__ = "0.1.0"

from . import calibration, detectors, engine, estimation, fock, heralding, timetags
from .fock import *
from .detectors import *
from .engine import *
from .estimation import *
from .heralding import *
from .calibration import *
from .timetags import *

__all__ = ["__version__"]
__all__ += fock.__all__
__all__ += detectors.__all__
__all__ += engine.__all__
__all__ += estimation.__all__
__all__ += heralding.__all__
__all__ += calibration.__all__
__all__ += timetags.__all__
