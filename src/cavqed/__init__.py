"""cavqed: simulator and analysis toolkit for a single quantum dot
strongly coupled to an optical nanocavity.

Layers, from cheap to expensive:

* :mod:`cavqed.units`       -- unit conversions and the detuning type
* :mod:`cavqed.polariton`   -- closed-form coupled-mode theory
* :mod:`cavqed.hilbert`     -- truncated state space, Hamiltonian, collapse channels
* :mod:`cavqed.dynamics`    -- master equation, steady state, spectra, g2 by regression
* :mod:`cavqed.trajectories`-- photon click streams from conditional-state trajectories
* :mod:`cavqed.hbt`         -- beam-splitter / start-stop correlation analysis
* :mod:`cavqed.specdiff`    -- quasi-static spectral-diffusion triplet model
* :mod:`cavqed.instrument`  -- spectrometer and detector response emulation
* :mod:`cavqed.fitkit`      -- Levenberg-Marquardt engine and the standard fit models
* :mod:`cavqed.cli`         -- command-line recipes and CSV emission
"""

from .units import Detuning
from .polariton import PolaritonPair, Spectrum, SystemParams

__version__ = "0.1.0"

__all__ = [
    "Detuning",
    "PolaritonPair",
    "Spectrum",
    "SystemParams",
    "__version__",
]
