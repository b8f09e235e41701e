"""Verification library for circularly polarized vacuum-mode algebra,
oscillator spectral sums, and exact exchange-symmetry derivations.

The package exports each submodule's own __all__.
"""

from . import (
    errors,
    exchange,
    internal_rotation,
    modes,
    oscillator,
    phase_algebra,
    spectral,
)
from .errors import *  # noqa: F403
from .exchange import *  # noqa: F403
from .internal_rotation import *  # noqa: F403
from .modes import *  # noqa: F403
from .oscillator import *  # noqa: F403
from .phase_algebra import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (
        errors,
        exchange,
        internal_rotation,
        modes,
        oscillator,
        phase_algebra,
        spectral,
    )
    for name in module.__all__
]
