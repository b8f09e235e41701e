"""Physical constants bundle.

Natural units (hbar = c = m = 1) are the default everywhere. mu0 is the
magneton that sets the Zeeman scale; in natural units it defaults to 1 so
Zeeman energies read in units of mu0*B.
"""

from dataclasses import dataclass

__all__ = ["PhysicalConstants", "NATURAL"]


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float = 1.0
    c: float = 1.0
    m: float = 1.0
    mu0: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "c", "m", "mu0"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")


NATURAL = PhysicalConstants()
