"""Exception types shared across the package."""


class RecompError(ValueError):
    """Base class for all package-specific errors."""


class OrderMismatch(RecompError):
    """Two graphs that must share a vertex set have different orders."""


class OrderTooLarge(RecompError):
    """Graph order exceeds what the requested exact path supports."""


class KTooLarge(RecompError):
    """Subset size exceeds what the requested exact path supports."""


class EmptySubset(RecompError):
    """An induced subgraph needs at least one vertex."""


class DomainError(RecompError):
    """Arguments fall outside an operation's stated precondition."""


class NonPrimeModulus(RecompError):
    """Modular matrices require a prime modulus."""


class KernelTooLarge(RecompError):
    """Kernel dimension exceeds the enumeration cap."""


class NotPrimePowerOneMod4(RecompError):
    """Paley graphs need a prime power q with q = 1 (mod 4)."""


class VerificationError(RecompError):
    """A construction failed to re-verify one of its claimed properties."""
