"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class ValidationError(ValueError):
    """A numerical contract was violated (non-Hermitian, non-unitary, NaN, ...)."""
