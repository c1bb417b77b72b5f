"""Exception taxonomy shared by every module.

The split mirrors the CLI exit codes: configuration problems, numeric
failures (non-finite values, blow-ups), and required-but-missed
convergence are distinct failure classes.
"""


class ShapeError(ValueError):
    """A vector, matrix, or bundle does not conform to the owning network."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the computation requires finiteness."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""


class ConvergenceError(RuntimeError):
    """Convergence was required (strict mode) but a relaxation did not converge."""


def enum_from_name(cls, name, what: str):
    """Member of ``cls`` named by ``name``, ignoring case, blanks, "_" and "-"."""
    key = str(name).strip().lower().replace("_", "").replace("-", "")
    for member in cls:
        if member.value.lower() == key:
            return member
    raise ConfigError(f"unknown {what} {name!r}")
