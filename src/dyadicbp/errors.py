"""Exception taxonomy shared by every module, and the config value checkers.

The split mirrors the CLI exit codes: configuration problems, numeric
failures (non-finite values, blow-ups), and required-but-missed
convergence are distinct failure classes.

A checker ``check(key, value)`` returns the value to store or raises
ConfigError naming ``key``. It never converts a number: a valid file's
values, and so its config hash, stay as written.
"""

import dataclasses


class ShapeError(ValueError):
    """A vector, matrix, or bundle does not conform to the owning network."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the computation requires finiteness."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""


class ConvergenceError(RuntimeError):
    """Convergence was required (strict mode) but a relaxation did not converge."""


def enum_from_name(cls, name, what: str):
    """Member of ``cls`` named by ``name``, ignoring case, blanks, "_" and "-";
    a ConfigError naming the valid spellings if there is none."""
    key = str(name).strip().lower().replace("_", "").replace("-", "")
    for member in cls:
        if member.value.lower() == key:
            return member
    valid = ", ".join(member.value for member in cls)
    raise ConfigError(f"unknown {what} {name!r} (one of {valid})")


def typed(kinds: tuple, what: str):
    """Checker that passes a value of ``kinds`` through unchanged, a bool
    only where ``kinds`` names it."""

    def check(key, value):
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        return value

    return check


INTEGER = typed((int,), "an integer")
NUMBER = typed((int, float), "a number")
STRING = typed((str,), "a string")
BOOL = typed((bool,), "true or false")


def member(cls):
    """Checker of an enum field: a member of ``cls``, or its name."""
    return lambda key, value: value if isinstance(value, cls) else cls.from_name(value)


def list_of(item):
    """Checker of a list field: a list or tuple, stored as the tuple of
    ``item`` of each entry."""

    def check(key, value):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(item(key, v) for v in value)

    return check


def optional(check):
    """``check`` that also passes None, a field's "not set"."""
    return lambda key, value: None if value is None else check(key, value)


def checked(default, check, **where):
    """A dataclass field holding ``default``, whose value ``check`` reads
    (see check_fields); ``where`` places it in a config file."""
    return dataclasses.field(default=default, metadata={"check": check, **where})


def check_fields(config) -> None:
    """Run the checker of each field of a frozen dataclass and store its result."""
    for f in dataclasses.fields(config):
        check = f.metadata.get("check")
        if check is not None:
            object.__setattr__(config, f.name, check(f.name, getattr(config, f.name)))
