"""Exception types shared across the package, and the text reader that raises them."""

from pathlib import Path


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ContractError(ValueError):
    """A documented precondition was violated; `field` names the dataclass
    field whose value broke it, when one did."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class ConfigError(ValueError):
    """Bad or unknown configuration key/value."""


class DataError(ValueError):
    """Missing or inconsistent input data."""


class ParseError(ValueError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericError(RuntimeError):
    """A non-finite forward output, matching cost or loss component: exit 4."""


class CheckpointError(ValueError):
    """Checkpoint incompatible with the configured model."""


def require(ok, obj, field, rule):
    """Unless ok, a ContractError naming `field` of `obj`, its value and the
    `rule` it breaks."""
    if not ok:
        value = getattr(obj, field)
        raise ContractError(f"{field}={value!r} out of range: must be {rule}", field)


def at_least(obj, **lows):
    """require(field >= low) for each field=low, in order."""
    for field, low in lows.items():
        require(getattr(obj, field) >= low, obj, field, f">= {low}")


def read_text(path):
    """Contents of a UTF-8 text file; bytes that do not decode raise a
    ParseError naming their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError("bytes that are not UTF-8", line=line) from None
