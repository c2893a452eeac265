"""Exception types shared across the package; `cli` maps each to an exit code.
`named`, the one code that re-raises a package error, puts the file or
manifest entry it concerns in front of its message."""


class PronAssessError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(PronAssessError):
    """A file does not conform to its declared on-disk format."""


class UnsupportedFormatError(FormatError):
    """A file parses but uses an encoding we deliberately reject."""


class ValidationError(PronAssessError):
    """A value violates a documented invariant (field range, schema, shape)."""


class InventoryError(PronAssessError):
    """A phoneme symbol is not part of the inventory."""


class InfeasibleAlignmentError(PronAssessError):
    """No monotone segmentation exists (fewer frames than phones)."""


class TooShortError(PronAssessError):
    """Signal shorter than one analysis window."""


class EmptyInputError(PronAssessError):
    """An input set holds nothing to work on."""


def named(context, fn, *args, **kwargs):
    """fn(*args, **kwargs), with f"{context}: " in front of the message of a
    package error, which keeps its type. A message that starts with
    f"{context}:" already (a `path:line:` one, or single-utterance `score`,
    whose entry id is its WAV path) is kept, and an empty context adds
    nothing."""
    try:
        return fn(*args, **kwargs)
    except PronAssessError as exc:
        if not str(context) or str(exc).startswith(f"{context}:"):
            raise
        raise type(exc)(f"{context}: {exc}") from None
