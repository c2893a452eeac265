"""Exception types shared across the package; `cli` maps each to an exit code."""


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
