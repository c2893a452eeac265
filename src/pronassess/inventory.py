"""Phoneme inventory: 39 ARPAbet monophones plus SIL and UNK.

Index order is fixed; serialized artifacts (posteriors, embeddings,
checkpoints) all rely on it staying stable.
"""

from .errors import InventoryError

PHONEMES: tuple[str, ...] = (
    "AA", "AE", "AH", "AO", "AW", "AY", "B", "CH", "D", "DH",
    "EH", "ER", "EY", "F", "G", "HH", "IH", "IY", "JH", "K",
    "L", "M", "N", "NG", "OW", "OY", "P", "R", "S", "SH",
    "T", "TH", "UH", "UW", "V", "W", "Y", "Z", "ZH",
    "SIL", "UNK",
)

PHONE_TO_INDEX: dict[str, int] = {p: i for i, p in enumerate(PHONEMES)}

INVENTORY_SIZE = len(PHONEMES)
assert INVENTORY_SIZE == 41


def phone_index(symbol: str) -> int:
    """Index of a phoneme symbol, or InventoryError if unknown."""
    try:
        return PHONE_TO_INDEX[symbol]
    except KeyError:
        raise InventoryError(f"unknown phoneme symbol {symbol!r}") from None
