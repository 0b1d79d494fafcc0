"""Token classes and vocabulary-driven classification.

Which ids count as special or punctuation is not a property of the
engine; callers declare it through ``VocabMetadata``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable


class TokenClass(IntEnum):
    """A token's class. Each value is the class's code: the class byte of
    AKVT trace files and the entries of the compressed cache's ``codes``."""

    SPECIAL = 0
    PUNCTUATION = 1
    OTHER = 2


@dataclass(frozen=True)
class TokenAnnotation:
    position: int
    token_id: int
    klass: TokenClass


@dataclass(frozen=True)
class VocabMetadata:
    """Declares which token ids are special and which are punctuation."""

    special_ids: frozenset[int] = field(default_factory=frozenset)
    punctuation_ids: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "special_ids", frozenset(self.special_ids))
        object.__setattr__(self, "punctuation_ids", frozenset(self.punctuation_ids))

    def classify_id(self, token_id: int) -> TokenClass:
        if token_id in self.special_ids:
            return TokenClass.SPECIAL
        if token_id in self.punctuation_ids:
            return TokenClass.PUNCTUATION
        return TokenClass.OTHER


def classify_tokens(
    token_ids: Iterable[int], vocab: VocabMetadata
) -> list[TokenAnnotation]:
    """Label every token position; unknown ids fall back to OTHER.

    Special wins over punctuation when the metadata sets overlap; that
    overlap is reported as a warning, not an error.
    """
    overlap = vocab.special_ids & vocab.punctuation_ids
    if overlap:
        warnings.warn(
            f"special and punctuation id sets overlap on {sorted(overlap)}; "
            "special takes precedence",
            stacklevel=2,
        )
    return [
        TokenAnnotation(position=pos, token_id=tid, klass=vocab.classify_id(tid))
        for pos, tid in enumerate(token_ids)
    ]
