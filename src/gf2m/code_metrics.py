"""Block-code measurements: Hamming distance, minimum distance, and the
derived detect/correct/rate figures.

Codewords are binary strings ("010...") of one common length n, compared as
ints inside.  Rates are exact rationals, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .errors import BoundViolation, Gf2mError, LengthMismatch, TooFewWords

__all__ = ["CodeBook", "CodeCapabilities", "hamming_distance", "min_distance",
           "capabilities", "analyze"]


def _check_word(word: str) -> None:
    if not word or set(word) - {"0", "1"}:
        raise Gf2mError(f"codeword must be a nonempty binary string, got {word!r}")


def hamming_distance(x: str, y: str) -> int:
    """Number of positions where the two words differ."""
    _check_word(x), _check_word(y)
    if len(x) != len(y):
        raise LengthMismatch(f"word lengths differ: {len(x)} vs {len(y)}")
    return (int(x, 2) ^ int(y, 2)).bit_count()


@dataclass(frozen=True)
class CodeBook:
    """A set of distinct n-bit codewords; an (n, k) code when it holds 2^k."""

    n: int
    words: frozenset[str]

    def __post_init__(self) -> None:
        for w in self.words:
            _check_word(w)
        if not self.words:
            raise Gf2mError("empty codebook")
        lengths = {len(w) for w in self.words}
        if lengths != {self.n}:
            raise LengthMismatch(f"mixed word lengths {sorted(lengths | {self.n})}")

    @property
    def k(self) -> int | None:
        """log2 of the word count when that is an integer, else None."""
        size = len(self.words)
        return size.bit_length() - 1 if size.bit_count() == 1 else None

    @staticmethod
    def from_words(words: Iterable[str]) -> "CodeBook":
        ws = frozenset(words)
        return CodeBook(len(next(iter(ws), "")), ws)


def min_distance(book: CodeBook) -> int:
    """Exhaustive pairwise minimum Hamming distance."""
    if len(book.words) < 2:
        raise TooFewWords("minimum distance needs at least two words")
    ints = [int(w, 2) for w in book.words]
    return min((x ^ y).bit_count() for x, y in combinations(ints, 2))


@dataclass(frozen=True)
class CodeCapabilities:
    d_min: int
    detect: int
    correct: int
    rate: Fraction
    singleton_max: int


def capabilities(d_min: int, n: int, k: int) -> CodeCapabilities:
    """detect = d-1, correct = floor((d-1)/2), rate = k/n, bound n-k+1."""
    if d_min < 1:
        raise Gf2mError(f"d_min must be >= 1, got {d_min}")
    if not 1 <= k <= n:
        raise Gf2mError(f"need 1 <= k <= n, got k={k}, n={n}")
    singleton_max = n - k + 1
    if d_min > singleton_max:
        raise BoundViolation(
            f"d_min={d_min} exceeds the n-k+1 = {singleton_max} bound")
    return CodeCapabilities(
        d_min=d_min,
        detect=d_min - 1,
        correct=(d_min - 1) // 2,
        rate=Fraction(k, n),
        singleton_max=singleton_max,
    )


def analyze(book: CodeBook) -> dict:
    """Everything the code words determine, as a flat report dict."""
    d = min_distance(book)
    report: dict = {
        "n": book.n,
        "words": len(book.words),
        "k": book.k,
        "d_min": d,
        "detect": d - 1,
        "correct": (d - 1) // 2,
    }
    if book.k is not None:
        caps = capabilities(d, book.n, book.k)
        report["rate"] = caps.rate
        report["singleton_max"] = caps.singleton_max
    return report
