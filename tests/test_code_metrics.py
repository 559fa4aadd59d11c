"""Hamming distance, minimum distance, and code capability arithmetic."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from gf2m.code_metrics import (
    CodeBook,
    analyze,
    capabilities,
    hamming_distance,
    min_distance,
)
from gf2m.errors import BoundViolation, Gf2mError, LengthMismatch, TooFewWords


# -- distance -------------------------------------------------------------------

def test_hamming_distance_counts_differing_positions():
    assert hamming_distance("000", "111") == 3
    assert hamming_distance("10011", "11010") == 2
    assert hamming_distance("1010", "1010") == 0


def test_hamming_distance_validation():
    with pytest.raises(LengthMismatch):
        hamming_distance("00", "000")
    with pytest.raises(Gf2mError):
        hamming_distance("0a0", "000")
    with pytest.raises(Gf2mError):
        hamming_distance("", "")


# -- codebooks ------------------------------------------------------------------

def test_codebook_infers_k_for_power_of_two_sizes():
    book = CodeBook.from_words(["000", "111"])
    assert (book.n, book.k) == (3, 1)
    four = CodeBook.from_words(["00000", "01011", "10101", "11110"])
    assert four.k == 2


def test_codebook_leaves_k_unset_otherwise():
    book = CodeBook.from_words(["000", "011", "101"])
    assert book.k is None


def test_codebook_k_follows_the_words():
    words = frozenset({"000", "011", "101", "110"})
    assert CodeBook(3, words).k == 2  # direct construction derives it too
    with pytest.raises(TypeError):
        CodeBook.from_words(words, k=1)  # no override can contradict them


def test_codebook_validation():
    with pytest.raises(Gf2mError):
        CodeBook.from_words([])
    with pytest.raises(LengthMismatch):
        CodeBook.from_words(["00", "111"])
    with pytest.raises(Gf2mError):
        CodeBook.from_words(["0x1"])


@pytest.mark.parametrize("n, words, error", [
    (3, frozenset({"0a1"}), Gf2mError),
    (3, frozenset({"00", "111"}), LengthMismatch),
    (3, frozenset(), Gf2mError),
    (3, frozenset({"00", "01"}), LengthMismatch),  # n disagrees with the words
])
def test_direct_construction_checks_what_from_words_checks(n, words, error):
    with pytest.raises(error):
        CodeBook(n, words)


def test_min_distance_needs_two_words():
    with pytest.raises(TooFewWords):
        min_distance(CodeBook.from_words(["1010"]))


def test_min_distance_examples():
    assert min_distance(CodeBook.from_words(["000", "111"])) == 3
    parity = CodeBook.from_words(["000", "011", "101", "110"])
    assert min_distance(parity) == 2


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.sets(st.integers(min_value=0, max_value=(1 << n) - 1),
                      min_size=2, max_size=20).map(
        lambda ints: [format(x, f"0{n}b") for x in ints])))
def test_min_distance_is_the_least_pairwise_hamming_distance(words):
    book = CodeBook.from_words(words)
    assert min_distance(book) == min(hamming_distance(x, y)
                                     for x, y in combinations(words, 2))


# -- capabilities ------------------------------------------------------------------

def test_triple_repetition_code_report():
    report = analyze(CodeBook.from_words(["000", "111"]))
    assert report["n"] == 3
    assert report["k"] == 1
    assert report["d_min"] == 3
    assert report["detect"] == 2
    assert report["correct"] == 1
    assert report["rate"] == Fraction(1, 3)
    assert report["singleton_max"] == 3


def test_even_parity_code_detects_but_cannot_correct():
    report = analyze(CodeBook.from_words(["000", "011", "101", "110"]))
    assert report["d_min"] == 2
    assert report["detect"] == 1
    assert report["correct"] == 0
    assert report["rate"] == Fraction(2, 3)


def test_capabilities_arithmetic():
    caps = capabilities(5, 15, 7)
    assert caps.detect == 4
    assert caps.correct == 2
    assert caps.rate == Fraction(7, 15)
    assert caps.singleton_max == 9


def test_capabilities_validation():
    with pytest.raises(BoundViolation):
        capabilities(4, 3, 1)  # n - k + 1 = 3 < 4
    with pytest.raises(Gf2mError):
        capabilities(0, 3, 1)
    with pytest.raises(Gf2mError):
        capabilities(1, 3, 0)


def test_analyze_without_k_omits_rate():
    report = analyze(CodeBook.from_words(["000", "011", "101"]))
    assert "rate" not in report
    assert report["k"] is None
    assert report["d_min"] == 2
