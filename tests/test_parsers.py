"""The text parsers on arbitrary input: each returns a value or raises
Gf2mError, never another exception."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from gf2m import CodeBook, Gf2Poly, XorNetlist
from gf2m.errors import Gf2mError

# derandomized: the same examples on every run, so Tier-1 stays repeatable
fuzz = settings(derandomize=True, max_examples=300, deadline=None)

# arbitrary text, and text over the characters the polynomial forms use
poly_text = st.text() | st.text(st.sampled_from("01xX^+ 9aF\t٣４"))

# netlist lines: well-formed ones over a few names, lines of a known
# keyword with the wrong arity or kind, and arbitrary text
names = st.sampled_from(["a_0", "a_1", "g0", "g1", "zero", "z_0"])
netlist_line = st.one_of(
    st.just(""),
    st.builds("# {}".format, st.text()),
    st.builds("INPUT {}".format, names),
    st.builds("CONST {} {}".format, names, st.sampled_from("01 2x")),
    st.builds("GATE {} {} {} {}".format, names,
              st.sampled_from(["XOR", "AND", "NAND", "OR"]), names, names),
    st.builds("OUTPUT {} {}".format, names, names),
    st.builds("{} {}".format, st.sampled_from(["INPUT", "CONST", "GATE",
                                               "OUTPUT"]), st.text()),
    st.text(),
)
netlist_text = st.lists(netlist_line, max_size=12).map("\n".join)

codewords = st.lists(st.text(st.sampled_from("01"), max_size=4) | st.text(),
                     max_size=6)


def _value_or_gf2m_error(parse, text):
    try:
        return parse(text)
    except Gf2mError:
        return None


@fuzz
@given(poly_text)
def test_polynomial_parse_returns_or_raises_gf2m_error(text):
    poly = _value_or_gf2m_error(Gf2Poly.parse, text)
    assert poly is None or Gf2Poly.parse(poly.to_binary()) == poly


@fuzz
@given(netlist_text)
def test_netlist_parse_returns_or_raises_gf2m_error(text):
    netlist = _value_or_gf2m_error(XorNetlist.parse, text)
    assert netlist is None or XorNetlist.parse(netlist.serialize()) == netlist


@fuzz
@given(codewords)
def test_codebook_from_words_returns_or_raises_gf2m_error(words):
    book = _value_or_gf2m_error(CodeBook.from_words, words)
    assert book is None or book.words == frozenset(words)
