"""Tokenizer semantics: must mirror the reference analyzer chain
(expand_attribute_name splitting + lowercase; core.py:100-123)."""

import pyarrow as pa
import pytest

from auctus_ray.tokenize import tokenize_array, tokenize_text


CASES = [
    ("getHTTPResponse2Code", ["get", "httpresponse", "2", "code"]),
    ("foo_bar-baz.qux", ["foo", "bar", "baz", "qux"]),
    ("aBcD", ["a", "bc", "d"]),
    ("a1b", ["a", "1", "b"]),
    ("Hello,  World!", ["hello", "world"]),
    ("", []),
    ("___", []),
    ("CamelCase camel2Case", ["camel", "case", "camel", "2", "case"]),
    ("x" * 10, ["x" * 10]),
]


@pytest.mark.parametrize("text,expected", CASES)
def test_code_analyzer_python(text, expected):
    assert tokenize_text(text, "code") == expected


def test_code_analyzer_arrow_matches_python():
    texts = [c[0] for c in CASES] + [None, "def fooBar(): return42"]
    arr = pa.array(texts, pa.string())
    out = tokenize_array(arr, "code").to_pylist()
    for t, got in zip(texts, out):
        assert got == tokenize_text(t or "", "code"), t


def test_simple_analyzer_matches_duckdb_semantics():
    """simple == regexp_extract_all(lower(x), '[a-z0-9]+') — the SQL oracle."""
    import duckdb

    texts = ["Hello World", "getHTTPResponse2Code", "a,b;c", "", "123abc"]
    for t in texts:
        sql = duckdb.sql(
            "select regexp_extract_all(lower(?), '[a-z0-9]+')", params=[t]
        ).fetchone()[0]
        assert tokenize_text(t, "simple") == sql
    arr_out = tokenize_array(pa.array(texts), "simple").to_pylist()
    assert arr_out == [tokenize_text(t, "simple") for t in texts]


def test_reference_expand_attribute_name_parity():
    """Spot-check vs the documented reference behavior (core.py:100-123):
    split on delimiters, digit<->alpha and lower->UPPER boundaries; the
    ES chain then lowercases."""
    # reference: expand_attribute_name('metroAreaHttp2Server_x') ->
    #   metro, Area, Http, 2, Server, x  -> lowercase
    assert tokenize_text("metroAreaHttp2Server_x") == [
        "metro", "area", "http", "2", "server", "x",
    ]
    # UPPER runs are kept together (no UPPER->lower split in the reference)
    assert tokenize_text("HTTPServer") == ["httpserver"]


# ---------------------------------------------- byte path vs regex chain

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from auctus_ray import tokenize as tokenize_mod

_ASCII_ROW = st.text(alphabet="abzAMZ0159 _-.,!\t\n\x00/:@[`{\x7f", max_size=24)
# code points utf8_lower maps to ASCII letters (U+212A KELVIN SIGN -> 'k',
# U+0130 -> 'i'), and one it keeps non-ASCII
_WIDE_ROW = st.builds(
    lambda a, w, b: a + w + b, _ASCII_ROW,
    st.sampled_from(["\u212a", "\u0130", "\u00e9", "x\u212aY2"]), _ASCII_ROW,
)


def _regex_chain(arr, analyzer):
    """tokenize_array with every row forced through the regex chain."""
    with mock.patch.object(tokenize_mod, "_split_tokens", tokenize_mod._regex_tokens):
        return tokenize_array(arr, analyzer)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.one_of(st.none(), _ASCII_ROW, _WIDE_ROW), max_size=10),
    large=st.booleans(),
    offset=st.integers(0, 3),
    analyzer=st.sampled_from(["code", "code_stem", "simple"]),
)
def test_byte_path_matches_regex_chain(rows, large, offset, analyzer):
    arr = pa.array(rows, pa.large_string() if large else pa.string())[offset:]
    got = tokenize_array(arr, analyzer)
    want = _regex_chain(arr, analyzer)
    assert got.type == want.type
    assert got.equals(want)


def test_only_non_ascii_rows_take_the_regex_chain():
    seen = []
    regex_tokens = tokenize_mod._regex_tokens

    def spy(arr, camel):
        seen.append(arr.to_pylist())
        return regex_tokens(arr, camel)

    wide = ["\u212aelvin", "caf\u00e9 ok", "\u0130D"]
    rows = ["fooBar2x", wide[0], "x1Y", wide[1], None, wide[2]]
    with mock.patch.object(tokenize_mod, "_regex_tokens", spy):
        got = tokenize_array(pa.array(rows), "code")
        assert seen == [wide]
        seen.clear()
        tokenize_array(pa.array(["getHTTPResponse2Code", None, ""]), "code")
        assert seen == []
    assert got.to_pylist() == [
        ["foo", "bar", "2", "x"], ["kelvin"], ["x", "1", "y"], ["caf", "ok"],
        [], ["id"],
    ]
