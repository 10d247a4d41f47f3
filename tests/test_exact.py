"""exact.parse_exact, the one parser of values from outside, and
exact.render_exact, the one rule by which a report echoes them."""

from fractions import Fraction
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import checked_reference, parse_value_reference
from waring_gaps import cli
from waring_gaps.exact import fraction_str, parse_exact, render_exact

# Strings that parse, or nearly parse, as an int, a rational or an int list.
NUMBERISH = st.sampled_from(
    ["0", "-3", " 7 ", "1/2", " 3 / -6 ", "1/0", "2.5", "x", "", " ", "7e2", "0x10", "1/x",
     "1,2", "9, 2,,3", ",", "1,x", "1_000", "٣", "1" * 5000]
)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | NUMBERISH
    | st.fractions() | st.builds(PurePosixPath, st.text(min_size=1, max_size=4))
)
# Every JSON type, and what a flag or a caller can pass besides: a Fraction,
# a path and a tuple.
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


def outcome(parse, *args):
    """What parse(*args) returns, with its type, or the exception it raises."""
    try:
        value = parse(*args)
    except Exception as exc:  # compared whole: type and message
        return "raises", type(exc), str(exc)
    return "returns", type(value), value


class TestParseExact:
    @settings(max_examples=1000, deadline=None)
    @given(raw=VALUES, kind=st.sampled_from(["int", "fraction", "intlist", "path"]))
    def test_matches_the_flag_and_config_parser_it_replaced(self, raw, kind):
        spec = cli.Param("min-len", kind)
        assert outcome(parse_exact, raw, kind, "gaps: parameter min-len") == outcome(
            parse_value_reference, "gaps", spec, raw
        )

    @settings(max_examples=1000, deadline=None)
    @given(raw=VALUES, kind=st.sampled_from(["int", "fraction", "object", "list", "string"]))
    def test_matches_the_certificate_parser_it_replaced(self, raw, kind):
        assert outcome(parse_exact, raw, kind, "field q") == outcome(
            checked_reference, raw, kind, "field q"
        )

    @pytest.mark.parametrize(
        "raw,kind,value",
        [
            (" 12 ", "int", 12),
            ("-3/6", "fraction", Fraction(-1, 2)),
            ("4, 9,,", "intlist", (4, 9)),
            (7, "intlist", (7,)),
            ("t.bin", "path", Path("t.bin")),
            ({"kind": "constant"}, "object", {"kind": "constant"}),
            ([1, 2], "list", [1, 2]),
            ("poly", "string", "poly"),
        ],
    )
    def test_every_kind(self, raw, kind, value):
        parsed = parse_exact(raw, kind, "field x")
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize(
        "raw,kind,message",
        [
            (True, "int", "field x: expected int, got bool"),
            ("2.5", "int", "field x: expected int, got '2.5'"),
            ("1/0", "fraction", "field x: expected fraction, got '1/0'"),
            ("1,x", "intlist", "field x: expected int, got 'x'"),
            (3, "path", "field x: expected path, got int"),
            ([], "object", "field x: expected object, got list"),
            ("[1]", "list", "field x: expected list, got str"),
            ({"x": 1}, "string", "field x: expected string, got dict"),
        ],
    )
    def test_a_value_of_another_type_names_its_field(self, raw, kind, message):
        with pytest.raises(ValueError) as info:
            parse_exact(raw, kind, "field x")
        assert str(info.value) == message


class TestRenderExact:
    @pytest.mark.parametrize(
        "value,echo",
        [
            (Fraction(6, 4), "3/2"),
            (Fraction(-4, 2), "-2"),
            (Path("a/t.bin"), "a/t.bin"),
            ((9, 63), [9, 63]),
            ((Fraction(1, 100), (Fraction(2),)), ["1/100", ["2"]]),
            (None, None),
            (7, 7),
            (True, True),
            ("poly", "poly"),
            ([Fraction(1, 2)], [Fraction(1, 2)]),  # only tuples are parsed values
        ],
    )
    def test_echoes(self, value, echo):
        assert render_exact(value) == echo

    @settings(max_examples=300, deadline=None)
    @given(raw=VALUES, kind=st.sampled_from(["int", "fraction", "intlist", "path"]))
    def test_a_parsed_parameter_echoes_to_what_parses_back_to_it(self, raw, kind):
        try:
            value = parse_exact(raw, kind, "x")
        except ValueError:
            return
        assert parse_exact(render_exact(value), kind, "x") == value
        if kind == "fraction":
            assert render_exact(value) == fraction_str(value)
