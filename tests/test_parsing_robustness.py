"""The text formats' failures: exact errors and mutational fuzz.

Each malformed line is refused with its exception type and its whole
message, and any mutated input surfaces as a library error (ParseError or
a sibling), never as a bare KeyError/IndexError/AttributeError from the
guts.
"""

import random

import pytest

from posetval import (Dyadic, Poset, SimpleValuation, build_schedule, cdf,
                      format_map, format_poset, format_valuation,
                      lower_adjoint, parse_map, parse_poset, parse_valuation,
                      represent)
from posetval.chain import format_quantile, parse_quantile
from posetval.errors import (Error, MassExceeded, NotAChain, OrderViolation,
                             ParseError, UnknownElement)

VALID_POSET = """element bot
element a
element b
element top
bottom bot
cover bot a
cover bot b
cover a top
cover b top
"""

VALID_VALUATION = "a 1/2^1\nb 1/2^1\n"

VALID_QUANTILE = "break 1/2^2 c0\nbreak 1/2^1 c1\nbreak 1 c2\n"

VALID_MAP = """layers 2
layer 0
map - bot
layer 1
map 0 bot
map 1 top
"""

C3 = "element c0\nelement c1\nelement c2\nbottom c0\ncover c0 c1\ncover c1 c2\n"


def mutate(rng, text):
    lines = text.splitlines()
    op = rng.randrange(6)
    if op == 0 and lines:
        lines.pop(rng.randrange(len(lines)))
    elif op == 1 and lines:
        lines.insert(rng.randrange(len(lines) + 1),
                     rng.choice(["bogus", "element", "cover a", "map 01",
                                 "break x y z w", "layer -1", "a b c",
                                 "a -1/2^1", "a 1/3", "%", "\x00",
                                 "a 1/2^99999999999999999999",  # shift bomb
                                 "layers 0", "layer 9999999"]))
    elif op == 2 and lines:
        i = rng.randrange(len(lines))
        lines[i] = lines[i] + " trailing"
    elif op == 3 and lines:
        i = rng.randrange(len(lines))
        lines[i] = lines[i].replace("1", "x")
    elif op == 4 and lines:
        i = rng.randrange(len(lines))
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines = lines + lines  # duplicate everything
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(5))
def test_fuzz_parsers_fail_cleanly(seed):
    rng = random.Random(seed)
    m4 = parse_poset(VALID_POSET)
    c3 = parse_poset(C3)
    for _ in range(300):
        for text, parse in (
                (VALID_POSET, parse_poset),
                (VALID_VALUATION, lambda t: parse_valuation(t, m4)),
                (VALID_QUANTILE, lambda t: parse_quantile(t, c3)),
                (VALID_MAP, lambda t: parse_map(t, m4))):
            mutated = mutate(rng, text)
            try:
                parse(mutated)
            except Error:
                pass  # clean library failure (or a benign still-valid text)


# -- exact errors, one table per format ---------------------------------------
# Each row is a malformed input with the exception type and the whole
# message it must raise; the line number counts comments and blank lines.

POSET_ERRORS = [
    ("bogus\n", ParseError, "line 1: unrecognized directive 'bogus'"),
    ("element\n", ParseError, "line 1: unrecognized directive 'element'"),
    ("element a b\n", ParseError,
     "line 1: unrecognized directive 'element a b'"),
    ("cover a\n", ParseError, "line 1: unrecognized directive 'cover a'"),
    ("bottom\n", ParseError, "line 1: unrecognized directive 'bottom'"),
    ("# head\n\nelement a\n  element a  # again\n", ParseError,
     "line 4: duplicate element 'a'"),
    ("element a\nbottom a\nbottom a\n", ParseError,
     "line 3: second bottom directive"),
    ("element a\n\x00\nbottom a\n", ParseError,
     "line 2: unrecognized directive '\\x00'"),
    ("element a\n# bottom a\n", OrderViolation, "no bottom directive"),
    ("", OrderViolation, "no bottom directive"),
    ("element a\nbottom b\n", UnknownElement, "bottom 'b' is not an element"),
    ("element a\nbottom a\ncover a z\n", UnknownElement,
     "cover names unknown element: a z"),
]

VALUATION_ERRORS = [
    ("a\n", ParseError, "line 1: expected '<element> <dyadic>'"),
    ("a 1/2^1 b\n", ParseError, "line 1: expected '<element> <dyadic>'"),
    ("# head\n\nzz 1/2^1\n", UnknownElement, "line 3: unknown element 'zz'"),
    ("a 1/3\n", ParseError, "line 1: not a dyadic rational: '1/3'"),
    ("a -1/2^1\n", ParseError, "line 1: not a dyadic rational: '-1/2^1'"),
    ("a +1\n", ParseError, "line 1: not a dyadic rational: '+1'"),
    ("a 1/2^+1\n", ParseError, "line 1: not a dyadic rational: '1/2^+1'"),
    ("a １\n", ParseError, "line 1: not a dyadic rational: '１'"),
    ("a 1/2^99999999999999999999\n", ParseError,
     "line 1: not a dyadic rational: '1/2^99999999999999999999'"),
    ("a 1/2^1 # x\nzz 1 # unknown before the dyadic\n", UnknownElement,
     "line 2: unknown element 'zz'"),
    ("a 1\nb 1/2^3\n", MassExceeded, "total mass 9/2^3 exceeds 1"),
]

MAP_ERRORS = [
    ("layers x\n", ParseError, "line 1: expected an integer after 'layers'"),
    ("layers 1\nlayer x\n", ParseError,
     "line 2: expected an integer after 'layer'"),
    ("layers 65\n", ParseError, "line 1: layers 65 out of range"),
    ("layers 1\nlayer 65\n", ParseError, "line 2: layer 65 out of range"),
    ("layers 1\nlayers 1\n", ParseError, "line 2: second layers header"),
    ("layers 1\nmap - bot\n", ParseError,
     "line 2: map entry before any layer"),
    ("layers 1\nlayer 1\nmap 012 bot\n", ParseError,
     "line 3: word '012' does not fit depth 1"),
    ("layers 1\nlayer 1\nmap 2 bot\n", ParseError,
     "line 3: word '2' does not fit depth 1"),
    ("layers 1\nlayer 0\n\n# x\nmap - zz\n", UnknownElement,
     "line 5: unknown element 'zz'"),
    ("layers 1\nlayer 0\nmap - zz\nmap - zz\n", UnknownElement,
     "line 3: unknown element 'zz'"),
    ("layers 1\nlayer 0\nmap - bot\nmap - a\n", ParseError,
     "line 4: word '-' listed twice"),
    ("layers 1\nlayer 0\nmap -\n", ParseError,
     "line 3: unrecognized directive 'map -'"),
    ("layers\n", ParseError, "line 1: unrecognized directive 'layers'"),
    ("layers 2\nlayer 0\nmap - bot\n", ParseError, "layer count mismatch"),
    ("layer 0\nmap - bot\n", ParseError, "layer count mismatch"),
    ("layers 0\n", ParseError, "no layers"),
    ("layers 1\nlayer 1\nmap 0 bot\n", ParseError, "layer 1 is not total"),
]

QUANTILE_ERRORS = [
    ("break 1\n", ParseError, "line 1: expected 'break <dyadic> <element>'"),
    ("brake 1 c0\n", ParseError,
     "line 1: expected 'break <dyadic> <element>'"),
    ("break x c0\n", ParseError, "line 1: bad threshold 'x'"),
    ("break -1 c0\n", ParseError, "line 1: bad threshold '-1'"),
    ("# head\nbreak 3/2^1 c0\n", ParseError,
     "line 2: threshold 3/2^1 exceeds 1"),
    ("break 1/2^1 zz\n", UnknownElement, "line 1: unknown element 'zz'"),
    ("break 1/2^1 c1\n\nbreak 1/2^2 c2\n", ParseError,
     "line 3: breakpoints must ascend strictly"),
    ("break 1/2^2 c1\nbreak 1/2^1 c1\n", ParseError,
     "line 2: breakpoints must ascend strictly"),
]


def _raises_exactly(parse, text, kind, message):
    with pytest.raises(Error) as caught:
        parse(text)
    assert type(caught.value) is kind
    assert str(caught.value) == message


@pytest.mark.parametrize("text, kind, message", POSET_ERRORS)
def test_poset_errors(text, kind, message):
    _raises_exactly(parse_poset, text, kind, message)


@pytest.mark.parametrize("text, kind, message", VALUATION_ERRORS)
def test_valuation_errors(text, kind, message):
    _raises_exactly(lambda t: parse_valuation(t, parse_poset(VALID_POSET)),
                    text, kind, message)


@pytest.mark.parametrize("text, kind, message", MAP_ERRORS)
def test_map_errors(text, kind, message):
    _raises_exactly(lambda t: parse_map(t, parse_poset(VALID_POSET)),
                    text, kind, message)


@pytest.mark.parametrize("text, kind, message", QUANTILE_ERRORS)
def test_quantile_errors(text, kind, message):
    _raises_exactly(lambda t: parse_quantile(t, parse_poset(C3)),
                    text, kind, message)


def test_quantile_refuses_a_base_that_is_not_a_chain():
    _raises_exactly(lambda t: parse_quantile(t, parse_poset(VALID_POSET)),
                    VALID_QUANTILE, NotAChain, "poset is not totally ordered")


# -- names the serializers refuse ---------------------------------------------
# A name is written only if the line reader gives it back as one field:
# not empty, no whitespace (Unicode's included), no comment sign.

BAD_NAMES = ["a#b", "#", "c d", "", "y\xa0z", "tab\tx", "new\nline",
             "sep\u2028x", " lead", "trail\t"]


def _serialized(name):
    """Each serializer's output for a chain bot < name < top, on which a
    valuation charges name and top."""
    base = Poset(["bot", name, "top"], [("bot", name), (name, "top")], "bot")
    v = SimpleValuation(base, {name: Dyadic(1, 1), "top": Dyadic(1, 1)})
    return {"poset": lambda: format_poset(base),
            "valuation": lambda: format_valuation(v),
            "map": lambda: format_map(represent(build_schedule(v, 1))),
            "quantile": lambda: format_quantile(lower_adjoint(cdf(v)))}


@pytest.mark.parametrize("name", BAD_NAMES)
@pytest.mark.parametrize("serializer",
                         ["poset", "valuation", "map", "quantile"])
def test_serializers_refuse_names_the_syntax_cannot_carry(serializer, name):
    with pytest.raises(ValueError) as caught:
        _serialized(name)[serializer]()
    assert str(caught.value) == ("element %r cannot be written: a name must "
                                 "be one field, without whitespace or '#'"
                                 % name)


def test_serializers_name_the_first_bad_element_and_pass_good_ones():
    with pytest.raises(ValueError, match="^element 'x y' cannot"):
        format_poset(Poset(["bot", "x y", "a#b"],
                           [("bot", "x y"), ("bot", "a#b")], "bot"))
    # a name is written as str() gives it
    assert format_poset(Poset([0, 1], [(0, 1)], 0)) \
        == "element 0\nelement 1\nbottom 0\ncover 0 1\n"
    # any other name round-trips, quotes, backslashes and all
    for name in ['a"b', "c\\d", "\u00e9", "\x00", "element"]:
        text = _serialized(name)
        base = parse_poset(text["poset"]())
        assert format_poset(base) == text["poset"]()
        assert format_valuation(parse_valuation(text["valuation"](), base)) \
            == text["valuation"]()
        assert format_map(parse_map(text["map"](), base)) == text["map"]()
        assert format_quantile(parse_quantile(text["quantile"](), base)) \
            == text["quantile"]()
