import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posetval import (Dyadic, ONE, QuantileMap, SimpleValuation, StepMap, Word,
                      ZERO, build_schedule, represent, unit_to_word)
from posetval.errors import DepthExceeded, OutOfRange, PartialMap

from conftest import shuffled_poset
from oracles import (embed, first_disagreement_by_words, level, project,
                     pushforward_counting, word_to_unit)

words = st.text(alphabet="01", max_size=10).map(Word)


def expansion_value(bits):
    """Independent oracle: value of the finite expansion as k / 2^len."""
    if not bits:
        return ZERO
    return Dyadic(int(bits, 2), len(bits))


def test_project_examples():
    assert project(Word("01"), 1) == Word("0")
    w = Word("1101")
    assert project(w, len(w)) == w
    assert project(w, 2) == Word("11")
    with pytest.raises(DepthExceeded):
        project(Word("01"), 3)


def test_project_refuses_a_negative_depth():
    # w.bits[:m] would count a negative m from the end of the word
    for w, m in ((Word("0101"), -1), (Word("01"), -5), (Word(""), -1)):
        with pytest.raises(ValueError, match="depth must be nonnegative, "
                                             "not %d" % m):
            project(w, m)


def test_embed_examples():
    assert embed(Word("1"), 3) == Word("100")
    assert embed(Word("01"), 2) == Word("01")
    assert embed(Word(""), 2) == Word("00")


@given(words, st.integers(0, 10), st.integers(0, 10))
def test_embedding_projection_pair(w, pad, m):
    n = len(w.bits) + pad
    up = embed(w, n)
    assert project(up, len(w.bits)) == w
    if m <= len(w.bits):
        # functoriality of nested projections
        assert project(project(w, len(w.bits)), m) == project(w, m)


def test_level_shape():
    for n in range(5):
        ws = level(n)
        assert len(ws) == 1 << n
        assert ws == sorted(ws, key=lambda w: w.bits)
        for u in ws:
            for v in ws:
                if u != v:
                    assert not u.is_prefix_of(v)


def test_way_below_on_words():
    assert Word("0").way_below(Word("01"))
    assert not Word("01", truncated=True).way_below(Word("01"))
    assert Word("").way_below(Word("1"))


def test_pushforward_counting_examples(m4):
    v = pushforward_counting({"0": "a", "1": "b"}, 1, m4)
    assert dict(v.weights) == {"a": Dyadic(1, 1), "b": Dyadic(1, 1)}
    c = pushforward_counting({w.bits: "top" for w in level(2)}, 2, m4)
    assert dict(c.weights) == {"top": ONE}
    mixed = pushforward_counting(
        {"00": "a", "01": "a", "10": "b", "11": "top"}, 2, m4)
    assert dict(mixed.weights) == {"a": Dyadic(1, 1), "b": Dyadic(1, 2),
                                   "top": Dyadic(1, 2)}
    assert mixed.is_probability()
    with pytest.raises(PartialMap):
        pushforward_counting({"0": "a"}, 1, m4)


def test_counting_measures_cohere_under_projection(m4):
    # pushing the level-n map through a prefix collapse matches level-m
    for n, m in ((3, 1), (4, 2)):
        table_n = {w.bits: "top" if w.bits[0] == "1" else "a"
                   for w in level(n)}
        table_m = {w.bits: "top" if w.bits[0] == "1" else "a"
                   for w in level(m)}
        assert pushforward_counting(table_n, n, m4) \
            == pushforward_counting(table_m, m, m4)


@given(words)
def test_word_to_unit_matches_expansion_oracle(w):
    assert word_to_unit(w) == expansion_value(w.bits)


def test_word_to_unit_examples():
    assert word_to_unit(Word("10")) == Dyadic(1, 1)
    assert word_to_unit(Word("0000")) == ZERO
    assert word_to_unit(Word("11")) == Dyadic(3, 2)


def test_unit_to_word_examples():
    assert unit_to_word(Dyadic(1, 1), 2) == Word("01")
    assert unit_to_word(ZERO, 3) == Word("000")
    assert unit_to_word(ONE, 2) == Word("11")
    with pytest.raises(OutOfRange):
        unit_to_word(Dyadic(3, 1), 2)


def test_unit_to_word_refuses_a_negative_depth():
    for r in (ZERO, Dyadic(1, 1), ONE):
        with pytest.raises(ValueError, match="depth must be nonnegative, "
                                             "not -1"):
            unit_to_word(r, -1)


def test_unit_to_word_is_least_word_reaching_r():
    # oracle: the extensions of a depth-n word w cover values up to
    # value(w) + 2^-n, so the truncated adjoint is the lex-least w whose
    # extensions can still reach r (all-zeros for r = 0)
    n = 3
    for i in range(0, (1 << 6) + 1):
        r = Dyadic(i, 6)
        if r.is_zero():
            expected = Word("0" * n)
        else:
            expected = next(w for w in level(n)
                            if r <= word_to_unit(w) + Dyadic(1, n))
        assert unit_to_word(r, n) == expected


@given(st.integers(0, 64), st.integers(0, 6), st.integers(0, 4))
def test_unit_adjunction(i, n, pad):
    r = Dyadic(i, 6)
    u = unit_to_word(r, n)
    # any word extending u reaches r up to the truncation error
    w = embed(u, n + pad)
    assert r <= word_to_unit(w) + Dyadic(1, n)


def test_round_trip_band():
    for n in range(1, 6):
        for i in range(0, (1 << n) + 1):
            r = Dyadic(i, n)
            back = word_to_unit(unit_to_word(r, n))
            assert back <= r
            assert r <= back + Dyadic(1, n)


def test_uniform_cell_lengths():
    # unit_to_word partitions the fine grid into near-equal cells per word
    for n in (2, 3):
        grid_exp = n + 3
        counts = {}
        for i in range(0, (1 << grid_exp) + 1):
            w = unit_to_word(Dyadic(i, grid_exp), n)
            counts[w.bits] = counts.get(w.bits, 0) + 1
        cell = Dyadic(1, grid_exp)
        for w in level(n):
            length = Dyadic(counts.get(w.bits, 0), grid_exp)
            assert length <= Dyadic(1, n) + cell
            assert Dyadic(1, n) <= length + cell


def test_layers_and_quantile_maps_are_step_maps(m4):
    target = SimpleValuation(m4, {"a": Dyadic(1, 1), "b": Dyadic(1, 1)})
    layers = represent(build_schedule(target, 2)).layers
    assert len(layers) == 3
    assert all(type(layer) is StepMap for layer in layers)
    assert issubclass(QuantileMap, StepMap)


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=16),
       st.integers(0, 64), st.integers(0, 6))
def test_step_map_call_reads_the_word_unit_to_word_spells(values, i, n):
    depth = (len(values) - 1).bit_length()
    table = {w.bits: values[k % len(values)]
             for k, w in enumerate(level(depth))}
    m = StepMap(depth, table)
    r = Dyadic(min(i, 1 << n), n)
    assert m(r) == table[unit_to_word(r, depth).bits]


def test_step_map_first_disagreement(m4):
    # depth-1 a|top against depth-2 a,a,b,top: word 2 sends top above b
    coarse = StepMap(1, ends=[1, 2], values=["a", "top"])
    fine = StepMap(2, ends=[2, 3, 4], values=["a", "b", "top"])
    assert coarse.first_disagreement(fine, m4) == 2
    assert fine.first_disagreement(coarse, m4) is None
    # a partial map is compared only up to the shorter total
    head = StepMap(2, ends=[2], values=["a"])
    assert head.first_disagreement(fine, m4) is None
    assert coarse.first_disagreement(head, m4) is None
    assert StepMap(0).first_disagreement(fine, m4) is None


def random_step_map(rng, base, depth):
    """Runs over the first words of the depth-level, up to a random total
    (perhaps partial, perhaps none), some of them of length zero."""
    total = rng.randint(0, 1 << depth)
    ends = sorted(rng.randint(0, total) for _ in range(rng.randint(0, 4)))
    if total or rng.random() < 0.5:
        ends.append(total)
    return StepMap(depth, ends=ends,
                   values=[rng.choice(base.elements) for _ in ends])


@given(st.randoms(use_true_random=False))
def test_first_disagreement_is_the_word_scan(rng):
    base = shuffled_poset(rng, 6, rng.choice([0.2, 0.5]))
    f = random_step_map(rng, base, rng.randint(0, 4))
    g = random_step_map(rng, base, rng.randint(0, 4))
    want = first_disagreement_by_words(f, g, base)
    assert f.first_disagreement(g, base) == want
    assert StepMap(0).first_disagreement(g, base) is None
    assert g.first_disagreement(StepMap(0), base) is None


@given(st.randoms(use_true_random=False))
def test_items_lists_every_word_below_the_total(rng):
    base = shuffled_poset(rng, 4, 0.5)
    depth = rng.randint(0, 5)
    f = random_step_map(rng, base, depth)
    n = f.ends[-1] if f.ends else 0
    want = [(format(i, "0%db" % depth) if depth else "", f.at(i))
            for i in range(n)]
    assert list(f.items()) == want
    assert list(StepMap(0).items()) == []


def test_words_are_frozen_values():
    w = Word("01", truncated=True)
    for name in ("bits", "truncated"):
        with pytest.raises(FrozenInstanceError):
            setattr(w, name, "1")
    for u in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert u == w and hash(u) == hash(w)
        assert (u.bits, u.truncated) == ("01", True)
    with pytest.raises(ValueError):
        Word("012")


def test_word_equality_ignores_truncation():
    assert Word("01") == Word("01", truncated=True)
    assert hash(Word("01")) == hash(Word("01", truncated=True))
    assert Word("01") != Word("011") and Word("01") != "01"
    assert repr(Word("01", truncated=True)) \
        == "Word(bits='01', truncated=True)"
    assert repr(Word("")) == "Word(bits='', truncated=False)"
