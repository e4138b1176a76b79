"""Library refusals that no other test reaches, and those of the laws that
moved from the library to tests/oracles.py: each case's exception type and
its whole message, plus the two fallbacks that refuse nothing."""

from dataclasses import FrozenInstanceError

import pytest

from posetval import (Dyadic, Poset, PosetMap, RepresentationMap,
                      SimpleValuation, StepMap, UpperSet, Word, add, cdf,
                      delta, lift_step, lower_adjoint, portmanteau_check,
                      pushforward, represent)
from posetval.errors import (MixedBase, NotAChain, NotComparable,
                             NotProbability, OrderViolation, TooLarge)

from conftest import make_chain
from oracles import embed, quantile_leq


def diamond():
    return Poset(["bot", "a", "b", "top"],
                 [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
                 "bot")


def halves(base):
    return SimpleValuation(base, {"a": Dyadic(1, 1), "b": Dyadic(1, 1)})


def half_a(base):
    return SimpleValuation(base, {"a": Dyadic(1, 1)})


def bottom_layer():
    return StepMap(0, ends=[1], values=["bot"])


def quantile_of_top(chain):
    return lower_adjoint(cdf(delta(chain, "c2")))


def delete_bits():
    w = Word("0")
    del w.bits


def deep_off(base, x, y):
    """A probability stage at exponent 17, one level past MAX_DEPTH, with
    all but 2^-17 of its mass at x and the rest at y."""
    tip = Dyadic(1, 17)
    return SimpleValuation(base, {x: Dyadic(1, 0) - tip, y: tip})


def past_the_bound(halves_first, x, y):
    """represent from the bottom through halves (two runs) or delta_a (one
    run) to deep_off(x, y), whose layer would lie past the bound; the plan
    is made before the depth is checked."""
    base = diamond()
    middle = halves(base) if halves_first else delta(base, "a")
    return represent([delta(base, "bot"), middle, deep_off(base, x, y)])


def on_two_posets(probability):
    other = diamond()
    stage = halves(other) if probability else half_a(other)
    return represent([delta(diamond(), "bot"), stage])


REFUSALS = {
    "poset without elements": (
        lambda: Poset([], [], "x"),
        OrderViolation, "poset needs at least one element"),
    "upper set not upward closed": (
        lambda: UpperSet(diamond(), frozenset({"a"})),
        OrderViolation, "set is not upward closed: ['a']"),
    "schedule without stages": (
        lambda: represent([]),
        ValueError, "schedule needs at least one stage"),
    "schedule starting off the bottom": (
        lambda: represent([halves(diamond())]),
        NotComparable, "schedule must start at the bottom mass"),
    "lift toward a subprobability": (
        lambda: lift_step(bottom_layer(), half_a(diamond())),
        NotProbability, "lift target must have mass 1"),
    "lift toward a subprobability no plan reaches": (
        lambda: lift_step(StepMap(1, ends=[1, 2], values=["a", "top"]),
                          half_a(diamond())),
        NotProbability, "lift target must have mass 1"),
    "stage past the depth bound": (
        lambda: past_the_bound(True, "top", "a"),
        TooLarge, "representation depth 17 exceeds the bound 16"),
    "stage past the depth bound, not above a two-run layer's law": (
        lambda: past_the_bound(True, "b", "top"),
        NotComparable, "valuations are not ordered; no transport plan"),
    "stage past the depth bound, not above a one-run layer's law": (
        lambda: past_the_bound(False, "b", "top"),
        NotComparable, "valuations are not ordered; no transport plan"),
    "stage on another poset": (
        lambda: on_two_posets(True),
        MixedBase, "valuations live on different posets"),
    "subprobability stage on another poset": (
        lambda: on_two_posets(False),
        NotProbability, "lift target must have mass 1"),
    "representation without layers": (
        lambda: RepresentationMap(diamond(), []),
        ValueError, "need at least one layer"),
    "layers of equal depth": (
        lambda: RepresentationMap(diamond(),
                                  [bottom_layer(), bottom_layer()]),
        ValueError, "layer depths must increase strictly"),
    "quantile maps over two chains": (
        lambda: quantile_leq(quantile_of_top(make_chain(3)),
                             quantile_of_top(make_chain(3))),
        NotAChain, "quantile maps over different chains"),
    "add across posets": (
        lambda: add(half_a(diamond()), half_a(diamond())),
        MixedBase, "cannot add valuations over different posets"),
    "pushforward across posets": (
        lambda: pushforward(
            PosetMap(diamond(), diamond(), {"bot": "bot"}), half_a(diamond())),
        MixedBase, "map domain differs from the valuation's poset"),
    "portmanteau of no valuations": (
        lambda: portmanteau_check([], halves(diamond())),
        ValueError, "empty sequence"),
    "negative exponent": (
        lambda: Dyadic(1, -1),
        ValueError, "exponent must be nonnegative"),
    "deleting a word's bits": (
        delete_bits,
        FrozenInstanceError, "cannot delete field 'bits'"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal(case):
    call, kind, message = REFUSALS[case]
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind and str(exc.value) == message


def test_lift_refuses_a_subprobability_before_any_plan(solves):
    # a two-run layer would take its plan from a flow; the target's mass is
    # checked first, so no network is solved
    with pytest.raises(NotProbability):
        lift_step(StepMap(1, ends=[1, 2], values=["a", "b"]),
                  half_a(diamond()))
    assert solves == []


def test_upper_set_membership():
    up = UpperSet(diamond(), frozenset({"a", "top"}))
    assert "a" in up and "top" in up
    assert "b" not in up and "bot" not in up


def test_embed_below_the_word_keeps_it():
    w = Word("0101", truncated=True)
    assert embed(w, 2) == w and embed(w, 2).truncated


def test_lift_skips_a_taken_fresh_bottom():
    lifted = Poset(["_bot", "a"], [("_bot", "a")], "_bot").lift()
    assert lifted.bottom == "_bot_"
    assert lifted.elements == ["_bot_", "_bot", "a"]
    assert lifted.covers == [("_bot_", "_bot"), ("_bot", "a")]
