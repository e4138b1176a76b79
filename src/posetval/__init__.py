"""Exact dyadic valuations on finite posets.

Order and way-below decisions via max-flow transport, representation of
probability valuations as monotone maps from binary-tree levels, quantile
adjunctions on chains, weak-convergence checks, and unit-interval samplers
whose laws are exact by counting.
"""

from . import errors
from .cantor import StepMap, Word, unit_to_word
from .chain import Cdf, QuantileMap, cdf, lower_adjoint, pushforward_lebesgue
from .dyadic import ONE, ZERO, Dyadic, parse_dyadic
from .pipeline import (SkorohodWitness, represent_sequence, skorohod,
                       skorohod_sequence)
from .poset import Poset, UpperSet, format_poset, parse_poset
from .skorohod import (RepresentationMap, build_schedule, format_map,
                       lift_step, parse_map, represent, sample)
from .valuation import (PosetMap, SimpleValuation, TransportPlan, add, delta,
                        format_valuation, leq, leq_witness, parse_valuation,
                        portmanteau_check, pushforward, scale, transport_plan,
                        way_below)

__all__ = [
    "Dyadic", "ZERO", "ONE", "parse_dyadic",
    "Poset", "UpperSet", "parse_poset", "format_poset",
    "SimpleValuation", "TransportPlan", "PosetMap", "delta", "scale", "add",
    "leq", "leq_witness", "transport_plan", "way_below",
    "pushforward", "portmanteau_check",
    "parse_valuation", "format_valuation",
    "Word", "StepMap", "unit_to_word",
    "Cdf", "QuantileMap", "cdf", "lower_adjoint", "pushforward_lebesgue",
    "RepresentationMap", "build_schedule", "lift_step", "represent", "sample",
    "format_map", "parse_map",
    "SkorohodWitness", "represent_sequence", "skorohod", "skorohod_sequence",
    "errors",
]
