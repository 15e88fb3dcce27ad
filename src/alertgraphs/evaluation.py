"""Sequence-model quality: trace probabilities, perplexity, and a first-order
Markov-chain baseline over reversed sequences.

All models share the same add-one smoothing over alphabet-plus-termination,
applied at evaluation time only, so probabilities never hit zero.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from operator import add
from typing import Sequence

from .automaton import SuffixPdfa, SymbolT, _symbol_table, count_sequences


def learn_markov_chain(sequences: Sequence[Sequence[SymbolT]]) -> SuffixPdfa:
    """Bigram model over reversed sequences as a counted automaton.

    State 0 is the start; state ``i + 1`` is the context after symbol id
    ``i``, and every symbol leads to its own state, seen bigram or not.
    """
    symbols = _symbol_table(sequences)
    n = len(symbols) + 1
    fallback = {i: i + 1 for i in range(n - 1)}
    chain = SuffixPdfa(symbols, [0] * n, [0] * n, [{} for _ in range(n)], [False] * n, fallback)
    return count_sequences(chain, sequences)


def perplexity(model, sequences: Sequence[Sequence[SymbolT]]) -> float:
    """2 raised to the negative mean log2 trace probability, ``math.inf`` where
    that overflows a float (a mean below about -1024); lower fits better.
    Floats are added left to right, as ``sum`` did before Python 3.12."""
    if not sequences:
        raise ValueError("perplexity requires at least one sequence")
    logs = map(model.log2_probability, sequences)
    mean = reduce(add, logs, 0.0) / len(sequences)
    try:
        return 2.0 ** (-mean)
    except OverflowError:
        return math.inf


def split_sequences(
    sequences: Sequence[Sequence[SymbolT]], fraction: float, seed: int
) -> tuple[list, list]:
    """Seeded shuffle split; the first ``int(fraction * n)`` go to train."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    indices = list(range(len(sequences)))
    random.Random(seed).shuffle(indices)
    cut = int(fraction * len(sequences))
    train = [sequences[i] for i in indices[:cut]]
    test = [sequences[i] for i in indices[cut:]]
    return train, test
