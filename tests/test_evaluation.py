import itertools
import math
import random
from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alertgraphs.automaton import LearnParams, _smoothed_log2, build_suffix_tree, learn_pdfa
from alertgraphs.episodes import Symbol
from alertgraphs.evaluation import learn_markov_chain, perplexity, split_sequences
from alertgraphs.stages import AttackStage


def sequence_probability(model, seq):
    """Probability the model assigns to one trace, in (0, 1]."""
    return 2.0 ** model.log2_probability(seq)


def context_state(chain, sym):
    """The Markov chain's state after consuming ``sym``."""
    return chain.fallback[chain.ids[sym]]


def bigram_counts(chain):
    """{(prev, cur): count} read off the chain's transitions."""
    return {
        (prev, chain.symbols[sid]): cnt
        for prev in chain.alphabet
        for sid, (_, cnt) in chain.trans[context_state(chain, prev)].items()
    }


class TestSequenceProbability:
    def test_single_training_sequence_hand_computation(self):
        # Trained only on [a]: alphabet size 1. Smoothed factors are
        # (1+1)/(1+1+1) at the root (symbol a) and (1+1)/(1+1+1) at the
        # child (ending), so P([a]) = (2/3)^2 = 4/9.
        tree = build_suffix_tree([["a"]])
        assert sequence_probability(tree, ["a"]) == pytest.approx(4.0 / 9.0)
        model = learn_pdfa(tree, LearnParams())
        assert sequence_probability(model, ["a"]) == pytest.approx(4.0 / 9.0)

    def test_unseen_symbol_gets_smoothed_floor(self):
        # learn_pdfa takes its trie over, so the learner gets a trie of its own
        corpus = [["a"], ["a"], ["b"]]
        learned = learn_pdfa(build_suffix_tree(corpus), LearnParams())
        for model in (build_suffix_tree(corpus), learned, learn_markov_chain([["a"], ["b"]])):
            assert sequence_probability(model, ["zzz", "a"]) > 0.0

    @pytest.mark.parametrize("kind", ["tree", "pdfa", "markov"])
    def test_probability_mass_bounded(self, kind):
        # Exhaustive enumeration oracle: total probability over all
        # sequences of length <= 2 on a 2-symbol alphabet must stay <= 1.
        rng = random.Random(2)
        corpus = [[rng.choice("ab") for _ in range(rng.randrange(1, 4))] for _ in range(20)]
        if kind == "tree":
            model = build_suffix_tree(corpus)
        elif kind == "pdfa":
            model = learn_pdfa(build_suffix_tree(corpus), LearnParams(sink_count=2))
        else:
            model = learn_markov_chain(corpus)
        total = 0.0
        for length in range(3):
            for seq in itertools.product("ab", repeat=length):
                total += sequence_probability(model, list(seq))
        assert total <= 1.0 + 1e-12


class TestPerplexity:
    def test_perfect_model_scores_one(self):
        # the empirical P([a]) is 1; add-one over {a, end} makes each of its
        # two factors (5+1)/(5+1+1), so the perplexity is (7/6)^2
        tree = build_suffix_tree([["a"]] * 5)
        assert perplexity(tree, [["a"]]) == pytest.approx((7 / 6) ** 2)

    def test_direct_formula_evaluation(self):
        # The tree over {2 x [a], 1 x [b], 1 x [c]} counts [a] 2 of 4 and
        # [b] 1 of 4 times; add-one over three symbols and the end gives
        # P([a]) = 3/8 * 3/6 and P([b]) = 2/8 * 2/5.
        tree = build_suffix_tree([["a"], ["a"], ["b"], ["c"]])
        assert sequence_probability(tree, ["a"]) == pytest.approx(3 / 8 * 3 / 6)
        assert sequence_probability(tree, ["b"]) == pytest.approx(2 / 8 * 2 / 5)
        assert perplexity(tree, [["a"], ["b"]]) == pytest.approx(
            (3 / 16 * 1 / 10) ** -0.5, abs=1e-9
        )

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            perplexity(build_suffix_tree([["a"]]), [])

    def test_overflowing_power_is_infinite(self):
        # the trace of 2,000 unseen symbols has log2 probability about -2003,
        # and 2.0 ** 2003 overflows a float
        assert perplexity(build_suffix_tree([["a"]] * 4), [["b"] * 2000]) == math.inf

    def test_log_probabilities_added_left_to_right(self):
        # -1e16 + -1.0 rounds back to -1e16, so the left-to-right mean is 0;
        # a compensated sum keeps the -1.0 and gives 2 ** (1 / 3)
        class Stub:
            def log2_probability(self, seq):
                return seq[0]

        assert perplexity(Stub(), [[-1e16], [-1.0], [1e16]]) == 1.0


def bigram_oracle(sequences):
    """Sliding-window bigram counts over the reversed corpus."""
    counts = {}
    for seq in sequences:
        rev = list(reversed(seq))
        for prev, cur in zip(rev, rev[1:]):
            counts[(prev, cur)] = counts.get((prev, cur), 0) + 1
    return counts


class TestMarkovChain:
    def test_repeated_sequence_near_one(self):
        chain = learn_markov_chain([["a", "b"]] * 10)
        assert sequence_probability(chain, ["a", "b"]) > 0.5

    def test_rows_sum_to_one_after_smoothing(self):
        rng = random.Random(4)
        corpus = [[rng.choice("abc") for _ in range(rng.randrange(1, 5))] for _ in range(15)]
        chain = learn_markov_chain(corpus)
        contexts = list(chain.alphabet)
        n_alpha = len(chain.alphabet)
        counts = bigram_counts(chain)
        for ctx in contexts:
            total = chain.total[context_state(chain, ctx)]
            row = [
                (counts.get((ctx, sym), 0) + 1) / (total + n_alpha + 1)
                for sym in chain.alphabet
            ]
            row.append((chain.final[context_state(chain, ctx)] + 1) / (total + n_alpha + 1))
            assert sum(row) == pytest.approx(1.0)

    def test_bigram_counts_match_sliding_window_oracle(self):
        rng = random.Random(6)
        corpus = [[rng.choice("abcd") for _ in range(rng.randrange(1, 7))] for _ in range(20)]
        assert bigram_counts(learn_markov_chain(corpus)) == bigram_oracle(corpus)

    def test_chain_has_no_text_form(self):
        # the text form holds no fallback table: read back, this chain's
        # unseen bigram a<-a would fall off the automaton, and [a, a, b]
        # would score -6.007 instead of -5.229
        a, b = Symbol(AttackStage.SERVICE_DISC, "ssh"), Symbol(AttackStage.DATA_EXFILTRATION, "ssh")
        chain = learn_markov_chain([[a, b]] * 3 + [[b, a]])
        assert chain.log2_probability([a, a, b]) == pytest.approx(-5.229, abs=1e-3)
        with pytest.raises(ValueError, match="fallback"):
            chain.to_text()


# Reference: the bigram-dict Markov chain the automaton form replaced. It
# keeps a context per symbol whether or not the bigram was seen.
class MarkovChain:
    """Bigram model over reversed sequences with start/end pseudo-states."""

    def __init__(self):
        self.start_counts = defaultdict(int)
        self.start_end = 0  # empty sequences
        self.start_total = 0
        self.bigram_counts = defaultdict(lambda: defaultdict(int))
        self.end_counts = defaultdict(int)
        self.context_totals = defaultdict(int)
        self.alphabet: tuple = ()

    def _observe(self, reversed_seq):
        self.start_total += 1
        if not reversed_seq:
            self.start_end += 1
            return
        self.start_counts[reversed_seq[0]] += 1
        for prev, cur in zip(reversed_seq, reversed_seq[1:]):
            self.bigram_counts[prev][cur] += 1
            self.context_totals[prev] += 1
        self.end_counts[reversed_seq[-1]] += 1
        self.context_totals[reversed_seq[-1]] += 1

    def log2_probability(self, seq):
        n_alpha = len(self.alphabet)
        rev = list(reversed(seq))
        prev = None  # None = start pseudo-state
        lp = 0.0
        for sym in rev:
            if prev is None:
                count, total = self.start_counts.get(sym, 0), self.start_total
            else:
                count = self.bigram_counts.get(prev, {}).get(sym, 0)
                total = self.context_totals.get(prev, 0)
            lp += _smoothed_log2(count, total, n_alpha)
            prev = sym
        if prev is None:
            count, total = self.start_end, self.start_total
        else:
            count, total = self.end_counts.get(prev, 0), self.context_totals.get(prev, 0)
        return lp + _smoothed_log2(count, total, n_alpha)


def reference_markov_chain(sequences):
    chain = MarkovChain()
    alphabet = set()
    for seq in sequences:
        chain._observe(list(reversed(seq)))
        alphabet.update(seq)
    chain.alphabet = tuple(sorted(alphabet))
    return chain


markov_corpora = st.lists(st.lists(st.sampled_from("abcd"), max_size=5), min_size=1, max_size=15)


@given(markov_corpora, st.lists(st.lists(st.sampled_from("abcdxy"), max_size=6), max_size=8))
def test_markov_chain_matches_reference(train, held_out):
    # x and y never occur in training: a held-out sequence may hold an
    # unseen symbol before, between or after seen ones
    held_out += [["a", "x"], ["x", "a", "b"], ["a", "y", "x", "b", "c"], []]
    chain, reference = learn_markov_chain(train), reference_markov_chain(train)
    assert chain.alphabet == reference.alphabet
    for seq in train + held_out:
        assert chain.log2_probability(seq) == reference.log2_probability(seq)


class TestSplit:
    def test_deterministic_and_partitioning(self):
        corpus = [[c] for c in "abcdefghij"]
        train1, test1 = split_sequences(corpus, 0.8, seed=5)
        train2, test2 = split_sequences(corpus, 0.8, seed=5)
        assert (train1, test1) == (train2, test2)
        assert len(train1) == 8 and len(test1) == 2
        assert sorted(map(tuple, train1 + test1)) == sorted(map(tuple, corpus))

    def test_different_seed_different_order(self):
        corpus = [[c] for c in "abcdefghij"]
        assert split_sequences(corpus, 0.8, seed=1) != split_sequences(corpus, 0.8, seed=2)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_sequences([["a"]], 1.0, seed=0)
