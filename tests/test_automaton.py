import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alertgraphs.automaton import (
    OUT_OF_MODEL,
    AnnotatedSequence,
    LearnParams,
    SuffixPdfa,
    SymbolT,
    annotate_sequence,
    build_suffix_tree,
    learn_pdfa,
)
from alertgraphs.episodes import EpisodeSequence, Symbol, partition_subsequences, to_symbols
from alertgraphs.evaluation import perplexity
from alertgraphs.merger import END, _Merger
from alertgraphs.pipeline import PipelineConfig, run_pipeline
from alertgraphs.stages import AttackStage

from util import dot_strings, mk_episode, stage_of


def edges(model, state):
    """Transitions of ``state`` keyed by symbol: {symbol: (target, count)}."""
    return {model.symbols[sid]: hop for sid, hop in model.trans[state].items()}


def tree_paths(tree):
    """Flatten a trie into {reversed-prefix tuple: (total, final)} via DFS."""
    out = {}

    def walk(node, path):
        out[tuple(path)] = (tree.total[node], tree.final[node])
        for sym, (child, _) in edges(tree, node).items():
            walk(child, path + [sym])

    walk(tree.root, [])
    return out


def path_map_oracle(sequences):
    """Counts of every reversed-sequence prefix, computed with plain dicts."""
    totals = Counter()
    finals = Counter()
    for seq in sequences:
        rev = tuple(reversed(seq))
        for i in range(len(rev) + 1):
            totals[rev[:i]] += 1
        finals[rev] += 1
    return totals, finals


class TestSuffixTree:
    def test_single_sequence_chain(self):
        tree = build_suffix_tree([["a", "b"]])
        paths = tree_paths(tree)
        # reversed [a, b] is the path root -> b -> a
        assert paths[()] == (1, 0)
        assert paths[("b",)] == (1, 0)
        assert paths[("b", "a")] == (1, 1)
        assert ("a",) not in paths

    def test_count_accumulation(self):
        tree = build_suffix_tree([["a"], ["a"]])
        assert tree_paths(tree)[("a",)] == (2, 2)

    def test_random_corpus_matches_path_map_oracle(self):
        rng = random.Random(13)
        corpus = [
            [rng.choice("abc") for _ in range(rng.randrange(1, 5))] for _ in range(8)
        ]
        tree = build_suffix_tree(corpus)
        totals, finals = path_map_oracle(corpus)
        paths = tree_paths(tree)
        assert {p: t for p, (t, _) in paths.items()} == dict(totals)
        assert {p: f for p, (_, f) in paths.items() if f} == {
            p: c for p, c in finals.items() if c
        }


short_corpora = st.lists(
    st.lists(st.sampled_from("ab"), min_size=1, max_size=4), min_size=1, max_size=12
)


@given(short_corpora)
def test_tree_count_conservation(corpus):
    tree = build_suffix_tree(corpus)
    for node in range(len(tree)):
        child_sum = sum(cnt for _, cnt in tree.trans[node].values())
        assert tree.total[node] == child_sum + tree.final[node]


class TestLearnPdfa:
    def test_chain_with_no_merges(self):
        tree = build_suffix_tree([["a", "b"]] * 10)
        model = learn_pdfa(tree, LearnParams())
        assert len(model) == 3
        assert not model.sink_ids()
        # chain root --b--> 1 --a--> 2, ending state 2
        assert edges(model, 0) == {"b": (1, 10)}
        assert edges(model, 1) == {"a": (2, 10)}
        assert model.final[2] == 10

    def test_indistinct_futures_merge(self):
        # Hand-run of the Hoeffding test with n1=n2=5: the two childless
        # ending states are compatible and merge into one.
        tree = build_suffix_tree([["a"]] * 5 + [["b"]] * 5)
        model = learn_pdfa(tree, LearnParams(sink_count=0))
        assert len(model) == 2
        root = edges(model, 0)
        assert root["a"][0] == root["b"][0] == 1
        assert (model.total[1], model.final[1]) == (10, 10)

    def test_all_rare_states_become_sinks(self):
        tree = build_suffix_tree([["a"], ["b"], ["c"], ["d"]])
        model = learn_pdfa(tree, LearnParams(sink_count=5))
        assert all(model.sink[1:])
        assert not model.sink[0]

    def test_degenerate_empty_corpus(self):
        model = learn_pdfa(build_suffix_tree([]), LearnParams())
        assert len(model) == 1
        assert edges(model, 0) == {}

    def test_determinism_byte_identical(self):
        rng = random.Random(99)
        symbols = [Symbol(AttackStage.SURFING, c) for c in "abcd"]
        corpus = [
            [rng.choice(symbols) for _ in range(rng.randrange(1, 6))] for _ in range(60)
        ]
        first = learn_pdfa(build_suffix_tree(corpus), LearnParams()).to_text()
        second = learn_pdfa(build_suffix_tree(corpus), LearnParams()).to_text()
        assert first == second

    def test_learner_takes_the_trie_over(self):
        corpus, params = merge_heavy_corpus(n=200), LearnParams(0, 0, 0, alpha=0.5)
        tree = build_suffix_tree(corpus)
        learned = learn_pdfa(tree, params)
        # the trie's counts were folded into the result, and a read of what
        # is left fails rather than reading half-merged counts
        assert len(tree) == 0
        with pytest.raises(IndexError):
            tree.replay(corpus[0])
        with pytest.raises(IndexError):
            perplexity(tree, corpus)
        assert learned.to_text() == oracle_learn_pdfa(build_suffix_tree(corpus), params).to_text()

    def test_merger_works_on_the_tries_own_lists(self):
        tree = build_suffix_tree(merge_heavy_corpus(n=200))
        merger = _Merger(tree, LearnParams(0, 0, 0, alpha=0.5))
        assert merger.total is tree.total
        assert merger.final is tree.final
        assert merger.trans is tree.trans


@settings(max_examples=40)
@given(short_corpora, st.integers(min_value=0, max_value=6))
def test_learned_model_count_conservation(corpus, sink_count):
    params = LearnParams(symbol_count=2, state_count=2, sink_count=sink_count)
    model = learn_pdfa(build_suffix_tree(corpus), params)
    for state in range(len(model)):
        child_sum = sum(cnt for _, cnt in edges(model, state).values())
        assert model.total[state] == child_sum + model.final[state]
    # determinism of transitions is structural (dict keyed by symbol); check
    # every target exists
    for state in range(len(model)):
        for tgt, _ in edges(model, state).values():
            assert 0 <= tgt < len(model)


@settings(max_examples=40)
@given(short_corpora)
def test_training_sequences_never_fall_off(corpus):
    model = learn_pdfa(build_suffix_tree(corpus), LearnParams())
    for seq in corpus:
        assert OUT_OF_MODEL not in model.replay(seq)


def replay_oracle(model, symbols):
    """Walk the serialized transition table one step at a time."""
    table = {
        (sid, sym): tgt
        for sid in range(len(model))
        for sym, (tgt, _) in edges(model, sid).items()
    }
    cur = model.root
    reached = []
    for sym in reversed(symbols):
        if cur != OUT_OF_MODEL and (cur, sym) in table:
            cur = table[(cur, sym)]
        else:
            cur = OUT_OF_MODEL
        reached.append(cur)
    return list(reversed(reached))


class TestReplay:
    def test_chain_states(self):
        model = learn_pdfa(build_suffix_tree([["a", "b"]] * 10), LearnParams())
        # the last episode's symbol is consumed first: b ends in the state
        # adjacent to the root
        assert model.replay(["a", "b"]) == [2, 1]

    def test_unseen_symbol_at_reversed_front(self):
        model = learn_pdfa(build_suffix_tree([["a", "b"]] * 10), LearnParams())
        assert model.replay(["a", "zzz"]) == [OUT_OF_MODEL, OUT_OF_MODEL]

    def test_fall_off_midway_stays_off(self):
        model = learn_pdfa(build_suffix_tree([["a", "b"]] * 10), LearnParams())
        # reversed [b, zzz]: first hop fine, then off for the remainder
        assert model.replay(["zzz", "b"]) == [OUT_OF_MODEL, 1]

    def test_fixture_matches_table_walk_oracle(self):
        rng = random.Random(21)
        corpus = [
            [rng.choice("abc") for _ in range(rng.randrange(1, 6))] for _ in range(40)
        ]
        model = learn_pdfa(build_suffix_tree(corpus), LearnParams(sink_count=3))
        for _ in range(15):
            probe = [rng.choice("abcz") for _ in range(rng.randrange(1, 7))]
            assert model.replay(probe) == replay_oracle(model, probe)


def es_from_letters(letters):
    episodes = [mk_episode(float(i), stage=stage_of(l)) for i, l in enumerate(letters)]
    return EpisodeSequence(attacker="10.0.254.1", victim="10.0.0.1", episodes=episodes)


def replay_episodes(model, ess):
    """Pair each episode of one sub-sequence with its replay state id."""
    return list(zip(ess.episodes, model.replay(to_symbols(ess))))


class TestAnnotateSequence:
    def _model_for(self, sequences):
        return learn_pdfa(
            build_suffix_tree([to_symbols(p) for es in sequences for p in partition_subsequences(es)]),
            LearnParams(sink_count=0),
        )

    def test_single_slice_equals_replay(self):
        es = es_from_letters("LMH")
        model = self._model_for([es])
        part, = partition_subsequences(es)
        annotated = annotate_sequence([(part, to_symbols(part))], model)
        assert annotated.entries == replay_episodes(model, part)
        assert len(annotated.entries) == len(es.episodes)

    def test_two_slices_concatenate(self):
        es = es_from_letters("LHLH")
        model = self._model_for([es])
        parts = partition_subsequences(es)
        annotated = annotate_sequence([(p, to_symbols(p)) for p in parts], model)
        expected = [e for p in parts for e in replay_episodes(model, p)]
        assert annotated.entries == expected

    def test_fixture_matches_slice_oracle(self):
        rng = random.Random(17)
        sequences = [
            es_from_letters("".join(rng.choice("LMH") for _ in range(rng.randrange(1, 8))))
            for _ in range(6)
        ]
        model = self._model_for(sequences)
        for es in sequences:
            annotated = annotate_sequence(
                [(p, to_symbols(p)) for p in partition_subsequences(es)], model
            )
            expected = [
                entry
                for part in partition_subsequences(es)
                for entry in replay_episodes(model, part)
            ]
            assert annotated.entries == expected
            assert isinstance(annotated, AnnotatedSequence)
            assert (annotated.attacker, annotated.victim) == (es.attacker, es.victim)


def symbol_corpus(rng, n):
    stages = [AttackStage.SERVICE_DISC, AttackStage.PRIV_ESC, AttackStage.DATA_EXFILTRATION]
    services = ["ssh", "http", "remoteware-cl"]
    return [
        [
            Symbol(rng.choice(stages), rng.choice(services))
            for _ in range(rng.randrange(1, 5))
        ]
        for _ in range(n)
    ]


class TestSerialization:
    def test_round_trip_lossless(self):
        rng = random.Random(31)
        corpus = symbol_corpus(rng, 25)
        model = learn_pdfa(build_suffix_tree(corpus), LearnParams(sink_count=3))
        text = model.to_text()
        back = SuffixPdfa.from_text(text)
        assert back.to_text() == text
        assert back.alphabet == model.alphabet
        assert back.root == model.root
        assert len(back) == len(model)
        for sid in range(len(model)):
            assert (model.total[sid], model.final[sid], model.sink[sid]) == (
                back.total[sid],
                back.final[sid],
                back.sink[sid],
            )
            assert edges(model, sid) == edges(back, sid)

    def test_rendered_symbols(self):
        corpus = [[Symbol(AttackStage.DATA_EXFILTRATION, "remoteware-cl")]] * 6
        model = learn_pdfa(build_suffix_tree(corpus), LearnParams())
        assert "DATA_EXFILTRATION|remoteware-cl" in model.to_text()

    def test_malformed_text_rejected(self):
        with pytest.raises(ValueError):
            SuffixPdfa.from_text("bogus\n")

    @pytest.mark.parametrize(
        "text",
        [
            "alphabet\t\nroot\t0\n0\t1\t0\t0\tSURFING|x->1:1\n",  # symbol not in the alphabet
            "alphabet\tSURFING|x\nroot\t0\n0\t1\t0\t0\tSURFING|x->7:1\n",  # target not a state
            "alphabet\t\nroot\t5\n0\t0\t0\t0\n",  # root not a state
            "alphabet\t\nroot\n0\t0\t0\t0\n",  # root line without its state
            "alphabet\tSURFING|x\nroot\t0\n0\t2\t0\t0\tSURFING|x->0:1\tSURFING|x->0:1\n",  # symbol named twice
            "alphabet\t\nroot\t0\n0\t0\t0\t2\n",  # sink field neither 0 nor 1
            # a count, target or state id in a form to_text never writes
            "alphabet\t\nroot\t0\n0\t05\t05\t0\n",  # leading zero
            "alphabet\t\nroot\t0\n0\t+5\t+5\t0\n",  # sign
            "alphabet\t\nroot\t0\n0\t 5\t 5\t0\n",  # space
            "alphabet\t\nroot\t0\n0\t3\t-1\t0\n",  # negative
            "alphabet\t\nroot\t00\n0\t0\t0\t0\n",  # root id
            "alphabet\t\nroot\t0\n00\t0\t0\t0\n",  # state id
            "alphabet\tSURFING|x\nroot\t0\n0\t1\t0\t0\tSURFING|x->00:1\n",  # target
            "alphabet\tSURFING|x\nroot\t0\n0\t1\t0\t0\tSURFING|x->0:01\n",  # transition count
            "alphabet\tSURFING|x\nroot\t0\n0\t1\t0\t0\tSURFING|x->0\n",  # transition without a count
            "alphabet\t\nroot\t0\n0\t0\t0\n",  # state line short of its four fields
            "alphabet\t\nroot\t0\n0\t3\t0\t0\n",  # counts that do not add up
            "alphabet\t\nroot\t0\n0\t-1\t-1\t0\n",  # negative counts that add up and read back
            "alphabet\tSURFING|x\nroot\t0\n0\t1\t0\t0\tSURFING|x->-1:1\n",  # target -1
            "alphabet\tSURFING|x\nroot\t0\n0\t1\t0\t0\tSURFING|x0:1\n",  # transition without ->
            "alphabet\t\nroot\t0\n",  # no state
            # forms to_text never writes, each read back differently
            "alphabet\tSURFING|x\nroot\t0\n0\t1\t0\t0\tSURFING|x->1:1\n\n1\t1\t1\t0\n",  # blank line
            "alphabet\tSURFING|x\nroot\t0\n0\t1\t0\t0\tSURFING|x->1:1\n1\t1\t1\t0",  # no final newline
            "alphabet\tSURFING|b\tSURFING|a\nroot\t0\n"  # alphabet out of order
            "0\t2\t0\t0\tSURFING|a->1:1\tSURFING|b->1:1\n1\t2\t2\t0\n",
            "alphabet\tSURFING|a\tSURFING|b\nroot\t0\n"  # transitions out of order
            "0\t2\t0\t0\tSURFING|b->1:1\tSURFING|a->1:1\n1\t2\t2\t0\n",
            "alphabet\tSURFING|x\nroot\t1\n0\t1\t0\t0\tSURFING|x->1:1\n1\t1\t1\t0\n",  # root 1
        ],
    )
    def test_inconsistent_text_rejected(self, text):
        with pytest.raises(ValueError, match="malformed automaton text"):
            SuffixPdfa.from_text(text)

    def test_empty_automaton_round_trip(self):
        model = learn_pdfa(build_suffix_tree([]), LearnParams())
        text = model.to_text()
        assert SuffixPdfa.from_text(text).to_text() == text

    @pytest.mark.parametrize(
        "service", ["a\tb", "a\nb", "a\rb", "a\x85b", "a\u2028b", "a\\tb", "a\\", "x->1:2"]
    )
    def test_service_keeps_its_line_and_field(self, service):
        corpus = [[Symbol(AttackStage.DATA_EXFILTRATION, service)]] * 6
        text = learn_pdfa(build_suffix_tree(corpus), LearnParams()).to_text()
        assert len(text.split("\n")) == 5 and "\r" not in text
        back = SuffixPdfa.from_text(text)
        assert back.alphabet == (Symbol(AttackStage.DATA_EXFILTRATION, service),)
        assert back.to_text() == text


any_service_symbols = st.builds(
    Symbol,
    st.sampled_from([AttackStage.SERVICE_DISC, AttackStage.PRIV_ESC, AttackStage.DATA_EXFILTRATION]),
    st.one_of(st.text(), st.sampled_from(["\t", "\n", "\r", "\\", "\x85", "\u2028", "->", ":"])),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(any_service_symbols, min_size=1, max_size=4), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=3),
)
def test_text_round_trip_for_any_service(corpus, count):
    model = learn_pdfa(build_suffix_tree(corpus), LearnParams(count, count, count))
    text = model.to_text()
    back = SuffixPdfa.from_text(text)
    assert back.to_text() == text
    assert back.to_dot() == model.to_dot()


def _edit(text, edit, rng):
    """``text`` with one edit applied; unchanged where the edit has no place."""
    lines = text.split("\n")
    state = rng.randrange(2, len(lines) - 1)  # a state line
    if edit == "blank line":
        lines.insert(rng.randrange(1, len(lines)), "")
    elif edit == "no final newline":
        lines.pop()
    elif edit == "swap transitions":
        wide = [i for i, line in enumerate(lines[2:], 2) if line.count("\t") >= 5]
        if wide:
            i = rng.choice(wide)
            fields = lines[i].split("\t")
            fields[4], fields[5] = fields[5], fields[4]
            lines[i] = "\t".join(fields)
    elif edit == "reverse alphabet":
        label, *names = lines[0].split("\t")
        lines[0] = "\t".join([label, *reversed(names)])
    elif edit == "leading zero":
        fields = lines[state].split("\t")
        count = rng.choice([1, 2])  # total or final
        fields[count] = "0" + fields[count]
        lines[state] = "\t".join(fields)
    elif edit == "root":
        lines[1] = f"root\t{rng.randrange(1, len(lines) - 2)}"  # 1 is not a state of a one-state model
    elif edit == "duplicate state":
        lines.insert(state, lines[state])
    return "\n".join(lines)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(any_service_symbols, min_size=1, max_size=4), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["blank line", "no final newline", "swap transitions", "reverse alphabet",
                     "leading zero", "root", "duplicate state"]),
    st.randoms(use_true_random=False),
)
def test_text_that_loads_reads_back_unchanged(corpus, count, edit, rng):
    model = learn_pdfa(build_suffix_tree(corpus), LearnParams(count, count, count))
    text = _edit(model.to_text(), edit, rng)
    try:
        back = SuffixPdfa.from_text(text)
    except ValueError as exc:
        assert "malformed automaton text" in str(exc)
    else:
        assert back.to_text() == text


def test_committed_golden_automaton_reads_back_byte_for_byte():
    data = (Path(__file__).parent / "golden" / "automaton.txt").read_bytes()
    assert SuffixPdfa.from_text(data.decode("utf-8")).to_text().encode("utf-8") == data


def test_automaton_dot_colors_by_incoming_severity():
    corpus = [
        [Symbol(AttackStage.SERVICE_DISC, "ssh"), Symbol(AttackStage.DATA_EXFILTRATION, "http")]
    ] * 6
    model = learn_pdfa(build_suffix_tree(corpus), LearnParams())
    dot = model.to_dot()
    assert dot.count('fillcolor="red"') == 1  # state entered via the High symbol
    assert 'fillcolor="white"' in dot  # root has no incoming symbol


def test_automaton_dot_escapes_edge_labels():
    corpus = [[Symbol(AttackStage.DATA_EXFILTRATION, 'a"b\\')]] * 6
    dot = learn_pdfa(build_suffix_tree(corpus), LearnParams()).to_dot()
    assert 'DATA_EXFILTRATION|a"b\\ (6)' in dot_strings(dot)


def test_unsmoothed_tree_probability_is_empirical_frequency():
    # each factor is the add-one estimate from the corpus's own counts: of the
    # sequences whose reversal starts with the path read so far, those that
    # go on with the next symbol, or end there
    rng = random.Random(8)
    corpus = [[rng.choice("ab") for _ in range(rng.randrange(1, 4))] for _ in range(30)]
    tree = build_suffix_tree(corpus)
    freq = Counter(tuple(seq) for seq in corpus)
    reversals = [tuple(reversed(seq)) for seq in corpus]
    n_alpha = len(tree.alphabet)

    def passing(path):
        return sum(rev[: len(path)] == path for rev in reversals)

    for seq, count in freq.items():
        path = tuple(reversed(seq))
        expected = (count + 1) / (passing(path) + n_alpha + 1)
        for k in range(len(path)):
            expected *= (passing(path[: k + 1]) + 1) / (passing(path[:k]) + n_alpha + 1)
        assert 2.0 ** tree.log2_probability(list(seq)) == pytest.approx(expected)


# Oracle: the red-blue merger as it was before symbols were ranked once. It
# sorts by ``str`` at every visit; the learner must reproduce it exactly.
class StrKeyedMerger:
    """Red-blue state-merging search over a mutable copy of the trie.

    Red states form the consolidated automaton core; blue states are the
    non-sink children of red states. Each round either performs the highest
    scoring compatible (red, blue) merge or, when none passes, promotes the
    lowest-id blue to red. Sinks never merge or get promoted but stay in the
    final automaton. The root is kept out of merge candidacy so the
    empty-suffix context (sequence endings) survives as a distinct state.
    """

    def __init__(self, tree: SuffixPdfa, params: LearnParams):
        self.p = params
        self.total = {i: tree.total[i] for i in range(len(tree))}
        self.final = {i: tree.final[i] for i in range(len(tree))}
        self.trans = {
            i: {sym: [tgt, cnt] for sym, (tgt, cnt) in edges(tree, i).items()}
            for i in range(len(tree))
        }
        self.root = tree.root
        self.red: set[int] = {self.root}
        self.threshold = math.sqrt(0.5 * math.log(2.0 / params.alpha))

    def _blue_fringe(self) -> dict[int, tuple[int, SymbolT]]:
        fringe: dict[int, tuple[int, SymbolT]] = {}
        for r in sorted(self.red):
            for sym, (tgt, _) in sorted(self.trans[r].items(), key=lambda kv: str(kv[0])):
                if tgt in self.red or tgt in fringe:
                    continue
                if self.total[tgt] < self.p.sink_count:
                    continue  # sink: retained but never a merge candidate
                fringe[tgt] = (r, sym)
        return fringe

    def _evaluate(self, red_id: int, blue_id: int) -> float | None:
        """Merge score when the pair passes the Hoeffding test, else None.

        The test covers every symbol (and the ending) frequent enough in
        either state and recurses into child pairs that both carry at least
        ``state_count`` occurrences. The score is the summed log-likelihood
        gain of pooling the tested counts versus keeping them separate.
        """
        score = 0.0
        stack = [(red_id, blue_id)]
        while stack:
            q1, q2 = stack.pop()
            n1, n2 = self.total[q1], self.total[q2]
            bound = self.threshold * (1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2))
            f1, f2 = self.final[q1], self.final[q2]
            if max(f1, f2) >= self.p.symbol_count:
                if abs(f1 / n1 - f2 / n2) >= bound:
                    return None
                score += _pool_gain(f1, n1, f2, n2)
            t1, t2 = self.trans[q1], self.trans[q2]
            for sym in sorted(set(t1) | set(t2), key=str):
                c1 = t1[sym][1] if sym in t1 else 0
                c2 = t2[sym][1] if sym in t2 else 0
                if max(c1, c2) >= self.p.symbol_count:
                    if abs(c1 / n1 - c2 / n2) >= bound:
                        return None
                    score += _pool_gain(c1, n1, c2, n2)
                if sym in t1 and sym in t2:
                    ch1, ch2 = t1[sym][0], t2[sym][0]
                    if (
                        ch1 != ch2
                        and self.total[ch1] >= self.p.state_count
                        and self.total[ch2] >= self.p.state_count
                    ):
                        stack.append((ch1, ch2))
        return score

    def _merge(self, red_id: int, blue_id: int, parent: int, via: SymbolT) -> None:
        """Fold ``blue_id``'s subtree into ``red_id``, determinizing as we go."""
        self.trans[parent][via][0] = red_id
        stack = [(red_id, blue_id)]
        while stack:
            target, source = stack.pop()
            self.total[target] += self.total[source]
            self.final[target] += self.final[source]
            ttrans = self.trans[target]
            for sym, (s_tgt, s_cnt) in sorted(self.trans[source].items(), key=lambda kv: str(kv[0])):
                entry = ttrans.get(sym)
                if entry is None:
                    ttrans[sym] = [s_tgt, s_cnt]
                else:
                    entry[1] += s_cnt
                    if entry[0] != s_tgt:
                        stack.append((entry[0], s_tgt))
            del self.total[source], self.final[source], self.trans[source]

    def run(self) -> None:
        while True:
            fringe = self._blue_fringe()
            if not fringe:
                return
            best = None
            for blue in sorted(fringe):
                for red in sorted(self.red):
                    if red == self.root:
                        continue
                    score = self._evaluate(red, blue)
                    if score is not None:
                        key = (-score, red, blue)
                        if best is None or key < best[0]:
                            best = (key, red, blue)
            if best is None:
                self.red.add(min(fringe))
            else:
                _, red, blue = best
                parent, via = fringe[blue]
                self._merge(red, blue, parent, via)


def _pool_gain(c1: int, n1: int, c2: int, n2: int) -> float:
    def term(c: int, n: int) -> float:
        return c * math.log2(c / n) if c else 0.0

    return term(c1 + c2, n1 + n2) - (term(c1, n1) + term(c2, n2))


def oracle_learn_pdfa(tree: SuffixPdfa, params: LearnParams) -> SuffixPdfa:
    merger = StrKeyedMerger(tree, params)
    merger.run()

    order: dict[int, int] = {merger.root: 0}
    queue = [merger.root]
    while queue:
        node = queue.pop(0)
        for _, (tgt, _) in sorted(merger.trans[node].items(), key=lambda kv: str(kv[0])):
            if tgt not in order:
                order[tgt] = len(order)
                queue.append(tgt)

    nodes = sorted(order, key=order.__getitem__)
    return SuffixPdfa(
        tree.symbols,
        [merger.total[node] for node in nodes],
        [merger.final[node] for node in nodes],
        [
            {tree.ids[sym]: (order[tgt], cnt) for sym, (tgt, cnt) in merger.trans[node].items()}
            for node in nodes
        ],
        [sid != 0 and merger.total[node] < params.sink_count for sid, node in enumerate(nodes)],
        {},
    )


# Services whose str order differs from tuple order: a quote makes repr
# switch to double quotes, repr escapes backslashes, and characters below
# the quote sort a longer service before its prefix.
ODD_SERVICES = ["ssh", "ssh!", "ss", "SSH", "Ssh", "a'b", "ab", 'a"b', "a\\b", "a b", "é", ""]
oracle_symbols = st.builds(
    Symbol,
    st.sampled_from([AttackStage.SERVICE_DISC, AttackStage.PRIV_ESC, AttackStage.DATA_EXFILTRATION]),
    st.sampled_from(ODD_SERVICES),
)
learn_params = st.builds(
    LearnParams,
    symbol_count=st.integers(min_value=0, max_value=6),
    state_count=st.integers(min_value=0, max_value=6),
    sink_count=st.integers(min_value=0, max_value=6),
    alpha=st.sampled_from([0.01, 0.05, 0.2, 0.5, 0.9]),
)


def test_str_order_differs_from_tuple_order_in_oracle_alphabet():
    symbols = [Symbol(AttackStage.SERVICE_DISC, s) for s in ODD_SERVICES]
    assert sorted(symbols, key=str) != sorted(symbols)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(oracle_symbols, min_size=1, max_size=5), min_size=1, max_size=40),
    learn_params,
)
def test_learner_matches_str_keyed_oracle(corpus, params):
    learned = learn_pdfa(build_suffix_tree(corpus), params)
    assert learned.to_text() == oracle_learn_pdfa(build_suffix_tree(corpus), params).to_text()


@pytest.mark.parametrize(
    "params",
    [LearnParams(), LearnParams(1, 1, 1), LearnParams(0, 0, 0, alpha=0.5), LearnParams(2, 2, 2, alpha=0.9)],
)
def test_learner_matches_str_keyed_oracle_on_fixture(tmp_path, params):
    fixture = Path(__file__).parent / "fixtures/synthetic_alerts.jsonl"
    result = run_pipeline(PipelineConfig(alerts=[fixture], out_dir=tmp_path, stop_after="episodes"))
    learned = learn_pdfa(build_suffix_tree(result.corpus), params)
    assert learned.to_text() == oracle_learn_pdfa(build_suffix_tree(result.corpus), params).to_text()


def merge_heavy_corpus(seed: int = 9, n: int = 500) -> list[list[Symbol]]:
    """Short sequences of skewed draws over 40 symbols.

    Every context has the same future distribution, so hundreds of trie
    states fold into a few red states whose counts grow between
    evaluations: the case where a per-state cache of frequent symbols
    would go stale.
    """
    rng = random.Random(seed)
    alphabet = [
        Symbol(stage, service)
        for stage in list(AttackStage)[:8]
        for service in ("ssh", "http", "a'b", "a b", "SMB")
    ]
    rng.shuffle(alphabet)
    weights = [1.0 / (i + 1) ** 0.8 for i in range(len(alphabet))]
    return [rng.choices(alphabet, weights, k=rng.randint(1, 3)) for _ in range(n)]


@pytest.mark.parametrize(
    "params",
    [LearnParams(), LearnParams(2, 3, 2, 0.2), LearnParams(0, 0, 0, alpha=0.5)],
    ids=["default", "loose", "zero"],
)
def test_learner_matches_str_keyed_oracle_when_merge_heavy(params):
    corpus = merge_heavy_corpus()
    tree = build_suffix_tree(corpus)
    trie_states = len(tree)
    learned = learn_pdfa(tree, params)
    assert len(learned) * 2 < trie_states
    assert learned.to_text() == oracle_learn_pdfa(build_suffix_tree(corpus), params).to_text()


# Small merge-heavy cases where a stale bound, count table or row target
# changes the learned automaton. Each id names the step of ``_evaluate``,
# ``run`` or ``_merge`` whose removal the case catches: reading each child
# from ``trans``, where a merge redirects the row of the blue's parent while
# that parent keeps its table (a copy of the rows made with the table misses
# the redirect; with every threshold at zero, and with the thresholds of the
# third case), reusing a bound only while the red's table stands, and
# dropping the table of every merge target.
@pytest.mark.parametrize(
    "seed, n, params",
    [
        (15, 30, LearnParams(0, 0, 0, alpha=0.5)),
        (4, 30, LearnParams(1, 2, 0, alpha=0.9)),
        (34, 30, LearnParams(1, 2, 0, alpha=0.9)),
        (21, 30, LearnParams(1, 4, 1, alpha=0.9)),
    ],
    ids=[
        "redirected-row-read-at-zero",
        "red-table-identity",
        "redirected-row-read",
        "target-table-dropped",
    ],
)
def test_learner_caches_match_str_keyed_oracle(seed, n, params):
    corpus = merge_heavy_corpus(seed, n)
    learned = learn_pdfa(build_suffix_tree(corpus), params)
    assert learned.to_text() == oracle_learn_pdfa(build_suffix_tree(corpus), params).to_text()


@pytest.mark.parametrize(
    "params", [LearnParams(), LearnParams(1, 2, 0, alpha=0.9), LearnParams(0, 0, 0, alpha=0.5)]
)
def test_learner_trace_accounts_for_every_pair(params):
    corpus, steps = merge_heavy_corpus(), []
    model = learn_pdfa(build_suffix_tree(corpus), params, trace=steps.append)
    assert learn_pdfa(build_suffix_tree(corpus), params).to_text() == model.to_text()
    reds = pairs = 0  # non-root reds: one per promotion so far
    for step in steps:
        # every pair has a bound, reused or fresh, and is scored in full or not
        assert step["reused"] + step["bounds"] == step["evaluated"] + step["pruned"] == step["fringe"] * reds
        assert step["evaluated"] <= step["calls"]
        pairs += step["fringe"] * reds
        assert ("merge" in step) != ("promote" in step)
        if "promote" in step:
            reds += 1
        else:
            red, blue, score = step["merge"]
            assert isinstance(score, float) and red != blue
    assert 1 + reds == len(model) - len(model.sink_ids())
    assert sum(step["bounds"] for step in steps) > 0
    if params != LearnParams():  # low thresholds: most states outlive a round unchanged
        assert sum(step["reused"] for step in steps) > 0
    if params == LearnParams():
        assert sum(step["pruned"] for step in steps) > 0
    if params == LearnParams(0, 0, 0, alpha=0.5):
        assert sum(step["calls"] for step in steps) < pairs


low_thresholds = st.one_of(
    st.sampled_from([LearnParams(1, 1, 1, 0.2), LearnParams(0, 0, 0, 0.5)]),
    st.builds(
        LearnParams,
        symbol_count=st.integers(min_value=0, max_value=2),
        state_count=st.integers(min_value=0, max_value=2),
        sink_count=st.integers(min_value=0, max_value=2),
        alpha=st.sampled_from([0.2, 0.5, 0.9]),
    ),
)


# Many corpora drawn from few distinct sequences: equal count ratios, where a
# score term that is zero in exact arithmetic rounds slightly positive and a
# pruned pair would tie the best, are common there.
@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(oracle_symbols, min_size=1, max_size=4), st.integers(1, 6)),
        min_size=1,
        max_size=10,
    ),
    low_thresholds,
)
def test_pruned_learner_matches_str_keyed_oracle_at_low_thresholds(draws, params):
    corpus = [seq for seq, copies in draws for _ in range(copies)]
    learned = learn_pdfa(build_suffix_tree(corpus), params)
    assert learned.to_text() == oracle_learn_pdfa(build_suffix_tree(corpus), params).to_text()


def test_pair_within_margin_of_the_best_is_never_pruned():
    # after the seventh merge, a score term of pair (3, 54) rounds up by
    # 3.6e-15, so its partial score dips below its final score
    merger = _Merger(build_suffix_tree(merge_heavy_corpus(13, 120)), LearnParams(2, 3, 2, 0.2))
    merges = 0

    class Stop(Exception):
        pass

    def stop_after_seventh_merge(step):
        nonlocal merges
        merges += "merge" in step
        if merges == 7:
            raise Stop

    with pytest.raises(Stop):
        merger.run(stop_after_seventh_merge)
    score = merger._evaluate(3, 54, -math.inf)
    assert -math.inf < score < 0
    # pruned below a floor that equals its score: a tie needs the margin
    assert merger._evaluate(3, 54, score) is None
    assert merger._evaluate(3, 54, score - merger.margin) == score


def top_pair_gain(merger: _Merger, red: int, blue: int) -> float:
    """The pooling gain of the tested counts of the (red, blue) state pair
    alone, summed as the str-keyed oracle sums it."""
    counts = [
        {END: merger.final[q], **{sym: c for sym, (_, c) in merger.trans[q].items()}}
        for q in (red, blue)
    ]
    n1, n2 = merger.total[red], merger.total[blue]
    gain = 0.0
    for sym in sorted(counts[0].keys() | counts[1].keys()):
        c1, c2 = counts[0].get(sym, 0), counts[1].get(sym, 0)
        if max(c1, c2) >= merger.p.symbol_count:
            gain += _pool_gain(c1, n1, c2, n2)
    return gain


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 99), st.integers(10, 120), low_thresholds)
def test_bound_of_every_pair_covers_its_score(seed, n, params):
    # At the start of every round, the bound of each (red, blue) pair is at
    # least its full score less the margin, and -inf only where that score
    # is -inf; a finite bound is the gain of the pair's own tested counts.
    merger = _Merger(build_suffix_tree(merge_heavy_corpus(seed, n)), params)
    margin = merger.margin

    def check(step):
        blues = sorted(merger._blue_fringe())
        for red in sorted(merger.red - {merger.root}):
            for blue, bound in zip(blues, merger._bounds(red, blues)):
                score = merger._evaluate(red, blue, -math.inf)
                assert bound >= score - margin
                assert bound > -math.inf or score == -math.inf
                assert bound == -math.inf or abs(bound - top_pair_gain(merger, red, blue)) <= margin

    merger.run(check)


def sorted_blue_fringe(merger: _Merger) -> dict[int, tuple[int, int]]:
    """Oracle: the fringe by a sorted scan, each red in id order and each of
    its rows in symbol order, where the first row into a state wins."""
    fringe: dict[int, tuple[int, int]] = {}
    for r in sorted(merger.red):
        trans = merger.trans[r]
        for sym in sorted(trans):
            tgt = trans[sym][0]
            if tgt in merger.red or tgt in fringe:
                continue
            if merger.total[tgt] < merger.p.sink_count:
                continue
            fringe[tgt] = (r, sym)
    return fringe


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 99), st.integers(10, 120), low_thresholds)
def test_blue_fringe_needs_no_order(seed, n, params):
    # Before every round, each state outside the red core that a red row
    # reaches is reached by that one row, no state outside the core has a
    # row into a red, and so the unsorted fringe equals the sorted scan.
    merger = _Merger(build_suffix_tree(merge_heavy_corpus(seed, n)), params)

    def check(step):
        red = merger.red
        rows_into = Counter(tgt for r in red for tgt, _ in merger.trans[r].values() if tgt not in red)
        assert set(rows_into.values()) <= {1}
        assert not any(
            tgt in red
            for q, trans in enumerate(merger.trans)
            if q not in red
            for tgt, _ in trans.values()
        )
        assert merger._blue_fringe() == sorted_blue_fringe(merger)

    check(None)
    merger.run(check)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 99), st.integers(10, 120), low_thresholds)
def test_kept_tables_match_the_counts(seed, n, params):
    # After every round, each count table the merger keeps equals one built
    # anew from the state's rows, total and ending count: a merge drops the
    # table of every state whose counts it changes, and the blue's parent,
    # whose row it redirects, keeps its table, as its counts stay.
    merger = _Merger(build_suffix_tree(merge_heavy_corpus(seed, n)), params)

    def check(step):
        for q, table in enumerate(merger.tables):
            if table is not None:
                merger.tables[q] = None
                assert merger._table(q) == table
                merger.tables[q] = table

    merger.run(check)
