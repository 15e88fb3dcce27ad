"""Suffix-oriented probabilistic automaton learned from episode sub-sequences.

Sequences are reversed before anything else happens, so the model predicts
the past: states summarize which futures (attack endings) a context leads
to. A frequency trie of the reversed corpus is folded into a compact
deterministic automaton by red-blue state merging under a Hoeffding
compatibility test. Rare states are kept as sinks instead of being
discarded, so infrequent severe behavior stays visible.

One counted-automaton class, ``SuffixPdfa``, holds the trie, the learned
S-PDFA and the first-order Markov baseline (``evaluation.learn_markov_chain``);
the merger folds the trie's own count tables. The Markov chain has
one state per symbol, and a transition it never saw still leads to that
symbol's state: a first-order context is just the last symbol consumed, so
an unseen bigram changes the probability of that step but not the context
of the next one. Its ``fallback`` table says so; it is empty for the trie
and the S-PDFA, whose walks fall off the automaton on a miss.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .alerts import checked
from .episodes import (
    TSV_ESCAPES,
    Episode,
    EpisodeSubSequence,
    Symbol,
    parse_symbol,
    render_symbol,
    unescape_field,
)
from .merger import _Merger
from .stages import Severity

OUT_OF_MODEL = -1  # state id assigned when replay falls off the automaton

SymbolT = Hashable


@checked
class LearnParams(NamedTuple):
    """Thresholds steering the state-merging search.

    ``symbol_count``: minimum frequency for a symbol (or ending) to take part
    in the compatibility test. ``state_count``: minimum occurrence for the
    recursive test to be binding on a child pair. ``sink_count``: occurrence
    below which a state becomes a sink (kept, but never merged or promoted).
    """

    symbol_count: int = 5
    state_count: int = 5
    sink_count: int = 5
    alpha: float = 0.05

    def _check(self):
        if min(self.symbol_count, self.state_count, self.sink_count) < 0:
            raise ValueError("counts must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


class SuffixPdfa:
    """Counted deterministic automaton over reversed sequences.

    States are list indices: ``total[q]`` counts the sequences passing
    state ``q`` and ``final[q]`` those ending there, and ``trans[q]`` maps a
    symbol id to ``(target, count)``. A symbol's id is its position in
    ``str`` order, ``symbols[id]``. A missing transition on symbol id ``s``
    goes to ``fallback[s]`` when present, else off the automaton.
    Probabilities are derived on demand (add-one smoothed over the alphabet
    plus termination); the stored counts stay raw.
    """

    def __init__(
        self,
        symbols: list,
        total: list[int],
        final: list[int],
        trans: list[dict[int, tuple[int, int]]],
        sink: list[bool],
        fallback: dict[int, int],
    ):
        self.symbols = symbols
        self.ids = {sym: i for i, sym in enumerate(symbols)}
        self.alphabet = tuple(sorted(symbols))
        self.root = 0
        self.total = total
        self.final = final
        self.trans = trans
        self.sink = sink
        self.fallback = fallback

    def sink_ids(self) -> frozenset[int]:
        return frozenset(q for q, is_sink in enumerate(self.sink) if is_sink)

    def __len__(self) -> int:
        return len(self.total)

    def log2_probability(self, seq: Sequence[SymbolT]) -> float:
        """log2 of the probability of ``seq`` and then its end; off the
        automaton every step counts as unseen in an unseen context."""
        n_alpha = len(self.alphabet)
        ids, total, trans, fallback = self.ids, self.total, self.trans, self.fallback
        cur = self.root
        lp = 0.0
        for sym in reversed(seq):
            sid = ids.get(sym)
            n, hop = (0, None) if cur == OUT_OF_MODEL else (total[cur], trans[cur].get(sid))
            cur, count = hop or (fallback.get(sid, OUT_OF_MODEL), 0)
            lp += _smoothed_log2(count, n, n_alpha)
        n, count = (0, 0) if cur == OUT_OF_MODEL else (total[cur], self.final[cur])
        return lp + _smoothed_log2(count, n, n_alpha)

    def replay(self, symbols: Sequence[SymbolT]) -> list[int]:
        """State id reached as each symbol is consumed, in original order.

        Traversal runs over the reversed symbol list. A missing transition
        leads to the symbol's fallback state if it has one, else off the
        automaton, to OUT_OF_MODEL, which has no transitions.
        """
        ids, trans, fallback = self.ids, self.trans, self.fallback
        cur = self.root
        reached: list[int] = []
        for sym in reversed(symbols):
            sid = ids.get(sym)
            hop = None if cur == OUT_OF_MODEL else trans[cur].get(sid)
            cur = fallback.get(sid, OUT_OF_MODEL) if hop is None else hop[0]
            reached.append(cur)
        reached.reverse()
        return reached

    def to_text(self) -> str:
        """Lossless text form: one state per line, transitions inline.

        Symbols are rendered with backslash, tab, LF and CR escaped, so any
        service name keeps its line and field. The form holds no
        ``fallback`` table, so a model with one, such as the Markov
        baseline, raises ``ValueError``.
        """
        if self.fallback:
            raise ValueError("a model with a fallback table has no text form")
        names = [render_symbol(sym).translate(TSV_ESCAPES) for sym in self.symbols]
        lines = ["alphabet\t" + "\t".join(names[self.ids[sym]] for sym in self.alphabet)]
        lines.append(f"root\t{self.root}")
        for q, trans in enumerate(self.trans):
            parts = [str(q), str(self.total[q]), str(self.final[q]), str(int(self.sink[q]))]
            for sid in sorted(trans, key=names.__getitem__):
                tgt, cnt = trans[sid]
                parts.append(f"{names[sid]}->{tgt}:{cnt}")
            lines.append("\t".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SuffixPdfa":
        """The model ``text`` holds; the text must be exactly what that
        model's ``to_text`` writes, with every count at least 0, every target
        a state, and each state's ``total`` its ``final`` plus its transition
        counts. Anything else raises ``ValueError``."""
        lines = text.split("\n")
        try:
            alphabet = [parse_symbol(unescape_field(f)) for f in lines[0].split("\t")[1:] if f]
            model = cls(_symbol_table([alphabet]), [], [], [], [], {})
            for line in filter(None, lines[2:]):
                _, total, final, sink, *edges = line.split("\t")
                model.total.append(int(total))
                model.final.append(int(final))
                model.sink.append(sink == "1")
                trans = {}
                for item in edges:
                    name, _, rest = item.rpartition("->")
                    tgt, _, cnt = rest.rpartition(":")
                    trans[model.ids[parse_symbol(unescape_field(name))]] = (int(tgt), int(cnt))
                model.trans.append(trans)
        except (ValueError, KeyError) as exc:
            raise ValueError(f"malformed automaton text: {exc!r}") from None
        for n, (line, back) in enumerate(zip_longest(lines, model.to_text().split("\n")), 1):
            if line != back:
                raise ValueError(f"malformed automaton text: line {n} {line!r} reads back as {back!r}")
        if not model.total:
            raise ValueError("malformed automaton text: no state")
        states = range(len(model))
        for q, trans in enumerate(model.trans):
            counts = [model.final[q], *(cnt for _, cnt in trans.values())]
            if min(counts) < 0 or sum(counts) != model.total[q] or any(
                tgt not in states for tgt, _ in trans.values()
            ):
                raise ValueError(f"malformed automaton text: state {q} has a negative count, "
                                 "a target that is not a state or counts that do not add up")
        return model

    def to_dot(self) -> str:
        """Debug rendering of a model over ``Symbol``s; states colored by their
        highest-severity incoming symbol (High=red, Med=blue, Low=white)."""
        severity = [sym.stage.severity for sym in self.symbols]
        severity_in: dict[int, Severity] = {}
        for trans in self.trans:
            for sid, (tgt, _) in trans.items():
                if tgt not in severity_in or severity[sid] > severity_in[tgt]:
                    severity_in[tgt] = severity[sid]
        fill = {Severity.HIGH: "red", Severity.MED: "blue", Severity.LOW: "white"}
        lines = ["digraph automaton {", "    node [style=filled];"]
        for q in range(len(self)):
            color = fill[severity_in.get(q, Severity.LOW)]
            shape = "doublecircle" if self.final[q] else "circle"
            lines.append(
                f'    {q} [shape={shape}, fillcolor="{color}", '
                f'label="{q}\\n{self.total[q]}/{self.final[q]}"];'
            )
        labels = list(map(render_symbol, self.symbols))
        for q, trans in enumerate(self.trans):
            for sid in sorted(trans):
                tgt, cnt = trans[sid]
                lines.append(f"    {q} -> {tgt} [label={dot_quote(f'{labels[sid]} ({cnt})')}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def dot_quote(*lines: str) -> str:
    """DOT string literal showing ``lines`` one below the other."""
    escaped = (line.replace("\\", "\\\\").replace('"', '\\"') for line in lines)
    return '"' + "\\n".join(escaped) + '"'


def _smoothed_log2(count: int, total: int, alphabet_size: int) -> float:
    return math.log2((count + 1) / (total + alphabet_size + 1))


def _symbol_table(sequences: Iterable[Sequence[SymbolT]]) -> list:
    """Every distinct symbol of ``sequences`` in ``str`` order: the id table."""
    return sorted({sym for seq in sequences for sym in seq}, key=str)


def count_sequences(model: SuffixPdfa, sequences: Iterable[Sequence[SymbolT]]) -> SuffixPdfa:
    """Add every sequence, reversed, to ``model``'s counts and return it.

    A symbol without a transition goes to its fallback state, or to a new
    state when it has none. Every symbol must be in ``model.symbols``.
    """
    ids, total, final, trans, fallback = (
        model.ids, model.total, model.final, model.trans, model.fallback
    )
    for seq in sequences:
        node = model.root
        total[node] += 1
        for sym in reversed(seq):
            sid = ids[sym]
            tgt, cnt = trans[node].get(sid) or (fallback.get(sid), 0)
            if tgt is None:
                tgt = len(total)
                total.append(0)
                final.append(0)
                trans.append({})
                model.sink.append(False)
            trans[node][sid] = (tgt, cnt + 1)
            node = tgt
            total[node] += 1
        final[node] += 1
    return model


def build_suffix_tree(sequences: Iterable[Sequence[SymbolT]]) -> SuffixPdfa:
    """Insert every sequence, reversed, into a fresh frequency trie.

    At every node the occurrence count equals the sum of child counts plus
    the final count.
    """
    sequences = list(sequences)
    trie = SuffixPdfa(_symbol_table(sequences), [0], [0], [{}], [False], {})
    return count_sequences(trie, sequences)


def learn_pdfa(
    tree: SuffixPdfa,
    params: LearnParams,
    trace: Callable[[dict], None] | None = None,
) -> SuffixPdfa:
    """Learn the merged automaton from a suffix trie, which the learner
    takes over: it folds ``tree``'s counts in place and leaves ``tree`` with
    no state, so a later read of it raises ``IndexError``.

    Deterministic by construction: candidate merges are ordered by
    (score descending, red id, blue id) and state ids in the result come
    from a breadth-first renumbering from the root.

    ``trace``, when given, is called once per round with a dict: ``fringe``
    (blue states); ``reused`` and ``bounds`` (pairs whose bound was kept from
    the last round, and pairs given a new one); ``evaluated`` and ``pruned``
    (pairs scored in full, and pairs not: given up below the floor, or left
    unscored as their bound was below it); each of the two sums is fringe
    times non-root reds. Then ``calls`` (pair evaluations run, given up or
    not), and either ``merge: (red, blue, score)`` or ``promote: blue``.
    State ids there are the merger's own, trie ids before the final
    renumbering.
    """
    merger = _Merger(tree, params)
    merger.run(trace)

    order: dict[int, int] = {merger.root: 0}
    queue = [merger.root]
    for node in queue:
        trans = merger.trans[node]
        for sym in sorted(trans):
            tgt = trans[sym][0]
            if tgt not in order:
                order[tgt] = len(order)
                queue.append(tgt)
    total = [merger.total[node] for node in order]
    model = SuffixPdfa(
        tree.symbols,
        total,
        [merger.final[node] for node in order],
        [{sym: (order[t], c) for sym, (t, c) in merger.trans[node].items()} for node in order],
        [q != 0 and n < params.sink_count for q, n in enumerate(total)],
        {},
    )
    for table in (tree.total, tree.final, tree.trans, tree.sink):
        table.clear()
    return model


class AnnotatedSequence(NamedTuple):
    """Episode sequence augmented with the automaton state of each episode."""

    attacker: str
    victim: str
    entries: list[tuple[Episode, int]]


def annotate_sequence(
    attempts: Sequence[tuple[EpisodeSubSequence, Sequence[Symbol]]], model: SuffixPdfa
) -> AnnotatedSequence:
    """Replay every attack attempt of one sequence, each given with its
    symbols (``to_symbols`` of it), and concatenate the results."""
    entries = [
        entry for ess, symbols in attempts for entry in zip(ess.episodes, model.replay(symbols))
    ]
    attacker, victim = attempts[0][0].parent
    return AnnotatedSequence(attacker=attacker, victim=victim, entries=entries)
