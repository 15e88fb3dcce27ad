"""Suffix-oriented probabilistic automaton learned from episode sub-sequences.

Sequences are reversed before anything else happens, so the model predicts
the past: states summarize which futures (attack endings) a context leads
to. A frequency trie of the reversed corpus (``PrefixTree``) is folded into
a compact deterministic automaton (``SuffixPdfa``) by red-blue state merging
under a Hoeffding compatibility test. Rare states are kept as sinks instead
of being discarded, so infrequent severe behavior stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

from .episodes import (
    Episode,
    EpisodeSequence,
    EpisodeSubSequence,
    Symbol,
    parse_symbol,
    partition_subsequences,
    render_symbol,
    to_symbols,
)
from .stages import Severity

OUT_OF_MODEL = -1  # state id assigned when replay falls off the automaton

SymbolT = Hashable


@dataclass(frozen=True)
class LearnParams:
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

    def __post_init__(self):
        if min(self.symbol_count, self.state_count, self.sink_count) < 0:
            raise ValueError("counts must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


class PrefixTree:
    """Frequency trie over the reversed corpus.

    Node counts record how many sequences traverse each node; ``finals``
    count sequences ending exactly there. At every node the occurrence count
    equals the sum of child counts plus the final count.
    """

    def __init__(self):
        self.totals: list[int] = [0]
        self.finals: list[int] = [0]
        self.trans: list[dict[SymbolT, tuple[int, int]]] = [{}]
        self.alphabet: tuple = ()
        self.root = 0

    def _insert(self, reversed_seq: Sequence[SymbolT]) -> None:
        node = self.root
        self.totals[node] += 1
        for sym in reversed_seq:
            hop = self.trans[node].get(sym)
            if hop is None:
                child = len(self.totals)
                self.totals.append(0)
                self.finals.append(0)
                self.trans.append({})
                self.trans[node][sym] = (child, 1)
            else:
                child, count = hop
                self.trans[node][sym] = (child, count + 1)
            node = child
            self.totals[node] += 1
        self.finals[node] += 1

    # uniform state accessors shared with SuffixPdfa
    def occurrence(self, state: int) -> int:
        return self.totals[state]

    def final_count(self, state: int) -> int:
        return self.finals[state]

    def transition(self, state: int, sym: SymbolT):
        return self.trans[state].get(sym)

    def __len__(self) -> int:
        return len(self.totals)

    def log2_probability(self, seq: Sequence[SymbolT], smoothed: bool = True) -> float:
        return _suffix_model_log2(self, seq, smoothed)


def build_suffix_tree(sequences: Iterable[Sequence[SymbolT]]) -> PrefixTree:
    """Insert every sequence, reversed, into a fresh frequency trie."""
    tree = PrefixTree()
    alphabet = set()
    for seq in sequences:
        tree._insert(list(reversed(seq)))
        alphabet.update(seq)
    tree.alphabet = tuple(sorted(alphabet))
    return tree


@dataclass
class PdfaState:
    sid: int
    total: int
    final: int
    is_sink: bool
    trans: dict[SymbolT, tuple[int, int]] = field(default_factory=dict)


class SuffixPdfa:
    """Deterministic automaton over reversed sequences with raw counts.

    Probabilities are derived on demand (add-one smoothed over the alphabet
    plus termination); the stored counts stay raw.
    """

    def __init__(self, states: dict[int, PdfaState], alphabet: tuple, root: int = 0):
        self.states = states
        self.alphabet = alphabet
        self.root = root

    def occurrence(self, state: int) -> int:
        return self.states[state].total

    def final_count(self, state: int) -> int:
        return self.states[state].final

    def transition(self, state: int, sym: SymbolT):
        return self.states[state].trans.get(sym)

    def sink_ids(self) -> frozenset[int]:
        return frozenset(s.sid for s in self.states.values() if s.is_sink)

    def __len__(self) -> int:
        return len(self.states)

    def log2_probability(self, seq: Sequence[SymbolT], smoothed: bool = True) -> float:
        return _suffix_model_log2(self, seq, smoothed)

    def replay(self, symbols: Sequence[SymbolT]) -> list[int]:
        """State id reached as each symbol is consumed, in original order.

        Traversal runs over the reversed symbol list; once a missing
        transition is hit every remaining position gets OUT_OF_MODEL.
        """
        cur = self.root
        reached: list[int] = []
        for sym in reversed(symbols):
            hop = None if cur == OUT_OF_MODEL else self.transition(cur, sym)
            cur = OUT_OF_MODEL if hop is None else hop[0]
            reached.append(cur)
        reached.reverse()
        return reached

    def to_text(self, render: Callable[[SymbolT], str] = render_symbol) -> str:
        """Lossless text form: one state per line, transitions inline."""
        lines = ["alphabet\t" + "\t".join(render(s) for s in self.alphabet)]
        lines.append(f"root\t{self.root}")
        for sid in sorted(self.states):
            st = self.states[sid]
            parts = [str(sid), str(st.total), str(st.final), str(int(st.is_sink))]
            for sym, (tgt, cnt) in sorted(st.trans.items(), key=lambda kv: render(kv[0])):
                parts.append(f"{render(sym)}->{tgt}:{cnt}")
            lines.append("\t".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(
        cls, text: str, parse: Callable[[str], SymbolT] = parse_symbol
    ) -> "SuffixPdfa":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2 or not lines[0].startswith("alphabet\t") and lines[0] != "alphabet":
            raise ValueError("malformed automaton text: missing alphabet line")
        alpha_fields = lines[0].split("\t")[1:]
        alphabet = tuple(sorted(parse(f) for f in alpha_fields if f))
        root = int(lines[1].split("\t")[1])
        states: dict[int, PdfaState] = {}
        for line in lines[2:]:
            fields = line.split("\t")
            sid, total, final, sink = (int(f) for f in fields[:4])
            trans: dict[SymbolT, tuple[int, int]] = {}
            for item in fields[4:]:
                sym_text, _, rest = item.rpartition("->")
                tgt, cnt = rest.rsplit(":", 1)
                trans[parse(sym_text)] = (int(tgt), int(cnt))
            states[sid] = PdfaState(sid=sid, total=total, final=final, is_sink=bool(sink), trans=trans)
        return cls(states=states, alphabet=alphabet, root=root)

    def to_dot(self) -> str:
        """Debug rendering; states colored by their highest-severity incoming
        symbol (High=red, Med=blue, Low=white)."""
        severity_in: dict[int, Severity] = {}
        for st in self.states.values():
            for sym, (tgt, _) in st.trans.items():
                sev = getattr(getattr(sym, "stage", None), "severity", Severity.LOW)
                if tgt not in severity_in or sev > severity_in[tgt]:
                    severity_in[tgt] = sev
        fill = {Severity.HIGH: "red", Severity.MED: "blue", Severity.LOW: "white"}
        lines = ["digraph automaton {", "    node [style=filled];"]
        for sid in sorted(self.states):
            st = self.states[sid]
            color = fill[severity_in.get(sid, Severity.LOW)]
            shape = "doublecircle" if st.final else "circle"
            lines.append(
                f'    {sid} [shape={shape}, fillcolor="{color}", '
                f'label="{sid}\\n{st.total}/{st.final}"];'
            )
        rank = _str_rank(sym for st in self.states.values() for sym in st.trans).__getitem__
        for sid in sorted(self.states):
            trans = self.states[sid].trans
            for sym in sorted(trans, key=rank):
                tgt, cnt = trans[sym]
                text = render_symbol(sym) if isinstance(sym, Symbol) else str(sym)
                lines.append(f"    {sid} -> {tgt} [label={dot_quote(f'{text} ({cnt})')}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def dot_quote(*lines: str) -> str:
    """DOT string literal showing ``lines`` one below the other."""
    escaped = (line.replace("\\", "\\\\").replace('"', '\\"') for line in lines)
    return '"' + "\\n".join(escaped) + '"'


def _smoothed_log2(count: int, total: int, alphabet_size: int, smoothed: bool) -> float:
    if smoothed:
        return math.log2((count + 1) / (total + alphabet_size + 1))
    if count == 0:
        return -math.inf
    return math.log2(count / total)


def _suffix_model_log2(model, seq: Sequence[SymbolT], smoothed: bool) -> float:
    n_alpha = len(model.alphabet)
    cur = model.root
    lp = 0.0
    for sym in reversed(seq):
        hop = None if cur is None else model.transition(cur, sym)
        total = 0 if cur is None else model.occurrence(cur)
        if hop is None:
            lp += _smoothed_log2(0, total, n_alpha, smoothed)
            cur = None
        else:
            lp += _smoothed_log2(hop[1], total, n_alpha, smoothed)
            cur = hop[0]
    total = 0 if cur is None else model.occurrence(cur)
    final = 0 if cur is None else model.final_count(cur)
    return lp + _smoothed_log2(final, total, n_alpha, smoothed)


def _str_rank(symbols: Iterable[SymbolT]) -> dict[SymbolT, int]:
    """Position of each distinct symbol in ``str`` order."""
    return {sym: i for i, sym in enumerate(sorted(set(symbols), key=str))}


class _Merger:
    """Red-blue state-merging search over a mutable copy of the trie.

    Red states form the consolidated automaton core; blue states are the
    non-sink children of red states. Each round either performs the highest
    scoring compatible (red, blue) merge or, when none passes, promotes the
    lowest-id blue to red. Sinks never merge or get promoted but stay in the
    final automaton. The root is kept out of merge candidacy so the
    empty-suffix context (sequence endings) survives as a distinct state.

    The merger works on symbol ids: each id is the symbol's position in
    ``str`` order over the trie's symbols, so plain int order is ``str``
    order, not tuple or rendered order. The visiting order fixes the float
    summation order of merge scores, which decides ties between candidates,
    and the breadth-first state ids of the result.

    ``_evaluate`` visits only the red-side state's frequent symbols (count at
    least ``symbol_count``) plus all of the blue-side state's symbols. A
    red-only symbol below the threshold is never tested, adds nothing to the
    score and has no child pair to recurse into, so skipping it leaves every
    score bit-identical: the terms that are added keep their order. The
    frequent set is cached per state and dropped for every state a merge
    adds counts to.
    """

    def __init__(self, tree: PrefixTree, params: LearnParams):
        self.p = params
        sid = _str_rank(sym for t in tree.trans for sym in t)
        self.symbols = list(sid)  # id -> symbol
        self.total = list(tree.totals)
        self.final = list(tree.finals)
        self.trans = [
            {sid[sym]: [tgt, cnt] for sym, (tgt, cnt) in t.items()} for t in tree.trans
        ]
        self.frequent: list[set[int] | None] = [None] * len(tree)
        self.root = tree.root
        self.red: set[int] = {self.root}
        self.threshold = math.sqrt(0.5 * math.log(2.0 / params.alpha))

    def _blue_fringe(self) -> dict[int, tuple[int, int]]:
        fringe: dict[int, tuple[int, int]] = {}
        for r in sorted(self.red):
            trans = self.trans[r]
            for sym in sorted(trans):
                tgt = trans[sym][0]
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
        total, final, trans, frequent = self.total, self.final, self.trans, self.frequent
        symbol_count, state_count = self.p.symbol_count, self.p.state_count
        log2, sqrt, threshold = math.log2, math.sqrt, self.threshold
        score = 0.0
        stack = [(red_id, blue_id)]
        while stack:
            q1, q2 = stack.pop()
            n1, n2 = total[q1], total[q2]
            bound = threshold * (1.0 / sqrt(n1) + 1.0 / sqrt(n2))
            f1, f2 = final[q1], final[q2]
            if f1 >= symbol_count or f2 >= symbol_count:
                if abs(f1 / n1 - f2 / n2) >= bound:
                    return None
                c, n = f1 + f2, n1 + n2
                score += (c * log2(c / n) if c else 0.0) - (
                    (f1 * log2(f1 / n1) if f1 else 0.0) + (f2 * log2(f2 / n2) if f2 else 0.0)
                )
            t1, t2 = trans[q1], trans[q2]
            freq1 = frequent[q1]
            if freq1 is None:
                freq1 = frequent[q1] = {s for s, e in t1.items() if e[1] >= symbol_count}
            for sym in sorted(freq1.union(t2)):
                e1, e2 = t1.get(sym), t2.get(sym)
                c1 = e1[1] if e1 else 0
                c2 = e2[1] if e2 else 0
                if c1 >= symbol_count or c2 >= symbol_count:
                    if abs(c1 / n1 - c2 / n2) >= bound:
                        return None
                    c, n = c1 + c2, n1 + n2
                    score += (c * log2(c / n) if c else 0.0) - (
                        (c1 * log2(c1 / n1) if c1 else 0.0) + (c2 * log2(c2 / n2) if c2 else 0.0)
                    )
                if e1 and e2:
                    ch1, ch2 = e1[0], e2[0]
                    if ch1 != ch2 and total[ch1] >= state_count and total[ch2] >= state_count:
                        stack.append((ch1, ch2))
        return score

    def _merge(self, red_id: int, blue_id: int, parent: int, via: int) -> None:
        """Fold ``blue_id``'s subtree into ``red_id``, determinizing as we go."""
        total, final, trans, frequent = self.total, self.final, self.trans, self.frequent
        trans[parent][via][0] = red_id
        stack = [(red_id, blue_id)]
        while stack:
            target, source = stack.pop()
            total[target] += total[source]
            final[target] += final[source]
            frequent[target] = None
            ttrans, strans = trans[target], trans[source]
            for sym in sorted(strans):
                s_tgt, s_cnt = strans[sym]
                entry = ttrans.get(sym)
                if entry is None:
                    ttrans[sym] = [s_tgt, s_cnt]
                else:
                    entry[1] += s_cnt
                    if entry[0] != s_tgt:
                        stack.append((entry[0], s_tgt))
            trans[source] = {}  # unreachable from now on

    def run(self) -> None:
        while True:
            fringe = self._blue_fringe()
            if not fringe:
                return
            reds = sorted(self.red - {self.root})
            best = None
            for blue in sorted(fringe):
                for red in reds:
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


def learn_pdfa(tree: PrefixTree, params: LearnParams = LearnParams()) -> SuffixPdfa:
    """Learn the merged automaton from a suffix trie.

    Deterministic by construction: candidate merges are ordered by
    (score descending, red id, blue id) and state ids in the result come
    from a breadth-first renumbering from the root.
    """
    merger = _Merger(tree, params)
    merger.run()

    order: dict[int, int] = {merger.root: 0}
    queue = [merger.root]
    for node in queue:
        trans = merger.trans[node]
        for sym in sorted(trans):
            tgt = trans[sym][0]
            if tgt not in order:
                order[tgt] = len(order)
                queue.append(tgt)

    symbols = merger.symbols
    states: dict[int, PdfaState] = {}
    for node, sid in order.items():
        states[sid] = PdfaState(
            sid=sid,
            total=merger.total[node],
            final=merger.final[node],
            is_sink=sid != 0 and merger.total[node] < params.sink_count,
            trans={
                symbols[sym]: (order[tgt], cnt) for sym, (tgt, cnt) in merger.trans[node].items()
            },
        )
    return SuffixPdfa(states=states, alphabet=tree.alphabet, root=0)


@dataclass
class AnnotatedSequence:
    """Episode sequence augmented with the automaton state of each episode."""

    attacker: str
    victim: str
    entries: list[tuple[Episode, int]]


def replay_episodes(model: SuffixPdfa, ess: EpisodeSubSequence) -> list[tuple[Episode, int]]:
    """Pair each episode of one sub-sequence with its replay state id."""
    sids = model.replay(to_symbols(ess))
    return list(zip(ess.episodes, sids))


def annotate_sequence(es: EpisodeSequence, model: SuffixPdfa) -> AnnotatedSequence:
    """Replay every attack attempt of a sequence and concatenate the results."""
    entries: list[tuple[Episode, int]] = []
    for ess in partition_subsequences(es):
        entries.extend(replay_episodes(model, ess))
    return AnnotatedSequence(attacker=es.attacker, victim=es.victim, entries=entries)
