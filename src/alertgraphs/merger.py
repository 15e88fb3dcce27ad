"""Red-blue state merging: the search ``automaton.learn_pdfa`` runs.

``_Merger`` folds a suffix trie's counts, in place, into a compact
deterministic automaton. It bounds each (red, blue) pair from the two
states' own counts, keeps that bound while neither state changes, and
scores a pair only while it can still win; its docstring argues why this
leaves every merge, and so every learned automaton, as scoring each pair in
full would.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .automaton import LearnParams, SuffixPdfa

END = -1  # symbol id of the ending in the count tables
# a state's count table: rows, frequent symbols, their summed count
_Table = tuple[dict[int, tuple], set[int], int]


class _Merger:
    """Red-blue state-merging search that folds the trie's own counts.

    Red states form the consolidated automaton core; blue states are the
    non-sink children of red states. Each round either performs the highest
    scoring compatible (red, blue) merge or, when none passes, promotes the
    lowest-id blue to red. Sinks never merge or get promoted but stay in the
    final automaton. The root is kept out of merge candidacy so the
    empty-suffix context (sequence endings) survives as a distinct state.

    The merger works on the trie's symbol ids: each id is the symbol's
    position in ``str`` order, so plain int order is ``str`` order, not
    tuple or rendered order. Only these orders decide the automaton: the
    pair sort by ``(-bound, red, blue)``, the least ``(-score, red, blue)``
    and ``min(fringe)`` pick a round's step; ``_evaluate``'s
    ``sorted(freq1.union(rows2))`` fixes each score's float summation order,
    which decides ties; ``_merge``'s ``sorted(strans)`` picks which folded
    state keeps its id where a red has two rows into one red; and
    ``learn_pdfa``'s breadth-first walk fixes the state ids. A fold empties
    each state it moves rows out of and a merge points the blue's row at a
    red, so the states outside the red core stay trees hanging off the reds:
    none has a row into a red, each blue has one ``(parent, via)`` row, and
    the fringe is the same map in any visiting order.

    ``_evaluate`` visits only the red-side state's frequent symbols (count at
    least ``symbol_count``) plus all of the blue-side state's symbols. A
    red-only symbol below the threshold is never tested, adds nothing to the
    score and has no child pair to recurse into, so skipping it leaves every
    score bit-identical: the terms that are added keep their order. The
    ending is the row of symbol id ``END``, which sorts first.

    Each state's count table is built the first time the state is read:
    ``{symbol id: (c, c/n, c*log2(c/n))}``, the set of its frequent symbols
    and their summed count; where a row leads is read from ``trans``.
    ``_merge`` drops the table of every state whose counts it changes. Each
    score term runs the IEEE operations of the expressions it stands for,
    ``abs(c1/n1 - c2/n2)`` and ``c*log2(c/n) - (b1 + b2)``, where
    ``b = c*log2(c/n_side)`` or 0.0 for an absent symbol. A symbol of the red-side state only tests
    ``r1 >= bound`` and adds ``c1*log2(c1/n) - b1``; one of the blue-side
    state only tests ``r2 >= bound`` and adds ``c2*log2(c2/n) - b2``. These
    are exact: ``r - 0.0 == r``, ``abs(0.0 - r) == r`` and
    ``b + 0.0 == 0.0 + b == b``, as ``b`` is never ``-0.0`` (every count is
    at least 1). An ending counted in neither state adds 0.0 and is left out.

    Pruning is exact. By the log-sum inequality no term of a score is
    positive in exact arithmetic. With ``u = 2**-53``, pooled count ``c`` and
    ``n = n1 + n2``, a computed term exceeds its exact value by at most
    ``16*u*c*(1 + log2(n))``: each ``c*log2(c/n)`` takes a correctly rounded
    division, a ``log2`` within two ulps and a rounded product, and the term
    one rounded sum and difference. Adding a term raises the running score
    by at most twice its excess, and a term that is not positive never
    raises it. The tested counts of a state pair sum to at most ``n``, and
    ``n`` to at most ``W``, the trie's summed totals, as merges only move
    counts. An evaluation visits fewer than ``len(trie)`` state pairs, as
    the states outside the red core form trees. So the terms still to come
    raise a partial score by at most ``2**-48 * len(trie) * W * (1 +
    log2(W))``, a quarter of ``margin`` or less; the rest of ``margin``
    covers rounding the floor, the round's best score minus ``margin``. A
    pair whose partial score falls below the floor cannot reach the best,
    and a pair that ties the best never falls below it.

    Each (red, blue) pair gets a bound from its top state pair alone
    (``_bounds``): the terms of the tested symbols the blue carries, computed
    as ``_evaluate`` computes them, plus those of the red's frequent symbols
    the blue lacks, which sum, exactly, to ``-M * log2(n/n1)`` with ``M``
    their summed count. A Hoeffding test that fails there fails in
    ``_evaluate`` too, so the bound is -inf. Else it is within half of
    ``margin`` of the partial score after the top pair, which adds the same
    terms, and the red-only ones one by one, in another order. Each of the
    two is within ``16*u*n*(1 + log2(n))`` of the exact sum by the rounding
    of its terms (the closed form's is that of a term of count ``M``), and
    within ``u*(len(trie) + 1)*3*n*log2(n)`` by its summation: it adds fewer
    than ``len(trie) + 2`` values, whose sizes add up to at most
    ``3*n*log2(n)``, as each of a term's three ``c*log2(c/n)`` is at most
    ``c*log2(n)`` in size. With the quarter above, a pair whose bound is
    below the floor cannot reach the best. A bound is reused while
    ``tables[red]`` and ``tables[blue]`` are the objects it was computed
    from, as it reads only those two states' counts. Pairs go best bound
    first, so the floor rises early, and a pair is scored in full only while
    its bound reaches it.
    """

    def __init__(self, tree: SuffixPdfa, params: LearnParams):
        self.p = params
        self.total, self.final, self.trans = tree.total, tree.final, tree.trans
        self.tables: list[_Table | None] = [None] * len(tree)
        self.root = tree.root
        self.red: set[int] = {self.root}
        self.threshold = math.sqrt(0.5 * math.log(2.0 / params.alpha))
        # four times the rounding bound in the docstring, or more, as
        # 2 * bit_length(W) >= 1 + log2(W)
        weight = sum(tree.total)
        self.margin = len(tree) * weight * weight.bit_length() * 2**-45

    def _blue_fringe(self) -> dict[int, tuple[int, int]]:
        """Each blue state and its one ``(parent, via)`` row; sinks are left out."""
        red, total, sink_count = self.red, self.total, self.p.sink_count
        return {
            tgt: (r, sym)
            for r in red
            for sym, (tgt, _) in self.trans[r].items()
            if tgt not in red and total[tgt] >= sink_count
        }

    def _table(self, q: int) -> _Table:
        n, log2 = self.total[q], math.log2
        rows = {
            s: (c, c / n, c * log2(c / n))
            for s, (_, c) in [*self.trans[q].items(), (END, (None, self.final[q]))]
            if c
        }
        frequent = {s for s, row in rows.items() if row[0] >= self.p.symbol_count}
        table = self.tables[q] = (rows, frequent, sum([rows[s][0] for s in frequent]))
        return table

    def _evaluate(self, red_id: int, blue_id: int, floor: float) -> float | None:
        """Merge score when the pair passes the Hoeffding test, else -inf;
        None once the running score falls below ``floor``.

        The test covers every symbol (and the ending) frequent enough in
        either state and recurses into child pairs that both carry at least
        ``state_count`` occurrences. The score is the summed log-likelihood
        gain of pooling the tested counts versus keeping them separate.
        """
        total, trans, tables = self.total, self.trans, self.tables
        symbol_count, state_count = self.p.symbol_count, self.p.state_count
        log2, sqrt, threshold = math.log2, math.sqrt, self.threshold
        score = 0.0
        stack = [(red_id, blue_id)]
        while stack:
            q1, q2 = stack.pop()
            n1, n2 = total[q1], total[q2]
            n = n1 + n2
            bound = threshold * (1.0 / sqrt(n1) + 1.0 / sqrt(n2))
            rows1, freq1, _ = tables[q1] or self._table(q1)
            rows2 = (tables[q2] or self._table(q2))[0]
            for sym in sorted(freq1.union(rows2)):
                e1, e2 = rows1.get(sym), rows2.get(sym)
                if e2 is None:  # frequent in the red-side state, absent from the other
                    c, diff, b = e1
                elif e1 is None:
                    c, diff, b = e2
                    if c < symbol_count:
                        continue
                else:
                    c1, r1, b1 = e1
                    c2, r2, b2 = e2
                    if sym != END:  # the ending leads nowhere
                        ch1, ch2 = trans[q1][sym][0], trans[q2][sym][0]
                        if ch1 != ch2 and total[ch1] >= state_count and total[ch2] >= state_count:
                            stack.append((ch1, ch2))
                    if c1 < symbol_count and c2 < symbol_count:
                        continue
                    c, diff, b = c1 + c2, abs(r1 - r2), b1 + b2
                if diff >= bound:
                    return -math.inf
                score += c * log2(c / n) - b
                if score < floor:
                    return None
        return score

    def _merge(self, red_id: int, blue_id: int, parent: int, via: int) -> None:
        """Fold ``blue_id``'s subtree into ``red_id``, determinizing as we go.

        Every state whose counts change loses its table. ``parent``'s row
        ``via`` now leads to ``red_id``, but its counts, its table and the
        bounds made from it stand. The trie's lists and dicts are written in place.
        """
        total, final, trans, tables = self.total, self.final, self.trans, self.tables
        trans[parent][via] = (red_id, trans[parent][via][1])
        stack = [(red_id, blue_id)]
        while stack:
            target, source = stack.pop()
            total[target] += total[source]
            final[target] += final[source]
            tables[target] = tables[source] = None
            ttrans, strans = trans[target], trans[source]
            for sym in sorted(strans):
                s_tgt, s_cnt = strans[sym]
                entry = ttrans.get(sym)
                if entry is None:
                    ttrans[sym] = (s_tgt, s_cnt)
                else:
                    ttrans[sym] = (entry[0], entry[1] + s_cnt)
                    if entry[0] != s_tgt:
                        stack.append((entry[0], s_tgt))
            trans[source] = {}  # unreachable from now on

    def _bounds(self, red_id: int, blue_ids: list[int]) -> list[float]:
        """For each blue, a bound on the (red, blue) pair's score from the
        counts of the two states alone, or -inf when the Hoeffding test of a
        symbol the blue carries fails there; see the class docstring."""
        total, tables, log2, sqrt = self.total, self.tables, math.log2, math.sqrt
        rows1, freq1, mass1 = tables[red_id] or self._table(red_id)
        n1 = total[red_id]
        spread1 = 1.0 / sqrt(n1)  # the red's part of each Hoeffding bound
        bounds = []
        for blue in blue_ids:
            n = n1 + total[blue]
            limit = self.threshold * (spread1 + 1.0 / sqrt(total[blue]))
            rows2, freq2, _ = tables[blue] or self._table(blue)
            score, mass = 0.0, mass1  # mass: of the red's frequent symbols the blue lacks
            for sym in freq1.intersection(rows2):
                c1, r1, b1 = rows1[sym]
                c2, r2, b2 = rows2[sym]
                mass, c = mass - c1, c1 + c2
                score += c * log2(c / n) - (b1 + b2) if abs(r1 - r2) < limit else -math.inf
            for sym in freq2.difference(freq1):  # tested: frequent in the blue
                c, diff, b = rows2[sym]
                if sym in rows1:
                    c1, r1, b1 = rows1[sym]
                    c, diff, b = c1 + c, abs(r1 - diff), b1 + b
                score += c * log2(c / n) - b if diff < limit else -math.inf
            bounds.append(score - mass * log2(n / n1))
        return bounds

    def run(self, trace: Callable[[dict], None] | None) -> None:
        tables = self.tables
        bounds: dict[tuple[int, int], tuple] = {}  # (red, blue): (red's table, blue's table, bound)
        while True:
            fringe = self._blue_fringe()
            if not fringe:
                return
            last, bounds, fresh = bounds, {}, 0
            for red in self.red - {self.root}:
                stale = []
                for blue in fringe:
                    entry = last.get((red, blue))
                    if entry and entry[0] is tables[red] and entry[1] is tables[blue]:
                        bounds[red, blue] = entry
                    else:
                        stale.append(blue)
                for blue, bound in zip(stale, self._bounds(red, stale)):
                    bounds[red, blue] = (tables[red], tables[blue], bound)
                fresh += len(stale)
            best, floor, calls, done = (math.inf,), -math.inf, 0, 0
            for key, red, blue in sorted((-entry[2], *pair) for pair, entry in bounds.items()):
                # a bound at -inf failed a Hoeffding test; later bounds are no
                # higher, and only a score moves the floor
                if not -math.inf < -key >= floor:
                    break
                score = self._evaluate(red, blue, floor)
                calls += 1
                if score is not None:
                    done += 1
                    if (-score, red, blue) < best:
                        best, floor = (-score, red, blue), score - self.margin
            if best[0] == math.inf:
                blue = min(fringe)
                self.red.add(blue)
                step = {"promote": blue}
            else:
                key, red, blue = best
                step = {"merge": (red, blue, -key)}
                parent, via = fringe[blue]
                self._merge(red, blue, parent, via)
            if trace is not None:
                trace({"fringe": len(fringe), "evaluated": done, "reused": len(bounds) - fresh,
                       "pruned": len(bounds) - done, "bounds": fresh, "calls": calls, **step})
