"""Aggregate filtered alerts into attack episodes and order them into
per-(attacker, victim) sequences and attack-attempt sub-sequences.

An episode is a burst of same-stage alerts: alerts of one attack stage whose
consecutive gaps stay within the window ``w``. Sequences are cut into
sub-sequences wherever a low-severity episode directly follows a
high-severity one, marking the start of a new attack attempt.
"""

from __future__ import annotations

import re
from collections import Counter
from datetime import datetime
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .alerts import Alert, _check_sorted, _Memo, _new_record
from .stages import AttackStage, Severity

Pair = tuple[str, str]  # (attacker, victim)


class Symbol(NamedTuple):
    """Automaton alphabet element: attack stage plus targeted service."""

    stage: AttackStage
    service: str


def render_symbol(symbol: Symbol) -> str:
    return f"{symbol.stage.value}|{symbol.service}"


def parse_symbol(text: str) -> Symbol:
    acronym, _, service = text.partition("|")
    return Symbol(AttackStage(acronym), service)


# Backslash, tab, LF and CR in a name are written as two-character escapes, so
# any address or service keeps its field and its line in a tab-separated file.
TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})
# a space-separated list of symbols escapes the space as well
SYMBOL_ESCAPES = {**TSV_ESCAPES, ord(" "): "\\s"}
# a team name escapes the comma, which joins teams into one column
TEAM_ESCAPES = {**TSV_ESCAPES, ord(","): "\\c"}
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r", "s": " ", "c": ",", "#": "#"}
_ESCAPED = re.compile(r"\\([\\tnrsc#])")


def escaped(render: Callable[[Any], str] = str, table: dict = TSV_ESCAPES) -> _Memo:
    """A memo whose ``[value]`` is ``render(value)`` with ``table``'s escapes,
    worked out once per distinct value: addresses and services repeat on many
    rows. A leading ``#`` is written ``\\#``, so no field starts a comment line."""

    def escape(value) -> str:
        text = render(value).translate(table)
        return "\\" + text if text.startswith("#") else text

    return _Memo(escape)


def unescape_field(field: str) -> str:
    """Inverse of ``escaped`` with any of the escape tables above."""
    return _ESCAPED.sub(lambda m: _UNESCAPES[m[1]], field)


class Episode(NamedTuple):
    """One burst of same-stage alerts of one (attacker, victim) pair.

    A named tuple, as an alert record is: built by ``tuple.__new__`` in C,
    indexable, and equal to a plain tuple of its fields.
    """

    st: datetime
    et: datetime
    stage: AttackStage
    service: str
    alert_count: int
    attacker: str
    victim: str


class EpisodeSequence(NamedTuple):
    attacker: str
    victim: str
    episodes: list[Episode]


class EpisodeSubSequence(NamedTuple):
    parent: Pair
    index: int
    episodes: list[Episode]


# the stages at either side of a cut; the cutting loops test membership, as a
# ``stage.severity`` read per episode is slower
_LOW_STAGES = frozenset(stage for stage in AttackStage if stage.severity == Severity.LOW)
_HIGH_STAGES = frozenset(stage for stage in AttackStage if stage.severity == Severity.HIGH)
# one Symbol per (stage, service), shared by every sub-sequence that holds it
_SYMBOLS = _Memo(partial(_new_record, Symbol))

# per stage, what the episode order reads of it: its severity and acronym
_STAGE_ORDER = {stage: (stage.severity, stage.value) for stage in AttackStage}


def _episode_order(episode: Episode):
    """(attacker, victim, start, severity, service, stage acronym): a total
    order, as one stage's episodes of one pair never start at the same instant."""
    severity, acronym = _STAGE_ORDER[episode[2]]
    return (episode[5], episode[6], episode[0], severity, episode[3], acronym)


def _mode_service(services: list[str]) -> str:
    """The most frequent service, ties broken by the lexicographically smallest."""
    first = services[0]
    if services.count(first) == len(services):
        return first
    counts = Counter(services)
    return min(counts, key=lambda s: (-counts[s], s))


_SERVICE = itemgetter(4)  # of an Alert
_STAGE_SERVICE = itemgetter(2, 3)  # of an Episode
_EPISODE_PAIR = itemgetter(5, 6)  # (attacker, victim) of an Episode


def _episode(run: list[Alert]) -> Episode:
    """The episode of one run of an (attacker, victim, stage)'s alerts."""
    st, attacker, victim, stage, _ = run[0]
    service = _mode_service(list(map(_SERVICE, run)))
    return _new_record(Episode, (st, run[-1][0], stage, service, len(run), attacker, victim))


def aggregate_episodes(alerts: list[Alert], w: float) -> list[Episode]:
    """Group time-sorted alerts, of any number of (attacker, victim) pairs,
    into episodes, in order of (attacker, victim, start, severity, service,
    stage acronym).

    Per pair and attack stage, alerts are split into maximal runs whose
    consecutive gaps are <= ``w`` seconds, each gap read by its
    ``total_seconds()``. Each run yields one episode with st/et the
    first/last timestamp and the run's most frequent service. ``w`` may be
    ``math.inf`` to force a single episode per pair and stage; NaN is
    rejected, since no gap exceeds it.
    """
    if not w > 0:
        raise ValueError("w must be positive")
    _check_sorted(alerts)
    open_runs: dict[tuple[str, str, AttackStage], list[Alert]] = {}  # by (attacker, victim, stage)
    runs = []  # in order of their first alert
    for alert in alerts:
        run = open_runs.get(alert[1:4])
        if run is None or (alert[0] - run[-1][0]).total_seconds() > w:
            run = open_runs[alert[1:4]] = [alert]
            runs.append(run)
        else:
            run.append(alert)
    episodes = list(map(_episode, runs))
    del open_runs, runs  # before the sort builds every episode's key
    episodes.sort(key=_episode_order)
    return episodes


def build_sequences(episodes: list[Episode]) -> list[EpisodeSequence]:
    """One episode sequence per (attacker, victim) pair of ``episodes``, in
    the order given, which must hold each pair's episodes together: the
    order ``aggregate_episodes`` returns."""
    return [
        EpisodeSequence(attacker, victim, list(run))
        for (attacker, victim), run in groupby(episodes, _EPISODE_PAIR)
    ]


def partition_subsequences(es: EpisodeSequence) -> list[EpisodeSubSequence]:
    """Cut an episode sequence into attack attempts.

    A cut is placed exactly between episodes i and i+1 when episode i has
    High severity and episode i+1 has Low severity; concatenating the
    resulting slices reproduces the input sequence.
    """
    episodes = es.episodes
    if not episodes:
        raise ValueError("episode sequence is empty")
    n = len(episodes)
    cuts = [
        i for i in range(1, n) if episodes[i - 1][2] in _HIGH_STAGES and episodes[i][2] in _LOW_STAGES
    ]
    bounds = [0, *cuts, n]
    parent = (es.attacker, es.victim)
    return [
        EpisodeSubSequence(parent=parent, index=i, episodes=episodes[start:end])
        for i, (start, end) in enumerate(zip(bounds, bounds[1:]))
    ]


def to_symbols(ess: EpisodeSubSequence) -> list[Symbol]:
    """Project a sub-sequence onto its (stage, service) symbols, order preserved."""
    if not ess.episodes:
        raise ValueError("episode sub-sequence is empty")
    return list(map(_SYMBOLS.__getitem__, map(_STAGE_SERVICE, ess.episodes)))


def render_episode_dump(sequences: Iterable[EpisodeSequence]) -> Iterator[str]:
    """Tab-separated debug dump, one line per episode, in the order of
    ``sequences`` and of the episodes within each; names are escaped.
    Timestamps are written in one form, always with six microsecond digits.
    Yields the dump line by line, each line ending in a newline."""
    names = escaped()
    yield "attacker\tvictim\tst\tet\tstage\tservice\talert_count\n"
    for es in sequences:
        for st, et, stage, service, alert_count, attacker, victim in es.episodes:
            start = st.isoformat(timespec="microseconds")
            # a one-alert episode ends where it starts
            end = start if et is st else et.isoformat(timespec="microseconds")
            yield (
                f"{names[attacker]}\t{names[victim]}\t{start}\t{end}"
                f"\t{stage.value}\t{names[service]}\t{alert_count}\n"
            )
