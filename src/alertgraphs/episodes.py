"""Aggregate filtered alerts into attack episodes and order them into
per-(attacker, victim) sequences and attack-attempt sub-sequences.

An episode is a burst of same-stage alerts: alerts of one attack stage whose
consecutive gaps stay within the window ``w``. Sequences are cut into
sub-sequences wherever a low-severity episode directly follows a
high-severity one, marking the start of a new attack attempt.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime
from itertools import islice
from operator import gt, itemgetter, sub
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .alerts import Alert
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


class Escaped(dict):
    """``escaped[value]`` is ``render(value)`` with ``table``'s escapes, worked
    out once per distinct value: addresses and services repeat on many rows.
    A leading ``#`` is written ``\\#``, so no field starts a comment line."""

    def __init__(self, render: Callable[[Any], str] = str, table: dict = TSV_ESCAPES):
        super().__init__()
        self.render = render
        self.table = table

    def __missing__(self, value) -> str:
        text = self.render(value).translate(self.table)
        text = self[value] = "\\" + text if text.startswith("#") else text
        return text


def unescape_field(field: str) -> str:
    """Inverse of ``Escaped`` with any of the escape tables above."""
    return _ESCAPED.sub(lambda m: _UNESCAPES[m[1]], field)


@dataclass(frozen=True, slots=True)
class Episode:
    st: datetime
    et: datetime
    stage: AttackStage
    service: str
    alert_count: int
    attacker: str
    victim: str

    @property
    def severity(self) -> Severity:
        return self.stage.severity

    @property
    def symbol(self) -> Symbol:
        return Symbol(self.stage, self.service)


@dataclass
class EpisodeSequence:
    attacker: str
    victim: str
    episodes: list[Episode]


@dataclass
class EpisodeSubSequence:
    parent: Pair
    index: int
    episodes: list[Episode]


def _episode_order(episode: Episode):
    return (episode.st, episode.severity, episode.service, episode.stage.value)


def _mode_service(services: Iterable[str]) -> str:
    # ties broken by lexicographically smallest service
    counts = Counter(services)
    return min(counts, key=lambda s: (-counts[s], s))


_TIMESTAMP, _PAIR, _SERVICE = itemgetter(0), itemgetter(1, 2), itemgetter(4)  # of an Alert


def aggregate_episodes(alerts: list[Alert], w: float = 150.0) -> list[Episode]:
    """Group one (attacker, victim) pair's alerts into episodes.

    Per attack stage independently, alerts are split into maximal runs whose
    consecutive gaps are <= ``w`` seconds. Each run yields one episode with
    st/et the first/last timestamp and the run's most frequent service.
    ``w`` may be ``math.inf`` to force a single episode per stage; NaN is
    rejected, since no gap exceeds it.
    """
    if not w > 0:
        raise ValueError("w must be positive")
    if not alerts:
        return []
    # Columns are read in C where the loop allows: in a Python loop, a named
    # tuple's field costs more to read than a slotted attribute.
    pairs = set(map(_PAIR, alerts))
    if len(pairs) != 1:
        raise ValueError(f"alerts span multiple (attacker, victim) pairs: {sorted(pairs)}")
    attacker, victim = pairs.pop()
    times = list(map(_TIMESTAMP, alerts))
    if any(map(gt, times, islice(times, 1, None))):
        raise ValueError("alerts must be sorted by timestamp ascending")

    by_stage: dict[AttackStage, list[Alert]] = defaultdict(list)
    for alert in alerts:
        by_stage[alert[3]].append(alert)  # by stage

    episodes = []
    for stage, group in by_stage.items():
        times = list(map(_TIMESTAMP, group))
        start = 0  # of the current run
        for end, gap in enumerate(map(sub, islice(times, 1, None), times), 1):
            if gap.total_seconds() > w:
                episodes.append(_make_episode(group[start:end], stage, attacker, victim))
                start = end
        episodes.append(_make_episode(group[start:], stage, attacker, victim))
    episodes.sort(key=_episode_order)
    return episodes


def _make_episode(run: list[Alert], stage: AttackStage, attacker: str, victim: str) -> Episode:
    return Episode(
        st=run[0].timestamp,
        et=run[-1].timestamp,
        stage=stage,
        service=_mode_service(map(_SERVICE, run)),
        alert_count=len(run),
        attacker=attacker,
        victim=victim,
    )


def build_sequences(episodes_by_pair: Mapping[Pair, list[Episode]]) -> list[EpisodeSequence]:
    """One time-sorted episode sequence per (attacker, victim) pair.

    Episodes tie-broken on equal start times by (severity ascending, service,
    stage acronym); pairs without episodes are dropped.
    """
    sequences = []
    for (attacker, victim), episodes in sorted(episodes_by_pair.items()):
        if not episodes:
            continue
        sequences.append(
            EpisodeSequence(
                attacker=attacker,
                victim=victim,
                episodes=sorted(episodes, key=_episode_order),
            )
        )
    return sequences


def partition_subsequences(es: EpisodeSequence) -> list[EpisodeSubSequence]:
    """Cut an episode sequence into attack attempts.

    A cut is placed exactly between episodes i and i+1 when episode i has
    High severity and episode i+1 has Low severity; concatenating the
    resulting slices reproduces the input sequence.
    """
    if not es.episodes:
        raise ValueError("episode sequence is empty")
    slices: list[list[Episode]] = [[es.episodes[0]]]
    for prev, cur in zip(es.episodes, es.episodes[1:]):
        if prev.severity == Severity.HIGH and cur.severity == Severity.LOW:
            slices.append([])
        slices[-1].append(cur)
    return [
        EpisodeSubSequence(parent=(es.attacker, es.victim), index=i, episodes=chunk)
        for i, chunk in enumerate(slices)
    ]


def to_symbols(ess: EpisodeSubSequence) -> list[Symbol]:
    """Project a sub-sequence onto its (stage, service) symbols, order preserved."""
    if not ess.episodes:
        raise ValueError("episode sub-sequence is empty")
    return [ep.symbol for ep in ess.episodes]


def render_episode_dump(sequences: Iterable[EpisodeSequence]) -> str:
    """Tab-separated debug dump, one line per episode, in the order of
    ``sequences`` and of the episodes within each; names are escaped."""
    names = Escaped()
    lines = ["attacker\tvictim\tst\tet\tstage\tservice\talert_count"]
    for es in sequences:
        for ep in es.episodes:
            lines.append(
                "\t".join(
                    [
                        names[ep.attacker],
                        names[ep.victim],
                        ep.st.isoformat(timespec="microseconds"),
                        ep.et.isoformat(timespec="microseconds"),
                        ep.stage.value,
                        names[ep.service],
                        str(ep.alert_count),
                    ]
                )
            )
    return "\n".join(lines) + "\n"
