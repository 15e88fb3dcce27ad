"""Seeded synthetic alert logs for the benchmark, with their ground truth.

Each workload plants attack attempts by teams (source addresses) against
victims: an attempt is a run of low-severity episodes, then medium ones, and
sometimes one high-severity episode, its objective. Episodes of one pair lie
more than the 150 s aggregation window apart, so every planted episode is
one episode in the pipeline's output and the ground truth below can be
counted from the plan alone. Alert records come from
``scripts/make_fixture.py``'s ``SIGS`` table and ``eve_record``, loaded by
path; the pipeline only ever sees the generated file.

The stage and service of each action are written out here rather than asked
of ``alertgraphs``, so that the correctness gate compares the program against
an independent account of the input.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import random
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

LOW, MED, HIGH = "low", "med", "high"

# action -> (signature, category) for the stages make_fixture.SIGS lacks
EXTRA_SIGS = {
    "ping": ("ICMP PING NMAP host sweep", "Misc activity"),
    "surf": ("HTTP GET request for site root", "Generic Protocol Command Decode"),
    "sqli": ("ET WEB_SERVER SQL Injection attempt in URI", "Web Application Attack"),
    "cnc": ("ET MALWARE CnC Beacon observed", "A Network Trojan was detected"),
    "lateral": ("SMB Remote Execution via psexec service", "Misc Attack"),
    "rootpriv": ("Sudo rule abuse by local user", "Attempted Administrator Privilege Gain"),
    "userpriv": ("Local kernel module loaded by user", "Attempted User Privilege Gain"),
    "exploit": ("Remote Service Exploit against listener", "Misc Attack"),
    "dos": ("SYN Flood against exposed service", "Attempted Denial of Service"),
    "miner": ("Coin Miner stratum login", "Crypto Currency Mining Activity Detected"),
    "deliver": ("EXE Download over cleartext HTTP", "Potentially Bad Traffic"),
    "wipe": ("Wiper activity on file share", "Potentially Bad Traffic"),
}

# action -> (stage acronym, severity tier) under the bundled signature rules;
# the first nine actions are make_fixture.SIGS's own
ACTION_STAGE = {
    "scan": ("SERVICE_DISC", LOW),
    "vuln": ("VULN_DISC", LOW),
    "info": ("INFO_DISC", LOW),
    "ping": ("HOST_DISC", LOW),
    "surf": ("SURFING", LOW),
    "priv": ("PRIV_ESC", MED),
    "exec": ("ARBITRARY_CODE_EXE", MED),
    "brute": ("BRUTE_FORCE_CREDS", MED),
    "acct": ("ACCT_MANIP", MED),
    "sqli": ("PUBLIC_APP_EXP", MED),
    "cnc": ("COMMAND_AND_CONTROL", MED),
    "lateral": ("LATERAL_MOVEMENT", MED),
    "rootpriv": ("ROOT_PRIV_ESC", MED),
    "userpriv": ("USER_PRIV_ESC", MED),
    "exploit": ("REMOTE_SERVICE_EXP", MED),
    "exfil": ("DATA_EXFILTRATION", HIGH),
    "manip": ("DATA_MANIPULATION", HIGH),
    "dos": ("NETWORK_DOS", HIGH),
    "miner": ("RESOURCE_HIJACKING", HIGH),
    "deliver": ("DATA_DELIVERY", HIGH),
    "wipe": ("DATA_DESTRUCTION", HIGH),
}

# port -> IANA service name, as listed in the bundled service registry
PORT_SERVICE = {
    21: "ftp",
    22: "ssh",
    25: "smtp",
    80: "http",
    443: "https",
    445: "microsoft-ds",
    3306: "mysql",
    3389: "ms-wbt-server",
    5432: "postgresql",
    5653: "remoteware-cl",
    6379: "redis",
    8080: "http-alt",
}

EPISODE_GAP = (200.0, 900.0)  # seconds between episodes of one pair; > w = 150 s
ALERT_GAP = (2.0, 12.0)  # seconds between alerts of one episode; > t = 1 s
REPEAT_GAP = 0.4  # a sub-second repeat, dropped by the t = 1 s duplicate filter


@dataclass(frozen=True)
class Spec:
    """Shape of one workload; every count is per (team, victim) pair unless noted."""

    format: str  # "eve-json" or "csv"
    teams: int
    victims: int  # shared by all teams, so pairs = teams * victims
    attempts: int
    actions: tuple[str, ...]
    ports: tuple[int, ...]
    low: tuple[int, int]  # low-severity episodes per attempt, inclusive range
    med: tuple[int, int]
    high_share: float  # chance that an attempt ends on an objective
    burst: tuple[int, int]  # alerts per episode, inclusive range
    repeat_every: int  # every n-th alert of an episode is a sub-second repeat; 0 = never
    sig_variants: int  # distinct signature strings per action
    non_alerts: int  # planted records the parser must skip
    corrupt: int


# flood: ingest-bound (long bursts, sub-second repeats, few signatures);
# campaign: learner-bound (160-symbol alphabet, short episodes);
# fanout: bound by per-objective graph extraction (many victims and
# objectives, one service, thousands of signature strings, CSV).
WORKLOADS = {
    "flood": Spec(
        format="eve-json",
        teams=4,
        victims=8,
        attempts=3,
        actions=("scan", "vuln", "info", "ping", "priv", "exec", "brute", "acct",
                 "sqli", "exfil", "manip", "dos"),
        ports=(22, 80, 443, 445, 5653),
        low=(1, 2),
        med=(1, 2),
        high_share=0.6,
        burst=(150, 250),
        repeat_every=3,
        sig_variants=1,
        non_alerts=400,
        corrupt=100,
    ),
    "campaign": Spec(
        format="eve-json",
        teams=12,
        victims=25,
        attempts=5,
        actions=("scan", "vuln", "info", "ping", "surf", "priv", "exec", "brute",
                 "acct", "sqli", "cnc", "lateral", "exfil", "manip", "dos", "wipe"),
        ports=(21, 22, 25, 80, 443, 445, 3306, 3389, 5432, 5653),
        low=(1, 2),
        med=(0, 2),
        high_share=0.5,
        burst=(1, 3),
        repeat_every=0,
        sig_variants=1,
        non_alerts=60,
        corrupt=20,
    ),
    "fanout": Spec(
        format="csv",
        teams=4,
        victims=240,
        attempts=2,
        actions=("scan", "vuln", "info", "ping", "surf", "priv", "exec", "brute",
                 "acct", "sqli", "exfil", "manip", "dos", "miner", "deliver", "wipe"),
        ports=(5653,),
        low=(1, 2),
        med=(0, 1),
        high_share=0.7,
        burst=(1, 2),
        repeat_every=0,
        sig_variants=640,
        non_alerts=0,
        corrupt=60,
    ),
}


def load_fixture_module(root: Path):
    """``scripts/make_fixture.py`` as a module of its own, run from its path."""
    spec = importlib.util.spec_from_file_location(
        "alertgraphs_bench_make_fixture", root / "scripts" / "make_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _signature_table(fixture, spec: Spec) -> dict[str, tuple[str, str]]:
    """``SIGS``-style table with one key per (action, variant)."""
    base = {**fixture.SIGS, **EXTRA_SIGS}
    table = {}
    for action in spec.actions:
        signature, category = base[action]
        for k in range(spec.sig_variants):
            suffix = "" if spec.sig_variants == 1 else f" [sid {2_100_000 + k}]"
            table[f"{action}#{k}"] = (signature + suffix, category)
    return table


def _plan_attempts(rng: random.Random, spec: Spec) -> list[list[tuple[str, int]]]:
    by_tier = {tier: [a for a in spec.actions if ACTION_STAGE[a][1] == tier] for tier in (LOW, MED, HIGH)}
    attempts = []
    for _ in range(spec.attempts):
        steps = [rng.choice(by_tier[LOW]) for _ in range(rng.randint(*spec.low))]
        steps += [rng.choice(by_tier[MED]) for _ in range(rng.randint(*spec.med))]
        if rng.random() < spec.high_share:
            steps.append(rng.choice(by_tier[HIGH]))
        attempts.append([(action, rng.choice(spec.ports)) for action in steps])
    return attempts


def generate(name: str, seed: int, root: Path, spec: Spec | None = None) -> tuple[str, dict]:
    """Render workload ``name`` for ``seed``: (file text, ground truth).

    ``spec`` overrides the named shape (the benchmark's tests use a small one).
    Equal arguments give equal bytes.
    """
    spec = spec or WORKLOADS[name]
    fixture = load_fixture_module(root)
    fixture.SIGS = _signature_table(fixture, spec)
    rng = random.Random(f"{name}:{seed}")

    rows = []  # (seconds from START, team, victim, port, sig key)
    objectives = set()
    episodes = attempts = repeats = 0
    for t in range(spec.teams):
        team = f"10.0.254.{t + 1}"
        for v in range(spec.victims):
            victim = f"10.0.{v // 250}.{v % 250 + 1}"
            clock = rng.uniform(0.0, 3600.0)
            tiers = []
            for attempt in _plan_attempts(rng, spec):
                for action, port in attempt:
                    stage, tier = ACTION_STAGE[action]
                    tiers.append(tier)
                    if tier == HIGH:
                        objectives.add((victim, stage, PORT_SERVICE[port]))
                    for i in range(rng.randint(*spec.burst)):
                        if spec.repeat_every and i % spec.repeat_every == spec.repeat_every - 1:
                            clock += REPEAT_GAP
                            repeats += 1
                        elif i:
                            clock += rng.uniform(*ALERT_GAP)
                        key = f"{action}#{rng.randrange(spec.sig_variants)}"
                        rows.append((round(clock, 2), team, victim, port, key))
                    clock += rng.uniform(*EPISODE_GAP)
            episodes += len(tiers)
            # the pipeline cuts an attempt where a high episode meets a low one
            attempts += (1 if tiers else 0) + sum(
                a == HIGH and b == LOW for a, b in zip(tiers, tiers[1:])
            )
    rows.sort(key=lambda r: r[0])
    signatures = {fixture.SIGS[key][0] for *_, key in rows}

    stamp = lambda seconds: fixture.START + timedelta(seconds=seconds)  # noqa: E731
    if spec.format == "eve-json":
        lines = [fixture.eve_record(stamp(s), team, victim, port, key) for s, team, victim, port, key in rows]
        bad = [
            json.dumps({"timestamp": stamp(i).strftime("%Y-%m-%dT%H:%M:%S.%f+0000"),
                        "event_type": rng.choice(("flow", "stats", "dns")),
                        "src_ip": "10.0.254.1", "dest_ip": "10.0.0.1"}, sort_keys=True)
            for i in range(spec.non_alerts)
        ] + ['{"event_type": "alert", "timestamp": "broken'] * spec.corrupt
        for record in bad:
            lines.insert(rng.randrange(len(lines) + 1), record)
        text = "\n".join(lines) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        out_rows = [
            [stamp(s).strftime("%Y-%m-%dT%H:%M:%S.%f+0000"), team, victim, port, *fixture.SIGS[key]]
            for s, team, victim, port, key in rows
        ]
        for i in range(spec.corrupt):
            broken = list(rng.choice(out_rows))
            broken[3 if i % 2 else 2] = "not-a-port" if i % 2 else ""
            out_rows.insert(rng.randrange(len(out_rows) + 1), broken)
        writer.writerow(["timestamp", "src_ip", "dst_ip", "dst_port", "signature", "category"])
        writer.writerows(out_rows)
        text = buf.getvalue()

    truth = {
        "workload": name,
        "seed": seed,
        "format": spec.format,
        "records": len(rows) + spec.non_alerts + spec.corrupt,
        "alerts": len(rows),
        "skipped": spec.non_alerts + spec.corrupt,
        "kept": len(rows) - repeats,
        "episodes": episodes,
        "attempts": attempts,
        "pairs": spec.teams * spec.victims,
        "distinct_signatures": len(signatures),
        "objectives": sorted(list(o) for o in objectives),
    }
    return text, truth
