"""Attack-stage taxonomy: 21 stages, each with a Low/Med/High severity tier."""

import enum


class Severity(enum.IntEnum):
    LOW = 0
    MED = 1
    HIGH = 2


class AttackStage(enum.StrEnum):
    """Attack-stage category of an alert: its acronym (the value) and severity."""

    severity: Severity

    def __new__(cls, acronym: str, severity: Severity):
        member = str.__new__(cls, acronym)
        member._value_ = acronym
        member.severity = severity
        return member

    # Low severity: reconnaissance and discovery
    SURFING = "SURFING", Severity.LOW
    HOST_DISC = "HOST_DISC", Severity.LOW
    SERVICE_DISC = "SERVICE_DISC", Severity.LOW
    VULN_DISC = "VULN_DISC", Severity.LOW
    INFO_DISC = "INFO_DISC", Severity.LOW
    # Medium severity: access, execution and movement
    USER_PRIV_ESC = "USER_PRIV_ESC", Severity.MED
    ROOT_PRIV_ESC = "ROOT_PRIV_ESC", Severity.MED
    BRUTE_FORCE_CREDS = "BRUTE_FORCE_CREDS", Severity.MED
    ACCT_MANIP = "ACCT_MANIP", Severity.MED
    PUBLIC_APP_EXP = "PUBLIC_APP_EXP", Severity.MED
    REMOTE_SERVICE_EXP = "REMOTE_SERVICE_EXP", Severity.MED
    COMMAND_AND_CONTROL = "COMMAND_AND_CONTROL", Severity.MED
    LATERAL_MOVEMENT = "LATERAL_MOVEMENT", Severity.MED
    ARBITRARY_CODE_EXE = "ARBITRARY_CODE_EXE", Severity.MED
    PRIV_ESC = "PRIV_ESC", Severity.MED
    # High severity: end goals
    NETWORK_DOS = "NETWORK_DOS", Severity.HIGH
    RESOURCE_HIJACKING = "RESOURCE_HIJACKING", Severity.HIGH
    DATA_MANIPULATION = "DATA_MANIPULATION", Severity.HIGH
    DATA_EXFILTRATION = "DATA_EXFILTRATION", Severity.HIGH
    DATA_DELIVERY = "DATA_DELIVERY", Severity.HIGH
    DATA_DESTRUCTION = "DATA_DESTRUCTION", Severity.HIGH
