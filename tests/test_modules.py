"""Limits on the source itself."""

import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "alertgraphs"

# CPython's parser doubles its token array when a module reaches this many
# tokens. Modules are compiled from source when no bytecode is cached, so a
# module past the step raises the peak memory of every such run.
PARSER_TOKEN_STEP = 4096


def parser_tokens(path: Path) -> int:
    """Tokens of ``path`` as the parser counts them: no comments, no
    non-logical newlines and no encoding marker."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(path, "rb") as fh:
        return sum(1 for token in tokenize.tokenize(fh.readline) if token.type not in skipped)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_stays_under_the_parser_token_step(path):
    assert parser_tokens(path) < PARSER_TOKEN_STEP


if __name__ == "__main__":
    # the count the test checks, one module a line: python tests/test_modules.py
    for path in sorted(SRC.glob("*.py")):
        print(f"{parser_tokens(path):7d} parser tokens  {path.name}")
