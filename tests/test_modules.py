"""Limits on the source itself."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import tokenize
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "alertgraphs"

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


def public_definitions(tree: ast.Module):
    """The public functions and classes of a module and the public methods of
    its classes, each as ``(qualified name, name)``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_definition_is_named_outside_the_tests():
    # in src/, only names and attributes in the code count, not docstrings;
    # in scripts/ and bench/, a word match is enough
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    outside = "\n".join(
        path.read_text(encoding="utf-8")
        for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    )
    unnamed = [
        f"{module}: {qualified}"
        for module, tree in sorted(trees.items())
        for qualified, name in public_definitions(tree)
        if not name.startswith("_")
        and name not in named
        and not re.search(rf"\b{re.escape(name)}\b", outside)
    ]
    assert unnamed == []


def parameter_defaults(node: ast.AST, prefix: str):
    """``module.qualified.name.parameter`` of each parameter under ``node``
    that has a default, in functions, methods, nested functions and lambdas,
    and ``module.Class.field`` of each field with a value in a ``NamedTuple``
    class body."""
    if isinstance(node, ast.ClassDef) and any(ast.unparse(base) == "NamedTuple" for base in node.bases):
        yield from (
            f"{prefix}.{item.target.id}"
            for item in node.body
            if isinstance(item, ast.AnnAssign) and item.value is not None
        )
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            args = child.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{name}.{arg.arg}" for arg in with_default)
            yield from parameter_defaults(child, name)
        elif isinstance(child, ast.ClassDef):
            yield from parameter_defaults(child, f"{prefix}.{child.name}")
        else:
            yield from parameter_defaults(child, prefix)


def test_parameter_defaults_are_the_ones_callers_outside_the_tests_omit():
    # An option that only tests set is a fork no run takes: a new default
    # must be added here, with the callers outside the tests that set and omit it.
    defaults = {
        qualified
        for path in SRC.glob("*.py")
        for qualified in parameter_defaults(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert defaults == {
        # scripts/scale_run.py sets it to count rounds; the pipeline's two
        # learner calls omit it
        "automaton.learn_pdfa.trace",
        # the entry point's test seam: __main__.py and the alertgraphs script
        # omit it, and no caller outside the tests sets it
        "cli.main.argv",
        # the pipeline's symbol column sets render_symbol; every name column
        # (episodes.render_episode_dump, graphs, the pipeline's team names) omits it
        "episodes.escaped.render",
        # graphs and the pipeline set TEAM_ESCAPES for team names, and the
        # pipeline SYMBOL_ESCAPES; episodes.render_episode_dump omits it
        "episodes.escaped.table",
        # PipelineResult starts its stats as ParseStats(), omitting all three
        "alerts.ParseStats.total",
        "alerts.ParseStats.parsed",
        "alerts.ParseStats.skipped",
        # PipelineConfig's learn default, LearnParams(), omits all four, and
        # cli.build_parser reads each as its flag's default
        "automaton.LearnParams.symbol_count",
        "automaton.LearnParams.state_count",
        "automaton.LearnParams.sink_count",
        "automaton.LearnParams.alpha",
        # bench/child.py and scripts/scale_run.py set format and omit the rest;
        # cli.build_parser reads format, t, w, split and seed as its flags'
        # defaults, sets learn, and passes None where --sig-map, --port-map or
        # --stop-after is not given
        "pipeline.PipelineConfig.format",
        "pipeline.PipelineConfig.sig_map",
        "pipeline.PipelineConfig.port_map",
        "pipeline.PipelineConfig.t",
        "pipeline.PipelineConfig.w",
        "pipeline.PipelineConfig.learn",
        "pipeline.PipelineConfig.split",
        "pipeline.PipelineConfig.seed",
        "pipeline.PipelineConfig.stop_after",
    }


def test_import_loads_no_heavy_standard_modules():
    # dataclasses and importlib.resources (from Python 3.12) pull these in,
    # which every run pays for at import; a fresh interpreter shows what the
    # package loads, since pytest has loaded them all already
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, alertgraphs, alertgraphs.cli; print(*sorted(set({heavy}) & set(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert loaded == []


def named_tuples():
    """Each class of the package that has ``_fields``, as ``(module.name, class)``."""
    for path in sorted(SRC.glob("*.py")):
        if path.stem.startswith("__"):
            continue  # __init__ defines nothing, and importing __main__ runs the CLI
        module = importlib.import_module(f"alertgraphs.{path.stem}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and hasattr(obj, "_fields") and obj.__module__ == module.__name__:
                yield f"{path.stem}.{name}", obj


NAMED_TUPLES = dict(named_tuples())


@pytest.mark.parametrize("cls", NAMED_TUPLES.values(), ids=list(NAMED_TUPLES))
def test_signature_shows_the_fields_and_their_defaults(cls):
    # a checking __new__ of (*args, **kwargs) hides them from help() and editors
    parameters = inspect.signature(cls).parameters.values()
    assert [p.name for p in parameters] == list(cls._fields)
    assert {p.name: p.default for p in parameters if p.default is not p.empty} == cls._field_defaults


def test_ci_runs_the_lowest_python_the_package_accepts():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requires = tomllib.load(fh)["project"]["requires-python"]
    floor = re.fullmatch(r">=(\d+)\.(\d+)", requires)
    assert floor, f"requires-python {requires!r} is not >=X.Y"
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    matrix = re.search(r"python-version: \[(.*)\]", workflow)[1]
    versions = [tuple(map(int, v.split("."))) for v in re.findall(r'"(\d+\.\d+)"', matrix)]
    assert min(versions) == tuple(map(int, floor.groups()))


if __name__ == "__main__":
    # the count the test checks, one module a line: python tests/test_modules.py
    for path in sorted(SRC.glob("*.py")):
        print(f"{parser_tokens(path):7d} parser tokens  {path.name}")
