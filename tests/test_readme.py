"""The README names only what exists: every backticked dendrosim name and
repo path resolves, every ``dendrosim`` command of its command block parses,
and its exit-code table lists the codes the command returns."""

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import dendrosim
from dendrosim import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)
PROSE = FENCE.sub("", README)
SPANS = re.findall(r"`([^`]+)`", PROSE)
MODULES = {info.name for info in pkgutil.iter_modules(dendrosim.__path__)}
FILE_SUFFIXES = ("py", "cfg", "md", "json", "toml")
# files a run writes, not files of the repo
RUN_OUTPUTS = {"resolved.cfg"}


def _dotted_names():
    """Backticked ``module.name`` (or ``dendrosim.module.name``) spans whose
    module is a dendrosim submodule, as written up to the first non-name."""
    names = []
    for span in SPANS:
        match = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if match is None:
            continue
        parts = match.group().split(".")
        if parts[-1] in FILE_SUFFIXES:
            continue  # a file name such as config.py
        if parts[0] == "dendrosim" or parts[0] in MODULES:
            names.append(match.group())
    return sorted(set(names))


def _repo_paths():
    """Backticked spans without whitespace that name a repo file, with an
    optional ``::`` pytest node id."""
    return sorted({span for span in SPANS
                   if re.fullmatch(rf"[\w.\-/*]+\.({'|'.join(FILE_SUFFIXES)})(::[\w:\[\]\-.]+)?", span)
                   and span not in RUN_OUTPUTS})


def _commands():
    return [line for lang, body in FENCE.findall(README) if lang == "bash"
            for line in body.splitlines() if line.startswith("dendrosim ")]


def _resolve(name: str):
    parts = name.split(".")
    if parts[0] == "dendrosim":
        parts = parts[1:]
    obj = importlib.import_module(f"dendrosim.{parts[0]}")
    for part in parts[1:]:
        obj = getattr(obj, part)
    return obj


def _node_exists(path: Path, node: str) -> bool:
    """Whether the test file defines the class/function chain of a pytest
    node id (``Class::test[param]``)."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for part in re.sub(r"\[.*\]$", "", node).split("::"):
        found = [n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                 and n.name == part]
        if not found:
            return False
        body = found[0].body
    return True


def test_spans_are_found():
    # a pattern that matches nothing would pass every check below
    assert len(_dotted_names()) >= 10 and len(_repo_paths()) >= 5 and len(_commands()) >= 4


@pytest.mark.parametrize("name", _dotted_names())
def test_dotted_name_resolves(name):
    _resolve(name)


@pytest.mark.parametrize("span", _repo_paths())
def test_repo_path_resolves(span):
    path, _, node = span.partition("::")
    matches = sorted(ROOT.glob(path))
    assert matches, f"{path} names no file of the repo"
    if node:
        assert _node_exists(matches[0], node), f"{span} names no test"


@pytest.mark.parametrize("line", _commands())
def test_command_parses(line):
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert (ROOT / args.config).is_file()


def test_exit_code_table_lists_every_code():
    section = README.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    documented = {int(code) for code in re.findall(r"^\| `(\d+)` +\|", section, re.MULTILINE)}
    declared = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert documented == declared
