"""Every pointer the documents make resolves: a ``DESIGN §n.m`` names a
heading DESIGN.md has, a ``tests/…py::name`` or ``benchmarks/…py::name``
names a file and a function or class in it, and every ``python -m repro``
line README shows parses with the CLI's own parser."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

# a citation may wrap onto a comment's next line: "(DESIGN\n    # §5.4)"
DESIGN_CITE = re.compile(r"DESIGN(?:\.md)?`?\s*(?:#\s*)?§\s*(\d+(?:\.\d+)?)")
HEADING = re.compile(r"^#{2,3} (\d+(?:\.\d+)?)\.? ", re.MULTILINE)
FILE_CITE = re.compile(r"(?<![\w/.])((?:tests|benchmarks)/[\w/]+\.py)((?:::\w+)*)")
CODE_BLOCK = re.compile(r"^```[a-z]*\n(.*?)^```", re.MULTILINE | re.DOTALL)

POINTER_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml",
                ".claude/skills/verify/SKILL.md")
# the numbering the code's citations rely on; losing one is a renumbering
DESIGN_NUMBERS = ({str(n) for n in range(1, 8)} | {f"5.{n}" for n in range(1, 6)}
                  | {f"6.{n}" for n in range(1, 8)})


def _read(rel):
    return (ROOT / rel).read_text(encoding="utf-8")


def _citing_files():
    """What may cite DESIGN by section: the code, the tests, the benches,
    CI, and the two documents readers start from."""
    for top in ("src", "tests", "benchmarks", ".github"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in (".py", ".yml", ".yaml", ".md") and path.is_file():
                yield path.relative_to(ROOT).as_posix()
    yield "README.md"
    yield "EXPERIMENTS.md"


def _defined_names(rel):
    tree = ast.parse(_read(rel))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_every_design_citation_names_a_heading():
    design = _read("DESIGN.md")
    sections = set(HEADING.findall(design))
    assert DESIGN_NUMBERS <= sections and "\n## Appendix A." in design
    stale = sorted(
        f"{rel}: DESIGN §{num}"
        for rel in _citing_files()
        for num in DESIGN_CITE.findall(_read(rel))
        if num not in sections
    )
    assert not stale, stale


def test_every_test_and_bench_pointer_resolves():
    cited = 0
    stale = []
    for doc in POINTER_DOCS:
        for path, names in FILE_CITE.findall(_read(doc)):
            cited += 1
            if not (ROOT / path).is_file():
                stale.append(f"{doc}: {path} does not exist")
                continue
            defined = _defined_names(path)
            stale.extend(f"{doc}: {path}::{name} is not defined there"
                         for name in names.split("::")[1:] if name not in defined)
    assert cited, "no pointer found: the pattern no longer matches the documents"
    assert not stale, stale


def _readme_repro_lines():
    lines = []
    for block in CODE_BLOCK.findall(_read("README.md")):
        # a line ending in a backslash continues on the next
        for line in block.replace("\\\n", " ").splitlines():
            if "python -m repro" not in line:
                continue  # the Python blocks are not shell
            words = shlex.split(line, comments=True)
            for i in range(len(words) - 2):
                if words[i:i + 3] == ["python", "-m", "repro"]:
                    lines.append(words[i + 3:])
                    break
    return lines


def test_every_readme_command_line_parses():
    lines = _readme_repro_lines()
    assert lines, "README shows no `python -m repro` line"
    parser = build_parser()
    bad = []
    for argv in lines:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            bad.append(" ".join(argv))
            continue
        if getattr(args, "fn", None) is None:
            bad.append(" ".join(argv))
    assert not bad, bad


@pytest.mark.parametrize("text, found", [
    ("see DESIGN §6.4.", ["6.4"]),
    ("(DESIGN\n    # §5.4)", ["5.4"]),
    ("`DESIGN.md` §6.3 and DESIGN.md §2", ["6.3", "2"]),
])
def test_the_design_citation_pattern(text, found):
    assert DESIGN_CITE.findall(text) == found
