"""The demos print what they printed when their digests were recorded, and
the README examples do what the README says they do."""

from __future__ import annotations

import ast
import hashlib
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from galtour import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

# SHA-256 of each demo's stdout; a change to any printed byte fails here
DEMO_DIGESTS = {
    "01_galois_correspondence.py":
        "122534f88d95dae0e6c9ec58505157af068649ace8ac338e59cb7378da3708ef",
    "02_towers_and_refinements.py":
        "3f389b04f26a140659235479b056344bd34bf185ed1fb03947094e2d97150042",
    "03_dissociation.py":
        "761ece49acc5ca428492476cf6ce1f340ad2cf97be9594166e55e1c3bb0cf65a",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_matches_recorded_digest(name):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         capture_output=True, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_DIGESTS[name]


def readme_block(heading: str, fence: str) -> list:
    """Lines of the first ``fence`` code block under ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    block = section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


def readme_commands() -> list:
    """(argv, comment lines after it) for each ``galtour`` line."""
    logical = "\n".join(readme_block("Command line", "sh")).replace("\\\n", " ")
    out = []
    for line in logical.splitlines():
        if line.startswith("galtour "):
            out.append((shlex.split(line, comments=True)[1:], []))
        elif line.startswith("#") and out:
            out[-1][1].append(line.lstrip("#").strip())
    return out


def test_readme_commands_exit_0(tmp_path, capsys):
    commands = readme_commands()
    assert len(commands) == 9
    for argv, comments in commands:
        if "--dot" in argv:
            i = argv.index("--dot") + 1
            argv[i] = str(tmp_path / argv[i])
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if comments:
            promised = " ".join(comments)
            assert promised in out.splitlines(), (argv, promised)
    assert (tmp_path / "lattice.dot").read_text().startswith("digraph")


def test_readme_library_tour_values():
    # run the tour line by line; a comment that parses as a Python literal
    # (on the line of an expression, or on the line after it) is its value
    namespace: dict = {}
    checked, last = [], None
    for line in readme_block("Library tour", "python"):
        code, _, comment = line.partition("#")
        code = code.strip()
        if code:
            tree = ast.parse(code)
            if isinstance(tree.body[0], ast.Expr):
                last = eval(code, namespace)
            else:
                exec(code, namespace)
                last = None
        try:
            promised = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert last == promised, line
        checked.append(promised)
    assert checked == [False, ("Q(sqrt2)", (2, 3)),
                       "Q ⊴[2] Q(sqrt2) ≤[3] Q(6rt2)"]
