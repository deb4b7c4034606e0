"""The README's CLI examples run as written and print what their comments show."""

import json
import os
import shlex

import pytest

from unisecant.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli_examples() -> list[tuple[str, dict | None]]:
    """(command line, expected JSON subset or None) for each `unisec` line."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples: list[list] = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("unisec "):
            examples.append([" ".join(line.split()), None])
        elif line.startswith("# {"):
            examples[-1][1] = json.loads(line[2:])
    return [tuple(e) for e in examples]


EXAMPLES = _cli_examples()


def _is_subset(expected, actual) -> bool:
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            key in actual and _is_subset(value, actual[key])
            for key, value in expected.items())
    return expected == actual


def test_every_subcommand_has_an_example():
    assert len({line.split()[1] for line, _ in EXAMPLES}) == 13


@pytest.mark.parametrize("line,expected", EXAMPLES, ids=[line for line, _ in EXAMPLES])
def test_readme_cli_example(line, expected, capsys, tmp_path, monkeypatch):
    argv = [os.path.join(ROOT, arg) if arg.startswith("tests/fixtures/") else arg
            for arg in shlex.split(line)[1:]]
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if expected is not None:
        assert _is_subset(expected, json.loads(out)), out
