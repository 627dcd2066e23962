"""The README's config example and command synopsis match the program."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from doppler_reabs import cli
from doppler_reabs.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
INI_BLOCKS = re.findall(r"^```ini\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("text", INI_BLOCKS, ids=[f"ini{i}" for i in range(len(INI_BLOCKS))])
def test_readme_config_runs(tmp_path, capsys, text):
    path = tmp_path / "readme.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0, \
        capsys.readouterr().err


def test_readme_error_example_is_what_the_example_prints(tmp_path, capsys):
    shown = re.search(r"^line \d+: cloud\.atom_number: .*$", README, re.MULTILINE).group(0)
    path = tmp_path / "readme.cfg"
    path.write_text(INI_BLOCKS[0].replace("atom_number = 1e8", "atom_number = 0"),
                    encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 1
    assert f"  {shown}\n" in capsys.readouterr().err


def _parser_flags(verb):
    return set(cli._VERBS[verb])


@pytest.mark.parametrize("verb", ["simulate", "scan", "fit", "selfcheck", "preset-dump"])
def test_readme_synopsis_lists_each_verbs_flags(verb):
    synopsis = re.findall(rf"^doppler-reabs {re.escape(verb)} (.*)$", README, re.MULTILINE)
    assert len(synopsis) == 1
    assert set(re.findall(r"--[a-z-]+", synopsis[0])) == _parser_flags(verb)


def test_readme_synopsis_is_the_help_text(capsys):
    block = re.search(r"^```\n(doppler-reabs .*?)^```", README, re.MULTILINE | re.DOTALL)
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == block.group(1)
