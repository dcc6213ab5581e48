"""`tools/mutants.py`: every recorded mutant still applies, and one runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_mutant_applies_once_and_names_known_tests(mutants):
    root = mutants.ROOT
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (root / m.path).read_text().count(m.old) == 1, m.name
        assert m.old != m.new, m.name
        for test in m.tests:
            assert (root / test.split("::")[0]).is_file(), (m.name, test)


def test_one_mutant_is_killed(mutants, capsys):
    # a missing queue-drop count: the end-of-run conservation check fails a
    # test that checks only goodput
    assert mutants.main(["sr-full-drop-uncounted"]) == 0
    out = capsys.readouterr().out
    assert "sr-full-drop-uncounted: killed" in out
    assert "1 of 1 as expected" in out


def test_unknown_mutant_exits_2(mutants, capsys):
    assert mutants.main(["no-such-mutant"]) == 2
    assert "no-such-mutant" in capsys.readouterr().err
