import copy
import io
import pathlib
import pickle
import re
import shlex

import pytest

import quandles
from quandles import (
    AlexanderPresentation,
    Permutation,
    QuandleParseError,
    ResourceLimitError,
    automorphism_group,
    dihedral,
    enumerate_classes,
    identify_group,
)
from quandles.cli import main

import tables

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_pinned():
    # one public name per job; a second spelling shows here
    assert quandles.__all__ == [
        "AlexanderPresentation",
        "ClassRecord",
        "EnumerationReport",
        "GroupId",
        "PermGroup",
        "Permutation",
        "QuandleMatrix",
        "QuandleParseError",
        "ResourceLimitError",
        "VerificationReport",
        "alexander",
        "all_permutations",
        "all_tables",
        "are_isomorphic",
        "automorphism_group",
        "backend",
        "canonical_form",
        "conjugation",
        "conjugation_class",
        "determinant",
        "dihedral",
        "enumerate_all",
        "enumerate_classes",
        "identify_group",
        "make",
        "np_count",
        "parse_matrix",
        "permute",
        "trivial",
    ]
    for name in quandles.__all__:
        assert getattr(quandles, name) is not None


def test_readme_python_api_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "20 D20"
    assert lines[-1] == "4168"


def _same(a, b) -> bool:
    # the exceptions compare by identity, so compare what they hold
    if isinstance(a, Exception):
        return (str(a), vars(a)) == (str(b), vars(b))
    return a == b


@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_public_values_pickle_and_copy(round_trip):
    aut = automorphism_group(dihedral(3))
    values = [
        AlexanderPresentation(5, (2, 1)),
        enumerate_classes(4).classes[6],
        enumerate_classes(4),
        identify_group(aut),
        aut,
        Permutation.parse("(1 5 3)(2 4)", 5),
        dihedral(3),
        QuandleParseError("not an integer: 'x'", 2, 3),
        ResourceLimitError(5, 208, 4167, 3960),
        dihedral(3).verify(),
    ]
    public_types = {obj for obj in map(quandles.__dict__.get, quandles.__all__) if isinstance(obj, type)}
    assert {type(v) for v in values} == public_types
    for value in values:
        rebuilt = round_trip(value)
        assert type(rebuilt) is type(value) and _same(rebuilt, value)
    assert identify_group(round_trip(aut)).label == "S3"


def test_readme_command_line_examples(capsys, monkeypatch, tmp_path):
    # each "$ " line of the README's command-line block, run through cli.main
    # stage by stage, prints the lines the README shows under it
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = re.findall(r"^\$ (.*)\n((?:.+\n)*)", block, re.M)
    assert [command for command, _ in examples] == [
        "quandle make dihedral:3",
        "quandle make dihedral:3 | quandle props -",
        "quandle iso detA.txt detB.txt",
        "quandle enumerate 4 --machine | head -4",
    ]
    for name, rows in (("detA.txt", tables.DET_A), ("detB.txt", tables.DET_B)):
        (tmp_path / name).write_text("\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    monkeypatch.chdir(tmp_path)
    for command, shown in examples:
        text = ""
        for stage in command.split(" | "):
            program, *argv = shlex.split(stage)
            if program == "head":
                text = "".join(text.splitlines(keepends=True)[: int(argv[0].removeprefix("-"))])
                continue
            assert program == "quandle"
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(argv) == 0
            text = capsys.readouterr().out
        assert text == shown
