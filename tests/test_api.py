import pathlib
import re

import quandles

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
