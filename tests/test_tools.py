"""The tools under ``tools/``: the code-line counter on small sample sources,
and the record digest on this checkout."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


@pytest.mark.parametrize("source, expected", [
    pytest.param('"""A module docstring\nover two lines."""\n', 0, id="docstring"),
    pytest.param("# a comment\n\n\n# another\n", 0, id="comments-and-blanks"),
    pytest.param("x = 1  # a trailing comment\n", 1, id="statement"),
    pytest.param('def f():\n    """Docstring."""\n\n    # comment\n    return 1\n', 2,
                 id="function"),
    pytest.param('x = 1\n"a run of" \\\n    "adjacent literals"\n', 1, id="literal-run"),
    pytest.param("f(\n    1,\n    2)\n", 3, id="three-line-call"),
    pytest.param('s = ("a"\n     "b")\n', 2, id="literals-in-an-expression"),
    pytest.param('f("""\ntext\n""")\n', 3, id="multi-line-argument"),
])
def test_counts(tmp_path, source, expected):
    path = tmp_path / "sample.py"
    path.write_text(source)
    assert code_lines.code_lines(path) == expected


def test_sample_module(tmp_path):
    # the rules together: one import, a def, a three-line call
    path = tmp_path / "sample.py"
    path.write_text('"""Docstring."""\n\n# comment\nimport os\n\n\ndef join(x):\n'
                    '    """Docstring."""\n    return os.path.join(\n        x,\n'
                    '        "y")\n\n\n"adjacent" "literals"\n')
    assert code_lines.code_lines(path) == 5


def test_record_digest_is_reproducible_and_tells_seeds_apart(tmp_path):
    # tools/record_digest.py on this checkout at smoke length: a second run
    # prints the same lines, and seeds 1 and 5 (other initial conditions)
    # print other digests for every workload
    root = _PATH.parents[1]
    command = [sys.executable, str(root / "tools" / "record_digest.py"), str(root),
               "--seeds", "1,5", "--smoke"]
    runs = [subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, check=True)
            .stdout.splitlines() for _ in range(2)]
    assert runs[0] == runs[1]
    by_seed = {seed: [line.replace(f" seed={seed} ", " ") for line in runs[0]
                      if f" seed={seed} " in line] for seed in (1, 5)}
    assert len(by_seed[1]) == len(by_seed[5]) == 5
    assert not set(by_seed[1]) & set(by_seed[5])
