"""The code-line counter of ``tools/code_lines.py`` on small sample sources."""

import importlib.util
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
