import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_each_line_once(tmp_path):
    # docstring lines (their blank lines included), comment-only and blank
    # lines are not code; a trailing comment leaves a code line
    path = tmp_path / "m.py"
    path.write_text('"""Module.\n\nMore."""\n\nimport math  # used\n\n\ndef f():\n    """One."""\n'
                    "    # a comment\n    return math.pi\n")
    assert _code_lines().count(path) == (3, 11)


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys, monkeypatch):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "src" / "b.py").write_text("# note\ny = 2\nz = 3\n")
    monkeypatch.chdir(tmp_path)
    _code_lines().main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[:2]] == [["1", "1", "a.py"], ["2", "3", "b.py"]]
    assert lines[2].endswith("total: 3 code lines of 4")
