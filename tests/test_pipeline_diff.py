"""``tools/pipeline_diff.py`` on two tiny source trees: it names the one
output that differs and passes a tree compared with itself."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pipeline_diff.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("pipeline_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLI = """import sys
from pathlib import Path
name = sys.argv[1]
Path(name).write_text({b!r} if name == "b.txt" else "same")
print("wrote", name)
"""

STEPS = [("write a", ("-m", "gaxkit.cli", "a.txt")),
         ("write b", ("-m", "gaxkit.cli", "b.txt"))]


def _tree(root: Path, b: str) -> Path:
    package = root / "src" / "gaxkit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(CLI.format(b=b))
    return root / "src"


def test_names_the_file_that_differs(tool, tmp_path, capsys):
    old, new = _tree(tmp_path / "old", "1"), _tree(tmp_path / "new", "2")
    assert tool.main([str(old), str(new)], steps=STEPS) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "file differs: b.txt"
    assert out[1].endswith("1 difference")


def test_a_tree_against_itself_is_clean(tool, tmp_path, capsys):
    src = _tree(tmp_path / "old", "1")
    keep = tmp_path / "runs"
    assert tool.main([str(src), str(src), "--keep", str(keep)],
                     steps=STEPS) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 steps, 2 files compared in ")
    assert out.endswith(": no differences\n")
    assert (keep / "new" / "b.txt").read_text() == "1"


def test_exit_status_and_output_are_compared(tool, tmp_path):
    src = _tree(tmp_path / "t", "1")
    old = tool.run_tree(src, tmp_path / "o", STEPS)
    new = dict(old, **{"write a": (1, "", "error: boom\n")})
    assert tool.compare(tmp_path / "o", tmp_path / "o", old, new) == [
        "exit status differs: write a", "stderr differs: write a",
        "stdout differs: write a"]
