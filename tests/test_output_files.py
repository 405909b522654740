"""Every output file goes through one writer, `runner.write_text`.

The file format (UTF-8, "\\n" line ends on every platform) is then one
decision in one place.  A module that opens a file for writing on its
own would decide it again, as `matrix.py` once did by leaving the line
end to the platform.
"""

import ast
from pathlib import Path

import cclab
import cclab.runner as runner

SRC = Path(cclab.__file__).resolve().parent


def _write_mode(call: ast.Call) -> bool:
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    # a mode that is not a literal might write: count it
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")


def _writing_opens(tree: ast.AST) -> list[str]:
    """The enclosing function of each `open(...)` in a write mode."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open" and _write_mode(node)):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_the_only_open_for_writing_is_the_one_in_write_text():
    opens = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        opens += [(path.relative_to(SRC).as_posix(), owner) for owner in _writing_opens(tree)]
    assert opens == [("runner.py", "write_text")]


def test_write_text_writes_utf8_with_newline_line_ends(tmp_path):
    path = tmp_path / "out.csv"
    parts = ["# schéma\n", "a,b\n", *(f"{i},{i * i}\n" for i in range(3))]
    runner.write_text(str(path), iter(parts))
    assert path.read_bytes() == "".join(parts).encode("utf-8")
    assert b"\r" not in path.read_bytes()
