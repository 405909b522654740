"""The byte-identity sweep in tools/ tells equal trees from a changed one."""

import importlib.util
import json
import pathlib
import re
import shutil

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "identity_sweep", ROOT / "tools" / "identity_sweep.py")
identity_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity_sweep)

# two cheap points of the quick list
POINTS = [p for p in identity_sweep.points(quick=True) if "/2xshort:50/seed4" in p[0]][:2]


def copy_tree(tmp_path, name):
    tree = tmp_path / name
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def run_sweep(trees, points):
    lines = []
    ok = identity_sweep.sweep(tuple(map(str, trees)), points, matrix=False,
                              emit=lambda line: lines.append(json.loads(line)))
    return ok, lines


def test_full_list_holds_every_row_for_every_variant():
    assert len(identity_sweep.points()) == 200
    assert len(identity_sweep.points(quick=True)) == 4 * len(identity_sweep.POINT_ROWS)
    assert len(POINTS) == 2


def test_two_copies_of_one_tree_compare_equal(tmp_path, capsys):
    ok, lines = run_sweep((copy_tree(tmp_path, "a"), copy_tree(tmp_path, "b")), POINTS)
    assert ok
    # the summary gives both trees' src/ size, in raw and in code lines, equal here
    summary = re.search(r"^src/ lines: (\d+) base, (\d+) tree \(\+0\); "
                        r"code lines: (\d+) base, (\d+) tree \(\+0\)$",
                        capsys.readouterr().err, re.MULTILINE)
    assert summary and summary[1] == summary[2] and summary[3] == summary[4]
    assert int(summary[1]) == sum(path.read_bytes().count(b"\n")
                                  for path in (ROOT / "src").rglob("*.py"))
    assert int(summary[3]) == identity_sweep.src_code_lines(str(ROOT / "src"))
    assert int(summary[3]) < int(summary[1])
    assert [line["point"] for line in lines] == [name for name, _ in POINTS]
    for line in lines:
        assert line["outputs_equal"] and line["processed_equal"]
        assert line["stats_ok"] is True
        assert len(line["sha256"]) == len(line["history_sha256"]) == \
            len(line["backlog_sha256"]) == 64
        assert line["link_delivered"] > 0


def test_code_lines_leave_out_comments_docstrings_and_blank_lines():
    text = ('"""Module docstring,\n\nover three lines."""\n'
            "\n"
            "# a comment\n"
            "def f(x):   # a trailing comment\n"
            "    '''Function docstring.'''\n"
            "    s = '''a string that is code,\n"
            "over two lines'''\n"
            "\n"
            "    return (x +\n"
            "            1)\n")
    assert identity_sweep.code_lines(text) == 5


def test_one_patched_line_reports_a_mismatch(tmp_path):
    base, patched = copy_tree(tmp_path, "base"), copy_tree(tmp_path, "patched")
    runner = patched / "src" / "cclab" / "runner.py"
    text = runner.read_text()
    line = '"goodput_kbps": round(goodput_bps(row["unique_bytes"], duration) / 1000.0, 3),'
    assert text.count(line) == 1
    runner.write_text(text.replace(line, line.replace(", 3)", ", 2)")))
    ok, lines = run_sweep((base, patched), POINTS[:1])
    assert not ok
    (report,) = lines
    assert not report["outputs_equal"]
    assert report["sha256"][0] != report["sha256"][1]
    assert isinstance(report["link_delivered"], int)   # equal on both sides


def test_a_moved_rtt_sample_reports_a_history_mismatch(tmp_path):
    # the sample's time is in no output file: only the stored history moves
    base, patched = copy_tree(tmp_path, "base"), copy_tree(tmp_path, "patched")
    transport = patched / "src" / "cclab" / "transport.py"
    text = transport.read_text()
    line = "self.rtt_samples.append(now, sample)"
    assert text.count(line) == 1
    transport.write_text(text.replace(line, "self.rtt_samples.append(now + 1, sample)"))
    ok, lines = run_sweep((base, patched), POINTS[:1])
    assert not ok
    (report,) = lines
    assert not report["outputs_equal"]
    assert isinstance(report["sha256"], str)   # equal on both sides
    assert report["history_sha256"][0] != report["history_sha256"][1]
