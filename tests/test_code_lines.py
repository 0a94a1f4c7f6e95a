from pathlib import Path

from cli_child import python

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# ten code lines: the import, the two lines of the def, the five of the
# return, the class line and the two of the assigned string
FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


def join(a,
         b):
    """Function docstring."""

    return os.path.join(
        a,
        # a comment inside the call
        b,
    )


class Holder:
    """Class docstring
    over two lines.
    """

    text = """a string that is
not a docstring"""
'''


def test_counts_code_lines_per_module_and_in_total(tmp_path):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    proc = python(str(TOOL), str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "a.py 1\nb.py 10\ntotal 11\n"


def test_refuses_a_missing_directory_argument():
    proc = python(str(TOOL))
    assert proc.returncode == 1
    assert proc.stderr == "usage: python tools/code_lines.py DIRECTORY\n"
