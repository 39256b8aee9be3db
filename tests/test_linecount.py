import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "linecount.py"
spec = importlib.util.spec_from_file_location("linecount", TOOL)
linecount = importlib.util.module_from_spec(spec)
spec.loader.exec_module(linecount)

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line


class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Method docstring."""
        text = """not a docstring:
        an assigned string is code"""
        return math.pi * self.size
'''


def test_counts_code_lines_of_a_snippet():
    # code: import, class, size, def, the two lines of text, return
    assert linecount.count(SNIPPET) == (18, 7)


def test_empty_source():
    assert linecount.count("") == (0, 0)
