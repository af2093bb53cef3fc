"""The mutation panel's table (``tests/mutants.py``) stays applicable: each
row's text occurs once in its file and its test exists. Running the panel
itself is a CI step of its own."""

import re

import pytest

from mutants import MUTANTS, ROOT, mutate


@pytest.mark.parametrize(
    "file, text, replacement, test", MUTANTS, ids=[f"{i}-{row[0]}" for i, row in enumerate(MUTANTS)]
)
def test_each_row_applies_once_and_names_a_test(file, text, replacement, test):
    source = (ROOT / "src" / "graphnorms" / file).read_text()
    assert mutate(source, text, replacement) != source
    path, name = test.split("::")
    assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test


def test_a_missing_or_ambiguous_text_is_refused():
    for source in ("a = 1\n", "x = 1\nx = 1\n"):
        with pytest.raises(ValueError, match="occurs [02] times, not once"):
            mutate(source, "x = 1", "x = 2")
