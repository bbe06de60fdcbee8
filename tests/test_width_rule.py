"""The int64-or-Python-int width rule is stated in one module, ``_simplex``.

Every exact engine keeps an integer array in int64 while a bound on its
intermediates stays below 2**63 and in Python ints past it.  ``_simplex``
states that limit once (``int_dtype``, ``widen``); any other module states
only its own bound and asks those helpers.  A literal limit elsewhere would be
a second copy of the rule, free to drift from the first.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphtail"
LIMITS = ("2**63", "2 ** 63", "2**62", "< 63")
HOME = "_simplex.py"


def test_the_int64_limit_is_written_only_in_its_home():
    found = [
        f"{path.name}:{number} {limit!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != HOME
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for limit in LIMITS
        if limit in line
    ]
    assert not found, "the int64 limit restated outside _simplex.py:\n" + "\n".join(found)


def test_the_home_states_the_limit():
    text = (PACKAGE / HOME).read_text()
    assert "def int_dtype(" in text and "def widen(" in text
    assert any(limit in text for limit in LIMITS)
