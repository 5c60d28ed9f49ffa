"""Property test: the SVG writer's own escape equals `xml.sax.saxutils.escape` on any text.

Needs `hypothesis` (the `test` extra); the module is skipped without it.
"""
from xml.sax.saxutils import escape

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from switchnet.analysis import _escape  # noqa: E402


@given(st.text(st.sampled_from("&<>\"';amplt") | st.characters()))
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)
