"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from germimage import algebra


@pytest.fixture
def fallbacks(monkeypatch):
    """A fresh count, by reason, of the gcds that fell back to the content / PRS path."""
    counter = Counter()
    monkeypatch.setattr(algebra, "_fallbacks", counter)
    return counter
