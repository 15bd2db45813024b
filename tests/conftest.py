"""Fixtures shared by the test modules."""

import pytest

from taureau.sim import MetricRegistry

#: Every MetricRegistry method that resolves a metric by name.
LOOKUPS = ("counter", "gauge", "histogram", "distribution", "series",
           "labeled_counter", "labeled_gauge", "labeled_histogram")


@pytest.fixture
def lookups(monkeypatch):
    """A list that grows by one method name per registry lookup."""
    calls = []
    for name in LOOKUPS:
        original = getattr(MetricRegistry, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MetricRegistry, name, counted)
    return calls
