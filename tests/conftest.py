import sys

import pytest

from klbessel import quadrature
from klbessel.quadrature import DEFAULT_CONFIG


@pytest.fixture(scope="session")
def cfg():
    return DEFAULT_CONFIG


@pytest.fixture
def panel_nodes(monkeypatch):
    """Gauss-Legendre nodes per `quadrature.panel_sums` call, appended as the test runs."""
    nodes = []
    panel_sums = quadrature.panel_sums

    def counting(f, edges):
        nodes.append(16 * (len(edges) - 1))
        return panel_sums(f, edges)

    # `integrate` looks the name up in its module
    monkeypatch.setattr(quadrature, "panel_sums", counting)
    return nodes


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # render the acceptance verdict lines even when output is captured
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
