from dataclasses import replace

import pytest

from eqlines.exact import QQ
from eqlines.groebner import buchberger
from eqlines.polyring import Poly, Ring
from eqlines.sicgen import gen_wh_system
from eqlines.solver import solve_triangular

# one line per acceptance criterion, echoed after the test summary so the
# PASS/FAIL verdicts survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line("  " + line)


@pytest.fixture(scope="session")
def ring_xy():
    return Ring(("x", "y"), QQ)


@pytest.fixture(scope="session")
def ring_xyz():
    return Ring(("x", "y", "z"), QQ)


@pytest.fixture(scope="session")
def d2_pipeline():
    """Shared d=2 run: system, reduced lex basis, classified solutions."""
    system = gen_wh_system(2)
    gb = buchberger(list(system.equations), "lex")
    sols = replace(solve_triangular(gb, list(system.equations), precision=256),
                   d=system.d, kind=system.kind)
    return system, gb, sols
