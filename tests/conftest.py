"""Shared pytest plumbing: the acceptance suite's per-criterion report, a
fixture that runs a test body under each of the engine's grid recorders, and
a call that fails its test if it does not return in time."""

import math
import signal

import pytest

ACCEPTANCE_RESULTS = []


@pytest.fixture
def recorders(monkeypatch):
    """Iterate ``recorders()`` to run a body once per trajectory recorder.

    ``hetq.sim.run`` records its grid with the dense recorder when it
    expects fewer than ``hetq.sim._DENSE`` events per grid point. Each step
    sets that bound to 0 ("sparse") or infinity ("dense"), so every run in
    the step takes that recorder whatever its grid, and yields the name.
    """
    import hetq.sim

    def each():
        for name, bound in (("sparse", 0.0), ("dense", math.inf)):
            monkeypatch.setattr(hetq.sim, "_DENSE", bound)
            yield name

    return each


def within(seconds, fn, *args):
    """``fn(*args)``, failing the test if it has not returned after ``seconds``."""
    def timeout(*_):
        pytest.fail(f"{fn.__name__}{args} did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def record_criterion(number: int, title: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((number, title, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} {status}  {title}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
