"""Shared pytest plumbing: the acceptance suite's per-criterion report, and a
call that fails its test if it does not return in time."""

import signal

import pytest

ACCEPTANCE_RESULTS = []


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
