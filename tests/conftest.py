import pathlib

import pytest

from mactor import initial_config, parse_program

PROGRAMS = pathlib.Path(__file__).parent / "programs"


def load_source(name: str) -> str:
    return (PROGRAMS / f"{name}.mac").read_text()


def load_program(name: str):
    return parse_program(load_source(name), filename=f"{name}.mac")


def load_config(name: str):
    return initial_config(load_program(name))


def remaining_stmts(closure) -> tuple:
    """The statements a frame has left to run: the heads from its point to
    the end of its body."""
    out = []
    point = closure.point
    while point.head is not None:
        out.append(point.head)
        point = point.next
    return tuple(out)


class CountingSet(frozenset):
    """A supported set that counts the membership tests made against it."""

    tests = 0

    def __contains__(self, item):
        self.tests += 1
        return frozenset.__contains__(self, item)


@pytest.fixture(scope="session")
def employee_bank():
    return load_program("employee_bank")


@pytest.fixture(scope="session")
def bank_small():
    return load_program("bank_small")


@pytest.fixture(scope="session")
def worked_queue():
    return load_program("worked_queue")
