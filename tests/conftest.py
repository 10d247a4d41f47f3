from pathlib import Path
from typing import Iterator

import pytest

from waring_gaps import RepTable, WaringParams, certify, sieve_rep
from waring_gaps.series import Verdict


@pytest.fixture(scope="session")
def table_3_1() -> RepTable:
    return sieve_rep(WaringParams(3, 1), 300)


@pytest.fixture(scope="session")
def table_3_2() -> RepTable:
    return sieve_rep(WaringParams(3, 2), 3200)


@pytest.fixture(scope="session")
def table_3_3() -> RepTable:
    return sieve_rep(WaringParams(3, 3), 3200)


@pytest.fixture(scope="session")
def table_4_4() -> RepTable:
    return sieve_rep(WaringParams(4, 4), 10_000)


@pytest.fixture(scope="session", autouse=True)
def condition_ledger() -> Iterator[set[tuple[str, str, Verdict]]]:
    """The (kind, condition, verdict) of every condition any report records
    in this process, for the whole session (see test_condition_ledger.py)."""
    seen: set[tuple[str, str, Verdict]] = set()
    add = certify.Report.add

    def recording_add(self, name, verdict, witness=None):
        seen.add((self.kind, name, verdict))
        return add(self, name, verdict, witness)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify.Report, "add", recording_add)
        yield seen


# The ledger test runs after every other test, and checks only a run of
# the whole suite: a filtered run sees only part of the conditions.
LEDGER_TEST = "test_every_condition_is_seen_not_passing"
DESELECTED = pytest.StashKey[bool]()


def pytest_deselected(items: list[pytest.Item]) -> None:
    if items:
        items[0].config.stash[DESELECTED] = True


def pytest_collection_modifyitems(items: list[pytest.Item]) -> None:
    items.sort(key=lambda item: item.name == LEDGER_TEST)


@pytest.fixture()
def whole_suite(request: pytest.FixtureRequest) -> bool:
    """Whether this run collected every test module and deselected nothing:
    no -k or -m expression, no node id, no --deselect or --last-failed."""
    config = request.config
    if config.stash.get(DESELECTED, False) or config.option.keyword or config.option.markexpr:
        return False
    if any("::" in arg for arg in config.args):
        return False
    collected = {item.path for item in request.session.items}
    return all(path in collected for path in Path(__file__).parent.glob("test_*.py"))
