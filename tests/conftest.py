import pytest

from eicat import cli
from eicat.category import presentation_of
from eicat.families import corpus

CHARACTERISTICS = (0, 2, 3, 5)
CAP = 8


@pytest.fixture(scope="session")
def corpus_items():
    return corpus(0)


@pytest.fixture(scope="session")
def presentations(corpus_items):
    return [(name, c, presentation_of(c)) for name, c in corpus_items]


@pytest.fixture(scope="session")
def sweep(corpus_items):
    """Classifier report and oracle verdicts (`eicat.cli.Comparison`) for
    every corpus instance and characteristic; shared so the expensive runs
    happen once."""
    return cli.sweep(corpus_items, CHARACTERISTICS, CAP)


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow: run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
