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
