import pytest

from repro.runtime.storage import NodeStore


@pytest.fixture
def stores():
    """``NodeStore`` factory that closes every store's open map-segment
    handles at teardown (CI runs the storage suites once with a leaked
    handle's ``ResourceWarning`` as an error)."""
    made = []

    def make(*args, **kwargs):
        made.append(NodeStore(*args, **kwargs))
        return made[-1]

    yield make
    for store in made:
        store.close()
