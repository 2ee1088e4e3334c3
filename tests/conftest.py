import pytest

from gelfand_wgraphs import gelfand, hecke


def _clear():
    gelfand._model.cache_clear()
    hecke._regular.cache_clear()


@pytest.fixture
def fresh_tables():
    """
    The engine's table caches (gelfand._model, hecke._regular), emptied
    before and after the test: a table built while the test patches the
    engine, with its mu, its store and the driver that made them, is not
    seen by a later test.
    """
    _clear()
    yield
    _clear()
