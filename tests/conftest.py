"""Fixtures that every test module shares."""

import pytest

from dehn.constructions import _trade
from dehn.rewriting import _inverse_lemma


@pytest.fixture(autouse=True)
def _fresh_verdict_caches():
    # theorem11_family keeps its trade per (n, cap), and positivize its
    # inverse-twist lemmas per (surface, curve, cap, engine), for the
    # process; a test that patches what they call must see the patch run,
    # and leave no verdict behind
    _trade.cache_clear()
    _inverse_lemma.cache_clear()
    yield
    _trade.cache_clear()
    _inverse_lemma.cache_clear()
