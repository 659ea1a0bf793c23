import quadzero


def test_every_export_resolves():
    missing = [name for name in quadzero.__all__ if not hasattr(quadzero, name)]
    assert missing == []
    assert len(set(quadzero.__all__)) == len(quadzero.__all__)


def test_star_import():
    namespace = {}
    exec("from quadzero import *", namespace)
    assert set(quadzero.__all__) <= set(namespace)
