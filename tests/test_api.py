import dgalift


def test_all_exports_resolve():
    names = dgalift.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(dgalift, n)]
    assert missing == []
    namespace = {}
    exec("from dgalift import *", namespace)
    assert set(names) <= set(namespace)
