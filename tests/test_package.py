import sgloc


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from sgloc import *", namespace)
    namespace.pop("__builtins__")
    assert len(set(sgloc.__all__)) == len(sgloc.__all__)
    assert sorted(namespace) == sorted(sgloc.__all__)
    for name in sgloc.__all__:
        assert namespace[name] is getattr(sgloc, name)
