import zeckblocks


def test_every_export_resolves_and_is_listed_once():
    names = zeckblocks.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(zeckblocks, name), name
