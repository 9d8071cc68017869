import wsteenrod


def test_all_exports_resolve_sorted_unique():
    names = wsteenrod.__all__
    missing = [name for name in names if not hasattr(wsteenrod, name)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
