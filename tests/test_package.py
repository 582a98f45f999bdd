import embcompare


def test_public_names_resolve():
    names = embcompare.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(embcompare, name)]
    assert missing == []
