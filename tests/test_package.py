import specfactor


def test_every_exported_name_resolves():
    missing = [name for name in specfactor.__all__ if not hasattr(specfactor, name)]
    assert missing == []
    assert len(set(specfactor.__all__)) == len(specfactor.__all__)
