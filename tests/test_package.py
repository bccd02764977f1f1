import abthmm


def test_every_exported_name_resolves_once():
    assert len(abthmm.__all__) == len(set(abthmm.__all__))
    missing = [name for name in abthmm.__all__ if not hasattr(abthmm, name)]
    assert missing == []
