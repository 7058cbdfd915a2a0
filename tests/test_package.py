import orblocal


def test_every_export_resolves():
    missing = [name for name in orblocal.__all__ if not hasattr(orblocal, name)]
    assert missing == []
