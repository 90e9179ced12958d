"""The package's public names."""

import symconn


def test_every_exported_name_resolves():
    missing = [name for name in symconn.__all__ if not hasattr(symconn, name)]
    assert missing == []
    assert len(set(symconn.__all__)) == len(symconn.__all__)
