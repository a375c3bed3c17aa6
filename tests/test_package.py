"""The package's public surface."""
import podvs


def test_every_exported_name_resolves():
    missing = [name for name in podvs.__all__ if not hasattr(podvs, name)]
    assert missing == []
