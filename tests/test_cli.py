"""Exit codes of the command-line surface."""
from podvs.cli import cli


class TestProfile:
    def test_default_parallelism_succeeds(self, capsys):
        assert cli(["profile", "--mode", "hw80"]) == 0
        assert "derived frame rate" in capsys.readouterr().out

    def test_zero_channels_is_a_data_error(self, capsys):
        assert cli(["profile", "--channels", "0"]) == 1
        assert "channels_parallel must be >= 1" in capsys.readouterr().err
