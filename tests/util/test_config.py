"""Unit tests for repro.util.config."""

import pytest

from repro.util.config import Config, ConfigError


class TestConfigBasics:
    def test_get_default(self):
        assert Config().get("missing", 42) == 42


class TestTypedAccessors:
    def test_get_int_parses_strings(self):
        assert Config({"cores": "56"}).get_int("cores") == 56

    def test_get_int_bad_value(self):
        with pytest.raises(ConfigError, match="not an int"):
            Config({"cores": "lots"}).get_int("cores")

    def test_missing_typed_raises(self):
        with pytest.raises(ConfigError):
            Config().get_int("nope")
