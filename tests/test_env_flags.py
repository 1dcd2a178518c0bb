"""Boolean ``REPRO_*`` environment flags share one falsey set."""

import pytest

from repro.runner.cache import default_cache

#: flag name -> reads whether the flag is on under the current environment
FLAGS = {
    "REPRO_NO_CACHE": lambda tmp: not default_cache(tmp).enabled,
}

CASES = [(value, False) for value in ("", "0", "false", "no", "off",
                                      "OFF", " No ")]
CASES += [(value, True) for value in ("1", "true", "yes", "on")]


@pytest.mark.parametrize("var", sorted(FLAGS))
@pytest.mark.parametrize("value,on", CASES)
def test_flag_parsing(monkeypatch, tmp_path, var, value, on):
    monkeypatch.setenv(var, value)
    assert FLAGS[var](tmp_path) is on
