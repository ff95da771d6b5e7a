import enum

import pytest

from betlab.cli import SEED_ENV_VAR


def pytest_make_parametrize_id(config, val, argname):
    """Name an enum member in a test id by its value, the word the CLI
    takes (``drawdown``, ``late-copycat``), not by ``LossKind.DRAWDOWN``."""
    if isinstance(val, enum.Enum):
        return str(val.value)
    return None


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    """Every test starts without the seed variable the CLI and scripts read."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
