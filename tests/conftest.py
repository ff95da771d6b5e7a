import enum


def pytest_make_parametrize_id(config, val, argname):
    """Name an enum member in a test id by its value, the word the CLI
    takes (``drawdown``, ``late-copycat``), not by ``LossKind.DRAWDOWN``."""
    if isinstance(val, enum.Enum):
        return str(val.value)
    return None
