import pytest

from ustatkit import bounds, hoeffding, montecarlo, product


@pytest.fixture
def decompose_calls(monkeypatch):
    """Orders of the kernels passed to `hoeffding.decompose`, from any caller."""
    calls = []
    real = hoeffding.decompose

    def counting(*args, **kwargs):
        calls.append(args[0].order)
        return real(*args, **kwargs)

    for module in (hoeffding, bounds, montecarlo, product):
        monkeypatch.setattr(module, "decompose", counting)
    return calls
