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


@pytest.fixture
def replicate_workers(monkeypatch):
    """Call with a CPU count to run `montecarlo._replicates` on that many
    workers whatever a replicate costs; 1 keeps every replicate in-process."""

    def use(count):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: count)
        monkeypatch.setattr(montecarlo, "_FORK_MIN_S", 0.0)

    return use
