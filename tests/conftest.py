import sys

import pytest

from ustatkit import hoeffding, montecarlo


@pytest.fixture
def record_calls(monkeypatch):
    """Call with a module and a function name to wrap that function in every
    `ustatkit` namespace holding it, the package's included; returns the list
    of ``key(*args, **kwargs)`` of its calls (the positional arguments by
    default), from any caller."""

    def record(module, name, key=lambda *args, **kwargs: args):
        calls = []
        real = getattr(module, name)

        def recording(*args, **kwargs):
            calls.append(key(*args, **kwargs))
            return real(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "ustatkit" and vars(mod).get(name) is real:
                monkeypatch.setattr(mod, name, recording)
        return calls

    return record


@pytest.fixture
def decompose_calls(record_calls):
    """Orders of the kernels passed to `hoeffding.decompose`, from any caller."""
    return record_calls(hoeffding, "decompose", lambda kernel, mu: kernel.order)


@pytest.fixture
def replicate_workers(monkeypatch):
    """Call with a CPU count to run `montecarlo._replicates` on that many
    workers whatever a replicate costs; 1 keeps every replicate in-process."""

    def use(count):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: count)
        monkeypatch.setattr(montecarlo, "_FORK_MIN_S", 0.0)

    return use
