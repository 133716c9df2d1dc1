import pytest

from probestream import workers


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(n)` makes the next `workers.run_pieces` call build a pool for an
    n-CPU affinity mask (none for n = 1); that pool is shut down after the
    test and the process's own pool put back."""
    patched = []

    def use(n):
        if patched and workers._pool is not None:
            workers._pool.shutdown(wait=True)
        monkeypatch.setattr(workers, "cpu_count", lambda: n)
        monkeypatch.setattr(workers, "_pool", None)
        patched.append(n)

    yield use
    if patched and workers._pool is not None:
        workers._pool.shutdown(wait=True)
