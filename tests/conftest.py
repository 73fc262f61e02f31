import numpy as np
import pytest

import thermovisc.basis as basis_mod


@pytest.fixture
def dropping_eigsh(monkeypatch):
    """Installs an ARPACK in ``thermovisc.basis`` that drops the second
    eigenpair of the first degenerate group it finds, as shift-invert Lanczos
    can, in its first ``calls_that_drop`` calls; returns the pair counts of
    the calls made."""

    def install(calls_that_drop):
        real = basis_mod.eigsh
        calls = []

        def eigsh(A, k, **kwargs):
            calls.append(k)
            vals, vecs = real(A, k=k + 1, **kwargs)
            order = np.argsort(vals)
            if len(calls) <= calls_that_drop:
                ties = np.flatnonzero(np.diff(vals[order]) <= 1e-8 * np.abs(vals).max())
                order = np.delete(order, ties[0] + 1)
            return vals[order[:k]], vecs[:, order[:k]]

        monkeypatch.setattr(basis_mod, "eigsh", eigsh)
        return calls

    return install
