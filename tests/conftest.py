import sys

import numpy as np
import pytest

from ergokit import as_markov, corpus, make_simplex, rank_one_projection


@pytest.fixture
def two_state():
    return corpus.two_state_fixture()


@pytest.fixture
def fast_two_state():
    return corpus.fast_two_state_fixture()


@pytest.fixture
def blocky():
    return corpus.block_fixture()


@pytest.fixture
def embedded():
    return corpus.embedded_fixture()


@pytest.fixture(scope="session")
def small_corpus():
    # shared across test modules; keep it small so the unit suite stays fast
    return corpus.build_corpus(seed=0, dims=(2, 3, 4), chains_per_dim=2)


@pytest.fixture(scope="session")
def coupled_blocks():
    """Builder of a chain of two blocks, n // 2 and n - n // 2 states, whose
    columns are uniform on their own block and leak eps across, spread
    uniformly.  spec T = {1, 1 - 2 eps, 0, ...}; P is rank one onto the
    stationary vector, half its mass on each block."""

    def build(n, eps):
        sizes = (n // 2, n - n // 2)
        block = np.repeat([0, 1], sizes)
        same = block[:, None] == block[None, :]
        width = np.array(sizes, dtype=float)[block][:, None]
        s = make_simplex(n)
        T = as_markov(np.where(same, 1 - eps, eps) / width, s)
        return T, rank_one_projection(s, 0.5 / width[:, 0])

    return build


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(*names)`` counts calls to the named package functions.

    A from-import copies a function into each module that imports it, so
    every ``ergokit.*`` binding of each name is rebound to one counting
    wrapper; a name imported from outside the package, such as
    ``coefficients.linprog``, is counted where the package binds it.
    Returns ``{name: calls}``, one ``(caller, args, kwargs)`` entry per call;
    ``caller`` is the name of the calling function.
    """
    import ergokit.cli  # noqa: F401  (cli is not imported by the package)

    def install(*names):
        calls = {}
        mods = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ergokit"]
        for name in names:
            bound = [(getattr(m, name), m.__name__) for m in mods if hasattr(m, name)]
            real = next(
                (f for f, mod in bound if getattr(f, "__module__", None) == mod), bound[0][0]
            )
            log = calls[name] = []

            def counted(*args, _real=real, _log=log, **kwargs):
                _log.append((sys._getframe(1).f_code.co_name, args, kwargs))
                return _real(*args, **kwargs)

            for mod in mods:
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, counted)
        return calls

    return install
