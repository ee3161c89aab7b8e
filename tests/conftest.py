import numpy as np
import pytest

from ccscatter import PotentialSpec, build_problem, catalog


@pytest.fixture(scope="session")
def corpus():
    return catalog.corpus_problems()


@pytest.fixture(scope="session")
def spike_free(corpus):
    return [(n, p) for n, p in corpus if not p.V.has_spikes]


@pytest.fixture(scope="session")
def real_corpus(corpus):
    return [(n, p) for n, p in corpus if p.ref.u0_is_real]


@pytest.fixture(scope="session")
def sine_well():
    return catalog.sine_well()


@pytest.fixture(scope="session")
def box_barrier():
    return catalog.box_barrier()


@pytest.fixture(scope="session")
def free_problem():
    return build_problem(PotentialSpec.zero(), PotentialSpec.zero(), (1.0, 0.0))


@pytest.fixture(scope="session")
def nine_root():
    """Q = 0 and V with nine roots j/8 on one piece, scaled to max|V| = 1, u0 = (1, 0).

    Its largest coefficient is 2.4e5: a step count guessed from the
    coefficients is far above one read from the piece's range.
    """
    coeffs = np.polynomial.polynomial.polyfromroots(np.arange(9) / 8.0)
    coeffs /= np.abs(np.polynomial.polynomial.polyval(np.linspace(0.0, 1.0, 10001), coeffs)).max()
    return build_problem(PotentialSpec.zero(), PotentialSpec.polynomial(coeffs), (1.0, 0.0))
