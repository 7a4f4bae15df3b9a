import warnings
from contextlib import suppress

import numpy as np
import pytest

from adsgeo import embedding
from adsgeo.batch import inv, quadratic_form
from adsgeo.fd import partials

# hypothesis imports its patch writer only once a property test fails; with
# libcst installed that import warns (mypy_extensions.TypedDict is
# deprecated), and under -W error the warning leaves pytest's teardown hooks
# as an INTERNALERROR that ends the session before the remaining tests run.
# Importing the writer here, with that one warning class ignored, keeps a
# failing property test a plain failure; no test's warning filter changes.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def bump():
    return embedding.bump_immersion()


@pytest.fixture(scope="session")
def family_07():
    return embedding.family_immersion(-0.7)


def codazzi_on_stencil(I_values, x_values, scheme):
    """|d^D X (d1, d2)|_I at u from the values of a metric field I and an
    operator field X on ``fd.stencil(u, scheme)``: the arithmetic of the
    Codazzi row of ``embedding.structure_residuals``."""
    I, dI = partials(I_values, scheme)[:2]
    x, dx = partials(x_values, scheme)[:2]
    vec = embedding.exterior_covariant_derivative(
        embedding.christoffel_symbols(inv(I), dI), x, dx)
    return np.sqrt(np.maximum(quadratic_form(vec, I), 0.0))

