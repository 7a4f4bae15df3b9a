import numpy as np
import pytest
import scipy.linalg

from adsgeo import ads_core as core
from adsgeo.fuchsian import octagon_generators, so21_of_sl2

E1 = np.array([1.0, 0, 0, 0])
E3 = np.array([0, 0, 1.0, 0])
E4 = np.array([0, 0, 0, 1.0])

_PAIRINGS, _QUADRUPLE = octagon_generators()
# the 4 side pairings and the standard quadruple (a1, b1, a2, b2)
FUCHSIAN_ELEMENTS = _PAIRINGS + _QUADRUPLE


def test_bilinear_signature():
    assert core.bilinear22(E1, E1) == 1.0
    assert core.bilinear22(E3, E3) == -1.0
    assert core.bilinear22([1, 1, 1, 0], [0, 1, 0, 1]) == 1.0


def test_bilinear_symmetric(rng):
    for _ in range(20):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert core.bilinear22(x, y) == pytest.approx(core.bilinear22(y, x), abs=1e-14)


def test_future_orientation_matches_declared_curve():
    # velocity of s -> (0, 0, cos s, sin s) at s = 0 is e4 and must be future
    assert core.is_future(E3, E4)
    assert not core.is_future(E3, -E4)


@pytest.mark.parametrize("m", FUCHSIAN_ELEMENTS,
                         ids=["p0", "p1", "p2", "p3", "a1", "b1", "a2", "b2"])
def test_fuchsian_element_acts_as_ads_isometry(m, rng, family_07, bump):
    # the pair (m, m^-T) acts on R^{2,2} as diag(so21_of_sl2(m), 1); the
    # residuals grow with the entries of G, up to 282 for a2 and b2
    G = scipy.linalg.block_diag(so21_of_sl2(m), 1.0)
    scale = 1e-13 * np.abs(G).max() ** 2
    x, y = rng.standard_normal((2, 50, 4))
    form = core.bilinear22(x @ G.T, y @ G.T) - core.bilinear22(x, y)
    assert np.abs(form).max() <= scale * np.abs(x).max() * np.abs(y).max()
    u = rng.uniform(-1.0, 1.0, (50, 2))
    for surface in (family_07, bump):
        p = surface(u)
        gp = p @ G.T
        assert np.abs(core.bilinear22(gp, gp) + 1.0).max() <= scale
        assert np.array_equal(gp[:, 3], p[:, 3])
        assert core.is_future(gp, core.future_timelike(p) @ G.T).all()
