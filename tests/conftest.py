import numpy as np
import pytest

from eczcs import load_fixture_family

from reference import modulate

# reference magnitude lists for the shipped fixture families, frozen for regression
RHO_T4_00 = (48, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
RHOHAT_T4_01 = (0, 4, 0, 4, 0, 4, 16, 4, 16, 4, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
RHO_T5_02 = (
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0,
    32, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
)
# rotated-sum list for the length-32 fixture, taken between sets 0 and 3
RHOHAT_T5_LIST = (
    0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 12, 0, 12, 0, 20,
    0, 12, 0, 4, 0, 4, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0,
)


@pytest.fixture(scope="session")
def table3():
    return load_fixture_family("zccs_2x2x12")


@pytest.fixture(scope="session")
def table4():
    return load_fixture_family("eczcs_2x2x24")


@pytest.fixture(scope="session")
def table5():
    return load_fixture_family("eczcs_4x2x32")


@pytest.fixture(scope="session")
def nonc2_zccs():
    return load_fixture_family("zccs_2x2x24_nonc2")


def float_accf(s0, s1, u):
    """Independent direct-summation oracle for the aperiodic correlation."""
    a, b = modulate(s0), modulate(s1)
    length = len(a)
    if u >= 0:
        return complex(np.sum(a[u:length] * np.conj(b[: length - u])))
    return complex(np.sum(a[: length + u] * np.conj(b[-u:length])))


def float_pccf(s0, s1, u):
    """Independent direct cyclic-summation oracle for the periodic correlation."""
    a, b = modulate(s0), modulate(s1)
    length = len(a)
    if u >= 0:
        return complex(np.sum(np.roll(a, -u) * np.conj(b)))
    return complex(np.sum(a * np.conj(np.roll(b, u))))
