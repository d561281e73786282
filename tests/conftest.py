import random
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

settings.register_profile("suite", deadline=None, max_examples=30, derandomize=True)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return random.Random(20240517)


def random_fraction(rng, lo=-3, hi=3, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_nonzero_fraction(rng, lo=-3, hi=3, max_den=4) -> Fraction:
    while True:
        q = random_fraction(rng, lo, hi, max_den)
        if q != 0:
            return q


small_fraction = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
