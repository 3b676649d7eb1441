import pytest
from hypothesis import settings

from phsolve import problem as pb
from phsolve import problems

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def resonant_problem():
    return problems.example13()


@pytest.fixture(scope="session")
def manufactured_problem():
    return problems.manufactured_wellposed()


@pytest.fixture(scope="session")
def transport_problem():
    return problems.pure_forcing()


@pytest.fixture(scope="session")
def full_problem():
    """Every operator active, both boundary sides, a space-dependent speed."""
    return pb.from_dict(
        {
            "n": 2,
            "m": 1,
            "a": ["1", "-1-x/2"],
            "b": [["0.1", "0.3*sin(t)"], ["0.2", "-0.1*cos(t)"]],
            "g": [["0.5", "0.1*cos(t)"], ["0.2*sin(x)", "0.3"]],
            "h": [["0.1", "0.2"], ["0.05*sin(t)", "0.1"]],
            "r": [["0.2", "0.1*sin(t)"], ["0", "0.3"]],
            "f": ["sin(t)", "x*cos(t)"],
        }
    )
