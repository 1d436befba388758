"""Shared fixtures: the built-in worked model and its derived geometry.

Every derived object is read from one session-scoped ``Geometry``, the
same object ``run_suite`` builds per call, so the derivation order is
stated once.  The objects are immutable (no package module assigns an
attribute outside ``__init__``, which ``test_source.py`` checks), so
sharing them across test modules is safe and keeps the exact arithmetic
cheap.  A test that needs a variant builds a copy with ``replaced``.
"""

import inspect

import pytest

from rsthl.builtin import example_model
from rsthl.suite import Geometry


def replaced(obj, **changes):
    """A copy of obj built through its constructor, with the given
    arguments changed; every other argument is read from the attribute of
    the same name."""
    params = inspect.signature(type(obj)).parameters
    unknown = set(changes) - set(params)
    if unknown:
        raise TypeError(f"{type(obj).__name__} has no parameter {sorted(unknown)}")
    return type(obj)(**{name: changes[name] if name in changes else getattr(obj, name)
                        for name in params})


@pytest.fixture(scope="session")
def model():
    return example_model()


@pytest.fixture(scope="session")
def geometry(model):
    return Geometry(model)


@pytest.fixture(scope="session")
def brackets(model):
    return model.brackets


@pytest.fixture(scope="session")
def structure(geometry):
    return geometry.structure


@pytest.fixture(scope="session")
def ambient_conn(geometry):
    return geometry.conn


@pytest.fixture(scope="session")
def ambient_r4(geometry):
    return geometry.r4


@pytest.fixture(scope="session")
def pair(geometry):
    return geometry.pair


@pytest.fixture(scope="session")
def frame(geometry):
    return geometry.frame


@pytest.fixture(scope="session")
def mu(geometry):
    return geometry.mu


@pytest.fixture(scope="session")
def induced(geometry):
    return geometry.induced


@pytest.fixture(scope="session")
def ureport(geometry):
    return geometry.umbilicity


@pytest.fixture(scope="session")
def icurv(geometry):
    return geometry.curv_ind


@pytest.fixture(scope="session")
def iric(geometry):
    return geometry.curv_ind.ricci


@pytest.fixture(scope="session")
def twin(geometry):
    return geometry.assoc


@pytest.fixture(scope="session")
def tcurv(geometry):
    return geometry.tcurv


@pytest.fixture(scope="session")
def tric(geometry):
    return geometry.tcurv.ricci
