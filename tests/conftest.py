import pytest

from cubicsums import arith, fieldspec


@pytest.fixture(scope="session")
def field_nn2():
    return fieldspec.get_preset("cubic-nonnormal-2")


@pytest.fixture(scope="session")
def field_c7():
    return fieldspec.get_preset("cubic-cyclic-7")


@pytest.fixture(scope="session")
def field_hook():
    return fieldspec.get_preset("rationals")


@pytest.fixture(scope="session")
def tables_nn2_1m(field_nn2):
    return arith.build_tables(field_nn2, 10**6)


@pytest.fixture(scope="session")
def tables_c7_1m(field_c7):
    return arith.build_tables(field_c7, 10**6)


@pytest.fixture(scope="session")
def tables_nn2_small(field_nn2):
    return arith.build_tables(field_nn2, 10**4)


@pytest.fixture(scope="session")
def tables_c7_small(field_c7):
    return arith.build_tables(field_c7, 10**4)


@pytest.fixture(scope="session")
def rho_nn2(field_nn2, tables_nn2_1m):
    return arith.estimate_rho(tables_nn2_1m, 10**6)[0]


@pytest.fixture(scope="session")
def rho_c7(field_c7, tables_c7_1m):
    return arith.estimate_rho(tables_c7_1m, 10**6)[0]
