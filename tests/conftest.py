import pytest

from affine_schur import canonical, transfer


@pytest.fixture(scope="session")
def span4():
    """Shared monomial-image workspace at rank 4 (n = 2)."""
    return transfer.MonomialSpan(2, 4)


@pytest.fixture(scope="session")
def tsys():
    """Shared flag-module bar system; it serves every (n, D)."""
    return canonical.tmodule_system()
