import pytest

from wifipower import mac


@pytest.fixture(autouse=True)
def _fresh_mac_memo():
    # every test starts without a kept MAC result, so none depends on
    # which test ran before it
    mac._simulate.cache_clear()
