import pytest

from wifipower import mac, scenario


@pytest.fixture(autouse=True)
def _fresh_memos():
    # every test starts without a kept MAC result or channel stage, so none
    # depends on which test ran before it
    mac._simulate.cache_clear()
    scenario._kept_stage.cache_clear()
