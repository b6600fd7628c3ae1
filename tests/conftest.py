"""Suite-wide fixtures."""

import pytest


@pytest.fixture(autouse=True)
def _no_run_recording(monkeypatch):
    """Keep CLI invocations from recording runs into ``.repro/`` of the
    working directory.  Tests that check recording unset
    ``REPRO_LEDGER`` and ``chdir`` into ``tmp_path``."""
    monkeypatch.setenv("REPRO_LEDGER", "0")
