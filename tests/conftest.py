"""Fixtures that tests in more than one module read."""

import pytest

import fresh


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """One fresh ``verify --out=report.json`` under ``-W error -X importtime``, and its directory.

    Also the ``-X importtime`` stderr of a bare ``import numpy``, so a test can tell what
    verify loads beyond numpy's own imports. The tests on the verify process read this one
    run, so the suite starts verify in a fresh process once.
    """
    cwd = tmp_path_factory.mktemp("verify")
    numpy = fresh.python("-X", "importtime", "-c", "import numpy")
    child = fresh.cli(["verify", "--out=report.json"], "-W", "error", "-X", "importtime", cwd=cwd)
    return child, numpy, cwd
