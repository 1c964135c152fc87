import json
import os
from pathlib import Path

import numpy as np
import pytest

from nlpoisson.assembly import assemble
from nlpoisson.geometry import build_cloud
from nlpoisson.harness import HarnessOptions, convergence_study
from nlpoisson.kernels import cosine_profile

# The paper's numbers as the acceptance tests measure them: each
# criterion's figures by name, and the e2 median per t of each shared
# sweep.  With NLPOISSON_ACCURACY=path set, the session writes them to
# path as JSON; they hold no times, so two runs write the same file.
ACCURACY = {"criteria": {}, "sweeps": {}}


def record_sweep(name, report):
    """Record a sweep's e2 median per t under name; returns the report."""
    ACCURACY["sweeps"][name] = {str(t): median
                                for t, _, median in report.medians()}
    return report


def pytest_sessionfinish(session):
    path = os.environ.get("NLPOISSON_ACCURACY")
    if path:
        Path(path).write_text(json.dumps(ACCURACY, indent=1, sort_keys=True)
                              + "\n")


@pytest.fixture(scope="session")
def profile():
    return cosine_profile()


@pytest.fixture(scope="session")
def small_cloud():
    """hemisphere2 at t=5, seed=1: n0 = 40, small enough for dense oracles."""
    return build_cloud("hemisphere2", 5, 1)


@pytest.fixture(scope="session")
def small_system(small_cloud):
    return assemble(small_cloud, mode="full")


@pytest.fixture(scope="session")
def medium_cloud():
    """hemisphere2 at t=10, seed=1: n0 = 130."""
    return build_cloud("hemisphere2", 10, 1)


@pytest.fixture(scope="session")
def medium_system(medium_cloud):
    return assemble(medium_cloud, mode="full")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240613)


@pytest.fixture(scope="session")
def energy_non_increasing():
    """Whether a solve's energy_history never rises by more than rounding."""
    return lambda res: all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in
                           zip(res.energy_history, res.energy_history[1:]))


@pytest.fixture(scope="session")
def lambda_study():
    """Criterion 8's sweep: the absorption model (lambda = 1) with its
    manufactured forcing on hemisphere2, t in {5, 10, 20, 40}, seeds 1-5."""
    return record_sweep("lambda_study", convergence_study(
        "hemisphere2", [5, 10, 20, 40], seeds=5,
        options=HarnessOptions(variant="lambda", tol=1e-11)))
