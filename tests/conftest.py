import os
import subprocess
import sys
from pathlib import Path

import pytest

import stepharm
from stepharm import PotentialConfig, cli


@pytest.fixture
def cfg15():
    return PotentialConfig.from_beta0(1.5)


@pytest.fixture
def cfg45():
    return PotentialConfig.from_beta0(4.5)


def make_config(beta0: float) -> PotentialConfig:
    return PotentialConfig.from_beta0(beta0)


def fresh_interpreter(code, *argv, threads=None):
    """Last stdout line of ``code`` run with ``argv`` in a new Python process.

    The process sees this one's environment with none of the BLAS thread
    variables but those given in ``threads``.
    """
    src = str(Path(stepharm.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items()
           if name not in cli._BLAS_THREAD_VARIABLES}
    env.update(threads or {}, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.splitlines()[-1]
