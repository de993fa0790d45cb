"""Workload definitions: the network, epsilon and instance stream of each.

The provex sources are imported from the ``src`` directory of the checkout
this file sits in, never from an installed copy, so the benchmark always
measures the code beside it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"


class SourceMissing(RuntimeError):
    """The checkout holds no provex sources to measure."""


def import_provex():
    """Import provex from the checkout's ``src``; fails when it is not there."""
    if not (SRC / "provex" / "__init__.py").is_file():
        raise SourceMissing(f"no provex sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import provex
    import provex.fixtures

    if Path(provex.__file__).resolve().parent != SRC / "provex":
        raise SourceMissing(f"provex was imported from {provex.__file__}, not from {SRC}")
    return provex


# numpy is imported first and untimed: its start-up (OpenBLAS threads and
# buffers) takes 0.15-0.25 s, varies most with host load, and no change to
# this repository moves it.
_TIME_IMPORT = (
    "import time, numpy; t0 = time.perf_counter(); import provex, provex.fixtures; "
    "print(time.perf_counter() - t0)"
)


def import_seconds() -> float:
    """Time to import provex in a fresh interpreter, numpy already loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _TIME_IMPORT], env=env, cwd=SRC.parent,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


@dataclass(frozen=True)
class Workload:
    name: str
    make_net: Callable[[], object]
    epsilon: float
    pool: int  # instances drawn per run; more than a run can get through
    trace_instances: int  # fixed count for traced runs, so counts repeat exactly


def _mnist_net():
    import provex

    return provex.mnist_shape_network(seed=3)


def _relu100_net():
    import provex

    return provex.random_network(100, (50,), 10, "relu", seed=4)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mnist784-sigmoid",
            make_net=_mnist_net,
            epsilon=1e-4,
            pool=32,
            trace_instances=1,
        ),
        Workload(
            name="relu100-boundary",
            make_net=_relu100_net,
            epsilon=0.3,
            pool=2048,
            trace_instances=8,
        ),
    )
}


def make_inputs(workload: Workload, seed: int):
    """Build the workload's network and its seed-determined instances.

    The network's lazily computed fingerprint is filled here, since every
    search needs it before its first query.
    """
    import provex.fixtures

    net = workload.make_net()
    net.fingerprint
    instances = provex.fixtures.uniform_instances(net, workload.pool, seed=seed)
    return net, instances
