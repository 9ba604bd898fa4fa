"""What perfbench relies on. One round of each workload, end to end: the
benchmark still drives the package through the functions it binds, and
every step it runs is correct; its full report goes to the git-ignored
`perfbench/out/`. Each workload prices the network the CLI builds, and
the package imports no scipy, whose import alone would raise
`peak_rss_mb` by about 22 MB."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import sparsnn
from sparsnn.bench import ARCH_PRESETS, network_spec_for

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["shd-sparse-capped", "shd-sparse-live", "shd-dense-live"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_is_correct(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stdout
    assert result["failed"] == 0


@pytest.fixture(scope="module")
def perfbench_run():
    """`perfbench/run.py` as a module; the BLAS variables it sets and the
    import path it needs are put back afterwards."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        with mock.patch.dict(os.environ), \
                mock.patch.object(sys, "path", [str(ROOT / "perfbench"), *sys.path]):
            spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prices_the_cli_network(perfbench_run, workload):
    run = perfbench_run
    load = run.WORKLOADS[workload]
    got = run.Run(sparsnn, load, seed=1, trace=False).spec
    want = network_spec_for(ARCH_PRESETS["shd-2944"], load.max_activity, run.BATCH, run.TIMESTEPS)
    assert got == want


def test_package_imports_no_scipy():
    # In a fresh interpreter: every module of the package, and nothing of scipy.
    code = (
        "import pkgutil, sys, sparsnn\n"
        "for m in pkgutil.iter_modules(sparsnn.__path__):\n"
        "    __import__('sparsnn.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
