"""Interior verdicts do not page-fault a trimmed heap back in.

The probes free their 256 KiB block arrays between blocks.  Under
glibc's starting thresholds the freed heap top is returned to the
system and the next block faults it back in: 10^4 to 5*10^4 minor
faults per verdict.  The first probe block frees one untouched 4 MiB
array, which makes glibc's dynamic rule raise its mmap and trim
thresholds, so after a warm-up verdict each further one stays under a
small fault budget.  Probes called without a verdict keep the heap too.
Each loop runs in a fresh interpreter, whose heap no earlier test has
shaped.
A process that states glibc's trim or mmap threshold, in the environment
or by its own mallopt call, keeps its own policy: glibc then leaves the
thresholds where they were put, and the probes fault as that policy says.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("resource")  # the loop counts faults with it
pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's dynamic thresholds only")

SRC = Path(__file__).resolve().parents[1] / "src"
FAULT_BUDGET = 2000  # minor faults per verdict after warm-up
PROBE_FAULT_BUDGET = 200  # minor faults per condition B and bound II pair after warm-up

LOOP = """
import json, resource
from deltasa import PowerLogGrid, ScaledInverseGapsAlpha, deficiency_verdict

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

out = {"faults": [], "certificates": []}
cases = [(0.7, 0.9, -0.5), (0.8, 1.3, -1.5), (0.9, 0.6, -0.5), (0.95, 1.7, -0.3)]
for k, (gamma, d1, a) in enumerate(cases):
    g = PowerLogGrid(gamma, d1=d1)
    before = faults()
    v = deficiency_verdict(g, ScaledInverseGapsAlpha(g, a))
    if k:  # the first verdict warms up
        out["faults"].append(faults() - before)
        out["certificates"].append(v.certificate)
print(json.dumps(out))
"""

# the probes on their own, with no verdict to prime the heap first
PROBE_LOOP = """
import json, resource
from deltasa import PowerLogGrid, ScaledInverseGapsAlpha, check_condition_B, test_bound_II

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

out = {"faults": []}
for k, gamma in enumerate((0.7, 0.8, 0.9, 0.95)):
    g = PowerLogGrid(gamma)
    alpha = ScaledInverseGapsAlpha(g, -0.5)
    before = faults()
    check_condition_B(g, 10**6)
    test_bound_II(g, alpha, N=10**5)
    if k:  # the first pair warms up
        out["faults"].append(faults() - before)
print(json.dumps(out))
"""

# an application that sets its own trim threshold before it imports deltasa
APP_MALLOPT = """
import ctypes
M_TRIM_THRESHOLD = -1
assert ctypes.CDLL(None).mallopt(M_TRIM_THRESHOLD, 128 << 10)
"""

MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")


def run_child(code, **malloc_env):
    """Run code in a fresh interpreter whose malloc environment is malloc_env alone."""
    env = {k: v for k, v in os.environ.items() if k not in MALLOC_ENV}
    env.update(malloc_env, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_interior_verdicts_stay_under_fault_budget():
    out = run_child(LOOP)
    assert out["certificates"] == ["periodic-comparison"] * 3
    assert max(out["faults"]) < FAULT_BUDGET, out["faults"]


def test_probes_without_a_verdict_stay_under_fault_budget():
    out = run_child(PROBE_LOOP)
    assert max(out["faults"]) < PROBE_FAULT_BUDGET, out["faults"]


@pytest.mark.parametrize(
    "preamble, malloc_env, stated",
    [
        ("", {"MALLOC_TRIM_THRESHOLD_": "131072"}, True),
        ("", {"MALLOC_MMAP_THRESHOLD_": "1048576"}, True),
        ("", {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}, True),
        ("", {"GLIBC_TUNABLES": "glibc.malloc.tcache_count=7:glibc.malloc.mmap_threshold=1048576"}, True),
        ("", {"GLIBC_TUNABLES": "glibc.malloc.tcache_count=7"}, False),
        (APP_MALLOPT, {}, True),
    ],
    ids=["trim-env", "mmap-env", "trim-tunable", "mmap-tunable", "other-tunable", "app-mallopt"],
)
def test_malloc_policy_stated_in_environment_is_left_alone(preamble, malloc_env, stated):
    """A stated 128 KiB trim or 1 MiB mmap threshold stands, so the probe blocks fault; an unrelated tunable does not."""
    faults = run_child(preamble + PROBE_LOOP, **malloc_env)["faults"]
    if stated:
        assert min(faults) > PROBE_FAULT_BUDGET, faults
    else:
        assert max(faults) < PROBE_FAULT_BUDGET, faults
