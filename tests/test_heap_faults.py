"""Interior verdicts do not page-fault a trimmed heap back in.

The probes free their 256 KiB block arrays between blocks.  Under
glibc's default dynamic thresholds the freed heap top is returned to
the system and the next block faults it back in: 10^4 to 5*10^4 minor
faults per verdict.  keep_heap() turns that off, so after a warm-up
verdict each further one stays under a small fault budget.  The first
probe block sets that policy, so probes called without a verdict keep
the heap too.  Each loop runs in a fresh interpreter, whose heap no
earlier test has shaped.
A process whose environment sets glibc's trim or mmap threshold keeps
its own policy: keep_heap() then leaves the allocator alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("resource")  # the loop counts faults with it

SRC = Path(__file__).resolve().parents[1] / "src"
FAULT_BUDGET = 2000  # minor faults per verdict after warm-up
PROBE_FAULT_BUDGET = 200  # minor faults per condition B and bound II pair after warm-up

LOOP = """
import json, resource
from deltasa import PowerLogGrid, ScaledInverseGapsAlpha, deficiency_verdict
from deltasa.numerics import keep_heap

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

out = {"kept": keep_heap(), "faults": [], "certificates": []}
if out["kept"]:
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

# the probes on their own, with no verdict to set the policy first
PROBE_LOOP = """
import json, resource
from deltasa import PowerLogGrid, ScaledInverseGapsAlpha, check_condition_B, select_G, test_bound_II
from deltasa.numerics import keep_heap

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

out = {"faults": []}
for k, gamma in enumerate((0.7, 0.8, 0.9, 0.95)):
    g = PowerLogGrid(gamma)
    alpha = ScaledInverseGapsAlpha(g, -0.5)
    before = faults()
    check_condition_B(g, 10**6)
    test_bound_II(g, alpha, select_G(g), N=10**5)
    if k:  # the first pair warms up
        out["faults"].append(faults() - before)
out["kept"] = keep_heap()
print(json.dumps(out))
"""


MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")

PROBE = """
import ctypes, json
from deltasa.numerics import keep_heap
try:
    libc = ctypes.CDLL(None)
    glibc = hasattr(libc, "mallopt") and hasattr(libc, "gnu_get_libc_version")
except OSError:
    glibc = False
print(json.dumps({"kept": keep_heap(), "glibc": glibc}))
"""


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
    if not out["kept"]:
        pytest.skip("no glibc mallopt in this process")
    assert out["certificates"] == ["periodic-comparison"] * 3
    assert max(out["faults"]) < FAULT_BUDGET, out["faults"]


def test_probes_without_a_verdict_stay_under_fault_budget():
    out = run_child(PROBE_LOOP)
    if not out["kept"]:
        pytest.skip("no glibc mallopt in this process")
    assert max(out["faults"]) < PROBE_FAULT_BUDGET, out["faults"]


@pytest.mark.parametrize(
    "malloc_env, kept",
    [
        ({"MALLOC_TRIM_THRESHOLD_": "131072"}, False),
        ({"MALLOC_MMAP_THRESHOLD_": "1048576"}, False),
        ({"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}, False),
        ({"GLIBC_TUNABLES": "glibc.malloc.tcache_count=7:glibc.malloc.mmap_threshold=1048576"}, False),
        ({"GLIBC_TUNABLES": "glibc.malloc.tcache_count=7"}, True),
    ],
    ids=["trim-env", "mmap-env", "trim-tunable", "mmap-tunable", "other-tunable"],
)
def test_malloc_policy_stated_in_environment_is_left_alone(malloc_env, kept):
    out = run_child(PROBE, **malloc_env)
    if not out["glibc"]:
        pytest.skip("no glibc mallopt in this process")
    assert out["kept"] is kept
