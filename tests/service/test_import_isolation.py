"""A backend process loads only what it serves.

Parsing an inline-pixel job must not drag the benchmark, cluster or
gateway packages into a ``repro serve`` process — the engine builds the
request, not ``repro.bench``.  Runs in a child interpreter because the
test session itself has imported all of them.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

CHILD = """
import sys
import numpy as np
import repro.service.server
from repro.imaging.image import Image
from repro.service.protocol import pixels_job, request_from_wire

request = request_from_wire(pixels_job(Image(np.zeros((24, 24))), iterations=10))
assert request.spec.width == 24
print("\\n".join(sorted(
    name for name in sys.modules
    if name.startswith(("repro.bench", "repro.cluster", "repro.gateway"))
)))
"""


def test_pixels_job_loads_no_cluster_gateway_or_bench_module():
    src = str(Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
