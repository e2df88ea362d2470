"""Report bytes do not depend on the interpreter's string-hash seed.

Images of degree at most 256 are bytes, whose hashes follow the seed, so
the iteration order of every set of elements does too; these digests guard
the generator strings the reports print (``hall_generators``, the lattice's
generators in ``case2_witness``) against any dependence on that order.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import SLICES

TESTS = Path(__file__).parent


@pytest.mark.parametrize("slice_name", ["main-complement-cap", "quotient-structure", "all"])
def test_golden_slice_under_another_hash_seed(slice_name):
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    script = f"import sys, test_golden; sys.stdout.write(test_golden.render({slice_name!r}))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         check=True, timeout=600).stdout
    assert hashlib.sha256(out).hexdigest() == SLICES[slice_name][4]
