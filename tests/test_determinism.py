"""Report bytes do not depend on the interpreter's string-hash seed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from test_golden import SLICES

TESTS = Path(__file__).parent
SLICE = "main-complement-cap"


def test_golden_slice_under_another_hash_seed():
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    script = f"import sys, test_golden; sys.stdout.write(test_golden.render({SLICE!r}))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         check=True, timeout=300).stdout
    assert hashlib.sha256(out).hexdigest() == SLICES[SLICE][4]
