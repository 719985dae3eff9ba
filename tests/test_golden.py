"""The command-line outputs equal the digests pinned in ``golden.sha256``
(see ``golden.py``), which run in a fresh interpreter, as the CLI does."""
import subprocess
import sys
from pathlib import Path


def test_outputs_match_pinned_digests():
    golden = Path(__file__).with_name("golden.py")
    result = subprocess.run([sys.executable, str(golden)], capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
