"""Run every job of tests/test_reference_path.py with the engine's kernel
and with the dense reference kernel; exit 1 if any output differs.
Usage: python3 scripts/check_reference_path.py"""
import os
import sys

sys.path[:0] = [os.path.join(os.path.dirname(__file__), "..", d) for d in ("src", "tests")]
from test_reference_path import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
