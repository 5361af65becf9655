"""Run these tests with `python3 -m pytest perfbench`: they import the
benchmark's modules and the checkout's strategem sources."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import program  # noqa: E402

program.load()
