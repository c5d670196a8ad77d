import sys
from pathlib import Path

# The benchmark's modules import each other as top-level names, the way
# `python3 bench/run.py` puts bench/ first on sys.path.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
