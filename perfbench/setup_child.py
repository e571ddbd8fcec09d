"""Time a fresh-process ``import centerstring`` plus parsing instance texts.

Usage: python3 setup_child.py SRC_DIR < texts   (one JSON instance per line)
Prints the seconds from just before the import to the last parsed instance.
"""

import sys
import time

texts = sys.stdin.read().splitlines()
src = sys.argv[1]
sys.path.insert(0, src)
start = time.perf_counter()
import centerstring  # noqa: E402
from centerstring.io_cli import InstanceFile  # noqa: E402

for text in texts:
    InstanceFile.parse_json(text).to_instance()
elapsed = time.perf_counter() - start
if not centerstring.__file__.startswith(src):
    sys.exit(f"imported centerstring from {centerstring.__file__}, not from {src}")
print(repr(elapsed))
