import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

# Runs in a fresh interpreter: imports every arabmorph module and prints
# the top-level names of the modules those imports added.
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import arabmorph
for info in pkgutil.iter_modules(arabmorph.__path__):
    importlib.import_module("arabmorph." + info.name)
print(json.dumps(sorted({name.partition(".")[0]
                         for name in set(sys.modules) - before})))
"""


def test_runtime_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    imported = json.loads(result.stdout)
    assert "arabmorph" in imported
    assert [name for name in imported if name != "arabmorph"
            and name not in sys.stdlib_module_names] == []
