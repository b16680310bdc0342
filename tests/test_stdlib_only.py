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


# Runs in a fresh interpreter: analyzes the toy corpus through the CLI and
# prints the modules it added.  pathlib is loaded first, since it brings
# urllib.parse with it wherever the package is installed.
ANALYZE_PROBE = """
import json, pathlib, sys
before = set(sys.modules)
import arabmorph.cli
arabmorph.cli.main(["analyze", sys.argv[1], "--flags", "all"])
print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
"""

# Packages that no step of a one-file analyze uses: xml.sax.saxutils
# would bring urllib.request, http, email, ssl and socket with it, and
# XML is parsed only by correct, eval and import --tei.
UNUSED_BY_ANALYZE = ("urllib", "http", "email", "ssl", "socket", "xml.sax",
                     "xml.etree")


def test_analyze_imports_no_network_or_xml_parsing_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", ANALYZE_PROBE,
         str(SRC.parent / "tests" / "data" / "toy_corpus.txt")],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    added = json.loads(result.stderr.splitlines()[-1])
    assert "arabmorph.teixml" in added
    assert [name for name in added
            if name.startswith(tuple(p + "." for p in UNUSED_BY_ANALYZE))
            or name in UNUSED_BY_ANALYZE] == []
