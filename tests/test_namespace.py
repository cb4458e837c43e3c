"""The package namespace: `import deformq` defines no name and loads no
submodule, checked in fresh interpreters so nothing is imported beforehand."""

import os
import subprocess
import sys
from pathlib import Path

import deformq

SRC = str(Path(deformq.__file__).resolve().parents[1])


def _python(code_text):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code_text],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_submodule():
    out = _python(
        "import sys, deformq\n"
        "print(sorted(m for m in sys.modules if m.startswith('deformq')))\n"
    )
    assert out == "['deformq']\n"


def test_importing_the_package_defines_no_public_name():
    # each name is imported from its module, never from the package
    out = _python(
        "import deformq\n"
        "print(sorted(n for n in vars(deformq) if not n.startswith('_')))\n"
    )
    assert out == "[]\n"


def test_unknown_name_is_an_import_error():
    out = _python(
        "try:\n"
        "    from deformq import no_such_name\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    assert out == "ImportError\n"
