"""The built package holds every file the package reads at import.

``build_py`` writes ``scmbench.egg-info`` beside the sources it builds,
so the test builds a copy of the project in a temporary directory and
never the checkout itself.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_build_py_ships_the_kernel_source(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns(".kernels", "__pycache__",
                                                  "*.egg-info"))
    done = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "build_py", "--build-lib", "build/lib"],
        cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    built = tmp_path / "build" / "lib" / "scmbench"
    assert (built / "core.py").is_file()
    # core._load_kernels reads the source next to core.py to key and build
    # its library, so an installed copy without it fails at import
    assert (built / "_kernels.c").read_bytes() == \
        (ROOT / "src" / "scmbench" / "_kernels.c").read_bytes()
