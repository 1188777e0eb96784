"""Import the gasnetsim package from this checkout's ``src/`` directory.

On Python 3.11 and later the package fails at import time: ``TimeProfile``
defines ``__eq__`` without ``__hash__``, so a ``Constant`` instance is
rejected as a dataclass field default ("mutable default ... use
default_factory").  When, and only when, that exact error appears, the
loader imports ``gasnetsim.profiles`` without running the package
``__init__``, gives ``TimeProfile`` a hash consistent with its ``__eq__``,
and then runs the package ``__init__``.  Numerics are untouched.  Once the
package imports on its own the workaround is never applied.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "gasnetsim"


class PackageMissing(RuntimeError):
    """The checkout holds no ``src/gasnetsim`` package to benchmark."""


def _forget_package():
    for name in [m for m in sys.modules
                 if m == "gasnetsim" or m.startswith("gasnetsim.")]:
        del sys.modules[name]


def _profile_hash(self):
    return hash(json.dumps(self.to_config(), sort_keys=True))


def load_package():
    """Return ``(gasnetsim, b1_workaround_applied)``."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise PackageMissing(f"no gasnetsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("gasnetsim")
        applied = False
    except ValueError as exc:
        if "mutable default" not in str(exc):
            raise
        _forget_package()
        spec = importlib.util.spec_from_file_location(
            "gasnetsim", PACKAGE_DIR / "__init__.py",
            submodule_search_locations=[str(PACKAGE_DIR)])
        pkg = importlib.util.module_from_spec(spec)
        sys.modules["gasnetsim"] = pkg
        profiles = importlib.import_module("gasnetsim.profiles")
        profiles.TimeProfile.__hash__ = _profile_hash
        spec.loader.exec_module(pkg)
        applied = True
    if Path(pkg.__file__).resolve().parent != PACKAGE_DIR:
        raise PackageMissing(f"gasnetsim imported from {pkg.__file__}, "
                             f"not from {PACKAGE_DIR}")
    # the package __init__ leaves some of the driven layers unimported
    for sub in ("config", "steady", "network", "pipe", "eos", "profiles",
                "experiments", "output", "errors"):
        importlib.import_module(f"gasnetsim.{sub}")
    return pkg, applied
