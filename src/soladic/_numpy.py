"""numpy, imported on first attribute access.

The exact commands (``classify``, ``check``, ``solve-coeffs`` and
``counterexample``) never touch numpy, so the modules that use it take
``np`` from here and those commands start without paying numpy's import.

None of those modules may write ``import numpy``: the import statement
reads the module's ``__spec__`` from ``sys.modules``, which loads a lazy
module at once.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
