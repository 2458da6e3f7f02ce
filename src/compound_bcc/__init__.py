"""Numerical laboratory for secrecy rates on compound broadcast channels.

Two transmission models are implemented end to end:

* a constant compound model, where each user's channel is an unknown
  member of a finite set of matrices and confidential streams ride on
  beams in the null space of every state of the other user;
* a block-fading ergodic model with finite state alphabets, per-block
  zero-forcing, and variable-rate secrecy accounting.

Both come with exact rational degrees-of-freedom regions (``theory``) and
slope-based numerical verification.

``import compound_bcc`` loads only the shared base: ``errors`` and
``linalg`` (and so numpy). Every other public name loads on first access
(PEP 562): the lazy modules are imported in the order of ``_LAZY``, each
after the modules it imports, up to the one whose ``__all__`` holds the
name. Each module's ``__all__`` is the one list of its exports.
"""

import importlib

from .errors import *
from .linalg import *

__version__ = "0.1.0"

_EAGER = ("errors", "linalg")
_LAZY = ("sdof", "regions", "theory", "channel", "gaussian", "ergodic")


def _exports():
    """Every exported name, in module order; imports every lazy module."""
    return [
        name
        for module in _EAGER + _LAZY
        for name in importlib.import_module(f"{__name__}.{module}").__all__
    ]


def __getattr__(name):
    if name == "__all__":  # for ``from compound_bcc import *``
        return _exports()
    if name in _LAZY or name == "cli":  # ``from compound_bcc import cli`` asks first
        return importlib.import_module(f"{__name__}.{name}")
    if not name.startswith("_"):
        for module in _LAZY:
            mod = importlib.import_module(f"{__name__}.{module}")
            if name in mod.__all__:
                value = globals()[name] = getattr(mod, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*_exports(), "__version__"])
