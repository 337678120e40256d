"""Every seam the repository benchmark times still resolves.

``perfbench/seams.py`` names its layer boundaries -- engine dispatch,
MAC, type bus, control-law ``step``s, ``VectorPlantKernel.step`` and
``macro_step``, the psychrometric functions, ... -- by module and
attribute.  A renamed or deleted target makes ``install`` raise
``AttributeError`` in every traced benchmark run, and a target held
where ``install`` cannot rebind it (a default argument, a closure cell,
a module-level container) silently under-counts its seam.  This test
imports every ``repro`` module, installs the wrappers, requires that
no original is left unobserved, and requires that ``restore`` puts
every original back.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import repro

SEAMS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "seams.py"


def _load_seams():
    spec = importlib.util.spec_from_file_location("perfbench_seams",
                                                  SEAMS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import_every_repro_module() -> None:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rpartition(".")[2] != "__main__":
            importlib.import_module(info.name)


def _wrapped_attributes(seams) -> list:
    """Module globals and class attributes that still hold a wrapper."""
    found = []
    for mod_name, module in seams._repro_modules():
        for name, value in vars(module).items():
            if hasattr(value, "__seam__"):
                found.append(f"{mod_name}.{name}")
            elif isinstance(value, type):
                found += [f"{mod_name}.{name}.{attr}"
                          for attr, member in vars(value).items()
                          if hasattr(member, "__seam__")]
    return found


def test_every_seam_resolves_is_observed_and_restores():
    seams = _load_seams()
    _import_every_repro_module()
    handle = seams.install(seams.Ledger())
    try:
        assert handle.unobserved() == []
        assert _wrapped_attributes(seams)
    finally:
        handle.restore()
    assert _wrapped_attributes(seams) == []
