"""Every name a motionq module exports resolves, so a stale export fails here."""

import importlib
import pkgutil

import motionq

MODULES = [info.name for info in pkgutil.iter_modules(motionq.__path__)]


def test_every_module_is_found():
    assert {"numkit", "scene", "model", "objectives", "trainer"} <= set(MODULES)


def test_every_exported_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"motionq.{name}")
        exported = getattr(module, "__all__", [])
        assert len(set(exported)) == len(exported), name
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, f"motionq.{name}.__all__ names missing attributes {missing}"


def test_star_import():
    namespace = {}
    exec("from motionq import *", namespace)
    assert "MotionModel" in namespace and "TrainConfig" in namespace
    for name in MODULES:
        namespace = {}
        exec(f"from motionq.{name} import *", namespace)
