"""Swap the program's public functions for timing wrappers, and back.

``from x import f`` binds ``f`` into every importing module, and the
pipeline keeps compilers in module-level dicts, so replacing a function in
its defining module alone would miss most call sites.  :class:`Patcher`
therefore replaces every reference it can reach -- module globals and the
values of module-level dicts across all ``repro`` modules -- and records
each replacement so :meth:`Patcher.restore` puts every original back.

Every ``repro`` module is imported before the first swap
(:func:`import_all`): a module first imported while a wrapper is
installed would bind the wrapper for good.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys

#: marks a wrapper; holds the wrapped original
WRAPPED = "__perfbench_wrapped__"

PACKAGE = "repro"


def import_all(package: str = PACKAGE) -> None:
    """Import every submodule of ``package`` (entry-point ``__main__``
    modules excluded: importing them runs their CLI)."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            importlib.import_module(info.name)


def _modules(package: str = PACKAGE):
    prefix = package + "."
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == package or name.startswith(prefix))]


class Patcher:
    """Installs wrappers and undoes every installation it made."""

    def __init__(self, package: str = PACKAGE) -> None:
        self.package = package
        self._undo: list[tuple[object, str, object, bool]] = []

    def function(self, module_name: str, attr: str, make_wrapper) -> None:
        """Wrap the function ``module_name.attr`` wherever it is bound."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = make_wrapper(original)
        setattr(wrapper, WRAPPED, original)
        for module in _modules(self.package):
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._swap(namespace, key, wrapper, mapping=True)
                elif type(value) is dict:
                    for inner, item in list(value.items()):
                        if item is original:
                            self._swap(value, inner, wrapper, mapping=True)

    def method(self, module_name: str, class_name: str, attr: str,
               make_wrapper) -> None:
        """Wrap ``class_name.attr`` on the class itself."""
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[attr]
        wrapper = make_wrapper(original)
        setattr(wrapper, WRAPPED, original)
        self._swap(cls, attr, wrapper, mapping=False)

    def _swap(self, container, key, value, mapping: bool) -> None:
        if mapping:
            self._undo.append((container, key, container[key], True))
            container[key] = value
        else:
            self._undo.append((container, key, container.__dict__[key], False))
            setattr(container, key, value)

    def restore(self) -> None:
        """Put back every original, newest swap first."""
        while self._undo:
            container, key, original, mapping = self._undo.pop()
            if mapping:
                container[key] = original
            else:
                setattr(container, key, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def leftover_wrappers(package: str = PACKAGE) -> list[str]:
    """Every place a wrapper is still reachable (empty after restore)."""
    found = []
    for module in _modules(package):
        for key, value in list(vars(module).items()):
            if hasattr(value, WRAPPED):
                found.append(f"{module.__name__}.{key}")
            elif type(value) is dict:
                found.extend(f"{module.__name__}.{key}[{inner!r}]"
                             for inner, item in list(value.items())
                             if hasattr(item, WRAPPED))
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(f"{module.__name__}.{key}.{attr}"
                             for attr, item in list(vars(value).items())
                             if hasattr(item, WRAPPED))
    return found
