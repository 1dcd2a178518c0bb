"""Modules: the unit of compilation (functions + global data)."""

from __future__ import annotations

from dataclasses import dataclass, field

from .function import Function


@dataclass
class GlobalData:
    """A module-level word array.

    ``size`` is in 32-bit words; ``init`` (if given) provides initial word
    values, zero-padded to ``size``.  Globals are laid out by the simulator's
    loader, which assigns each a base address.
    """

    name: str
    size: int
    init: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"global {self.name!r} must have positive size")
        if len(self.init) > self.size:
            raise ValueError(f"global {self.name!r} initializer exceeds size")

    def clone(self) -> "GlobalData":
        """A copy with its own ``init`` list."""
        return GlobalData(self.name, self.size, self.init.copy())

    def words(self) -> list[int]:
        """Initial contents, zero-padded to ``size``."""
        return self.init + [0] * (self.size - len(self.init))


class Module:
    """A compilation unit: named functions plus global arrays."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalData] = {}

    def clone(self) -> "Module":
        """A private copy that shares nothing mutable with this module:
        every function and global is cloned.  Op uids are kept, so a
        :class:`~repro.analysis.profile.Profile` of this module (keyed by
        function and uid) holds for the clone.  DESIGN.md §5e."""
        module = Module(self.name)
        module.functions = {name: func.clone()
                            for name, func in self.functions.items()}
        module.globals = {name: data.clone()
                          for name, data in self.globals.items()}
        return module

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def add_global(self, name: str, size: int, init: list[int] | None = None) -> GlobalData:
        if name in self.globals:
            raise ValueError(f"duplicate global {name!r}")
        data = GlobalData(name, size, list(init or []))
        self.globals[name] = data
        return data

    def function(self, name: str) -> Function:
        return self.functions[name]

    def op_count(self) -> int:
        """Total static operation count across all functions."""
        return sum(func.op_count() for func in self.functions.values())

    def __repr__(self) -> str:
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals, {self.op_count()} ops>"
        )
