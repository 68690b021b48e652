"""A minimal IBM Watson Studio stand-in.

§4: "IBM Cloud contains a service called IBM Watson Studio that, among
other things, allows to create and execute notebooks in the cloud, where
IBM-PyWren can be very easily imported to run embarrassingly parallel
jobs."  §6.4's sequential baseline ran on such a notebook (a 4 vCPU /
16 GB VM).

We model the two things the paper uses:

* a **notebook**: an ordered list of cells executed sequentially in a
  shared namespace, each cell timed on the virtual clock, with
  IBM-PyWren available (the notebook runs inside the cloud environment);
* the **VM it runs on**: a fixed hardware configuration used by cost
  models of sequential (non-serverless) compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import vtime
from repro.core import context as ambient


@dataclass
class VMConfig:
    """The notebook VM's hardware (paper: '4vCPU with 16GB of RAM')."""

    vcpus: int = 4
    memory_gb: int = 16


@dataclass
class Cell:
    """One executed notebook cell."""

    index: int
    label: str
    output: Any = None
    error: Optional[str] = None
    started: float = 0.0
    finished: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished - self.started

    @property
    def ok(self) -> bool:
        return self.error is None


class Notebook:
    """A sequentially-executed notebook bound to a cloud environment.

    Cells are Python callables taking the shared namespace dict.  Create
    via :meth:`WatsonStudio.create_notebook`; execute inside ``env.run``
    (or let :meth:`run` wrap the environment when called from outside).
    """

    def __init__(self, environment, name: str, vm: Optional[VMConfig] = None) -> None:
        self.environment = environment
        self.name = name
        self.vm = vm or VMConfig()
        self.namespace: dict[str, Any] = {}
        self._pending: list[tuple[str, Callable[[dict[str, Any]], Any]]] = []
        self.cells: list[Cell] = []

    def add_cell(
        self, fn: Callable[[dict[str, Any]], Any], label: Optional[str] = None
    ) -> "Notebook":
        """Append a cell; returns self for chaining."""
        self._pending.append((label or fn.__name__, fn))
        return self

    def run(self) -> list[Cell]:
        """Execute all pending cells in order; stops at the first error.

        Callable from inside ``env.run`` (ambient environment present) or
        from the outside, in which case it drives the environment itself.
        """
        if ambient.current_context() is not None:
            return self._run_cells()
        return self.environment.run(self._run_cells)

    def _run_cells(self) -> list[Cell]:
        while self._pending:
            label, fn = self._pending.pop(0)
            cell = Cell(index=len(self.cells), label=label, started=vtime.now())
            try:
                cell.output = fn(self.namespace)
            except Exception as exc:  # noqa: BLE001 - notebook surfaces errors
                cell.error = repr(exc)
            cell.finished = vtime.now()
            self.cells.append(cell)
            if cell.error is not None:
                break
        return list(self.cells)

    def report(self) -> str:
        """nbconvert-style plain-text summary of the executed cells."""
        lines = [f"Notebook: {self.name}  (VM: {self.vm.vcpus} vCPU, "
                 f"{self.vm.memory_gb} GB RAM)"]
        for cell in self.cells:
            status = "ok" if cell.ok else f"ERROR {cell.error}"
            lines.append(
                f"  [{cell.index}] {cell.label:<24} {cell.duration:9.1f}s  {status}"
            )
        total = sum(c.duration for c in self.cells)
        lines.append(f"  total: {total:.1f}s over {len(self.cells)} cells")
        return "\n".join(lines)


class WatsonStudio:
    """The notebook service facade."""

    def __init__(self, environment) -> None:
        self.environment = environment
        self._notebooks: dict[str, Notebook] = {}

    def create_notebook(
        self, name: str, vcpus: int = 4, memory_gb: int = 16
    ) -> Notebook:
        if name in self._notebooks:
            raise ValueError(f"notebook {name!r} already exists")
        notebook = Notebook(
            self.environment, name, VMConfig(vcpus=vcpus, memory_gb=memory_gb)
        )
        self._notebooks[name] = notebook
        return notebook
