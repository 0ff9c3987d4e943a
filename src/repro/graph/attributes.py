"""Typed vertex and edge attribute tables.

The paper notes that vertices and edges "can further be typed,
classified, or assigned attributes based on relational information"
(§1).  Attributes live *outside* the CSR arrays so kernels stay purely
numeric; an :class:`AttributeTable` is a columnar store keyed by vertex
or edge id.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

import numpy as np

from repro.errors import GraphStructureError


class AttributeTable:
    """Columnar attribute storage for ``size`` entities.

    Columns are NumPy arrays (numeric/bool) or Python lists (objects).
    """

    def __init__(self, size: int) -> None:
        if size < 0:
            raise GraphStructureError("size must be non-negative")
        self._size = int(size)
        self._columns: dict[str, Any] = {}

    def __len__(self) -> int:
        return self._size

    def add_column(
        self, name: str, values: Optional[Iterable[Any]] = None, *, fill: Any = None
    ) -> None:
        """Create a column, either from ``values`` or filled with ``fill``."""
        if name in self._columns:
            raise GraphStructureError(f"column {name!r} already exists")
        if values is not None:
            arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
            if arr.shape[0] != self._size:
                raise GraphStructureError(
                    f"column {name!r} has {arr.shape[0]} values, expected {self._size}"
                )
            if arr.dtype == object:
                self._columns[name] = list(arr)
            else:
                self._columns[name] = arr.copy()
        elif isinstance(fill, (int, float, bool, np.number)):
            self._columns[name] = np.full(self._size, fill)
        else:
            self._columns[name] = [fill] * self._size

    def drop_column(self, name: str) -> None:
        try:
            del self._columns[name]
        except KeyError:
            raise GraphStructureError(f"no column {name!r}") from None

    def column(self, name: str):
        """The raw column (array or list)."""
        try:
            return self._columns[name]
        except KeyError:
            raise GraphStructureError(f"no column {name!r}") from None

    def get(self, name: str, index: int) -> Any:
        col = self.column(name)
        if not 0 <= index < self._size:
            raise GraphStructureError(f"index {index} out of range [0, {self._size})")
        return col[index]

    def set(self, name: str, index: int, value: Any) -> None:
        col = self.column(name)
        if not 0 <= index < self._size:
            raise GraphStructureError(f"index {index} out of range [0, {self._size})")
        col[index] = value

    def select(self, name: str, mask: np.ndarray) -> list[Any] | np.ndarray:
        """Values of ``name`` where ``mask`` is true."""
        col = self.column(name)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self._size:
            raise GraphStructureError("mask length mismatch")
        if isinstance(col, np.ndarray):
            return col[mask]
        return [col[i] for i in np.nonzero(mask)[0]]

    def as_dict(self, index: int) -> dict[str, Any]:
        """All attributes of one entity."""
        return {name: self.get(name, index) for name in self._columns}


class AttributedGraph:
    """A CSR graph paired with vertex and edge attribute tables."""

    def __init__(self, graph, vertex_attrs: Optional[Mapping[str, Iterable]] = None,
                 edge_attrs: Optional[Mapping[str, Iterable]] = None) -> None:
        self.graph = graph
        self.vertex_attributes = AttributeTable(graph.n_vertices)
        self.edge_attributes = AttributeTable(graph.n_edges)
        for name, vals in (vertex_attrs or {}).items():
            self.vertex_attributes.add_column(name, vals)
        for name, vals in (edge_attrs or {}).items():
            self.edge_attributes.add_column(name, vals)

    def vertices_where(self, name: str, value: Any) -> np.ndarray:
        """Vertex ids whose attribute ``name`` equals ``value``."""
        col = self.vertex_attributes.column(name)
        if isinstance(col, np.ndarray):
            return np.nonzero(col == value)[0]
        return np.asarray([i for i, x in enumerate(col) if x == value], dtype=np.int64)
