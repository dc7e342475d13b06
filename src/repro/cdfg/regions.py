"""Hierarchical region tree over the flat CDFG.

Regions give the flat graph a structured execution semantics:

* ``BlockRegion`` — a sequence of items; each item is either an ordered
  group of dataflow nodes or a nested region.
* ``IfRegion`` — a two-armed conditional with the merge (Sel) nodes that
  reconcile variables assigned in the arms.
* ``LoopRegion`` — a test-first loop: the test block is (re)evaluated before
  every iteration, the body block runs while the condition holds, and the
  Elp node marks loop termination.  ``carried`` lists the loop-carried
  variables with their first-iteration sources.

The interpreter executes the region tree; the schedulers turn it into a
state transition graph.  Both consult the flat edges for data dependencies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class RegionKind(enum.Enum):
    BLOCK = "block"
    IF = "if"
    LOOP = "loop"


@dataclass
class Region:
    id: int
    kind: RegionKind
    parent: int | None = None


#: A block item: either an ordered list of node ids (straight-line dataflow)
#: or the id of a nested region.
@dataclass
class OpsItem:
    nodes: list[int] = field(default_factory=list)


@dataclass
class SubRegionItem:
    region: int = 0


BlockItem = OpsItem | SubRegionItem


@dataclass
class BlockRegion(Region):
    items: list[BlockItem] = field(default_factory=list)

    def append_node(self, node_id: int) -> None:
        """Add a dataflow node, extending the trailing ops item if present."""
        if self.items and isinstance(self.items[-1], OpsItem):
            self.items[-1].nodes.append(node_id)
        else:
            self.items.append(OpsItem([node_id]))

    def append_region(self, region_id: int) -> None:
        self.items.append(SubRegionItem(region_id))


@dataclass
class IfRegion(Region):
    cond_node: int = -1
    then_block: int = -1
    else_block: int = -1
    sel_nodes: list[int] = field(default_factory=list)


@dataclass
class CarriedVar:
    """A loop-carried variable.

    ``body_producer`` is the node whose output is the variable's value at
    the end of an iteration; on the first test/iteration the value comes
    from ``init_const`` or ``init_src`` instead.  When the initial value is
    itself carried by an *enclosing* loop, ``init_carried_from`` names that
    loop — schedulers must then not treat the init source as an
    intra-iteration dependency.
    """

    var: str
    body_producer: int
    init_const: int | None = None
    init_src: int | None = None
    init_carried_from: int | None = None

    def __post_init__(self) -> None:
        if (self.init_const is None) == (self.init_src is None):
            raise ValueError(f"carried var {self.var!r} needs exactly one init source")


@dataclass
class LoopRegion(Region):
    test_block: int = -1
    body_block: int = -1
    cond_node: int = -1
    elp_nodes: list[int] = field(default_factory=list)
    carried: list[CarriedVar] = field(default_factory=list)
    loop_kind: str = "while"  # "for" or "while" (diagnostic only)
