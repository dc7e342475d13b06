"""Resource binding: operation -> functional unit, variable -> register.

The binding is the mutable half of an RT-level design point: the IMPACT
moves (Section 3.2) edit it — sharing merges FU instances or registers,
splitting separates them, module substitution swaps a unit's library
module.  The initial binding is the paper's starting point: a fully
parallel architecture with each operation on its own fastest-module unit
and each variable in its own register.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BindingError
from repro.cdfg.graph import CDFG
from repro.cdfg.node import MEMORY_KINDS, OpKind
from repro.library.library import ModuleLibrary
from repro.library.memory import RamSpec, ram_access_delay, ram_spec
from repro.library.module import ModuleSpec, scale_delay


@dataclass
class FUInstance:
    """One functional-unit instance in the datapath."""

    id: int
    module: ModuleSpec
    ops: set[int] = field(default_factory=set)
    width: int = 1

    def kinds(self, cdfg: CDFG) -> frozenset[OpKind]:
        return frozenset(cdfg.node(op).kind for op in self.ops)


@dataclass
class RegInstance:
    """One register in the datapath, holding one or more variables."""

    id: int
    width: int
    carriers: set[str] = field(default_factory=set)


@dataclass
class MemInstance:
    """One RAM instance in the datapath, realizing one array.

    ``port_of`` assigns every LOAD/STORE node of the array to one of the
    RAM's access ports; the scheduler serializes accesses sharing a port,
    and the ``BindMemoryPort`` move re-balances that assignment.
    """

    name: str
    spec: RamSpec
    width: int
    depth: int
    port_of: dict[int, int] = field(default_factory=dict)

    def access_delay(self) -> float:
        return ram_access_delay(self.spec, self.width, self.depth)


def op_width(cdfg: CDFG, node_id: int) -> int:
    """Width a functional unit must have to execute a node: max of ports."""
    node = cdfg.node(node_id)
    width = node.width
    for edge in cdfg.in_edges(node_id):
        width = max(width, edge.width)
    return width


class Binding:
    """Mutable op->FU and variable->register assignment."""

    def __init__(self, cdfg: CDFG, library: ModuleLibrary):
        self.cdfg = cdfg
        self.library = library
        self.fus: dict[int, FUInstance] = {}
        self.op_to_fu: dict[int, int] = {}
        self.regs: dict[int, RegInstance] = {}
        self.carrier_to_reg: dict[str, int] = {}
        self.mems: dict[str, MemInstance] = {}
        self._next_fu = 0
        self._next_reg = 0
        # Lazily computed content signatures; every mutating method clears
        # this (all edits flow through them), so a signature is computed at
        # most once per binding state.
        self._sig_memo: dict[str, tuple] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def initial_parallel(cls, cdfg: CDFG, library: ModuleLibrary) -> "Binding":
        """The paper's initial architecture: one fastest FU per op, one
        register per variable."""
        binding = cls(cdfg, library)
        for node in cdfg.fu_nodes():
            width = op_width(cdfg, node.id)
            module = library.fastest({node.kind}, width)
            binding._add_fu(module, {node.id})
        for var, (width, _signed) in sorted(cdfg.var_types.items()):
            binding._add_reg(width, {var})
        # Arrays start on dual-port RAMs with loads spread across both
        # ports (fully parallel, like the FU side); SubstituteRam trades
        # the second port away for area/power.  Stores all take port 0 —
        # a store can never share a state with another access anyway.
        for name, (width, _signed, size) in sorted(cdfg.array_types.items()):
            spec = ram_spec("ram_2p")
            mem = MemInstance(name=name, spec=spec, width=width, depth=size)
            next_load_port = 0
            for node in cdfg.mem_nodes():
                if node.mem != name:
                    continue
                if node.kind is OpKind.LOAD:
                    mem.port_of[node.id] = next_load_port
                    next_load_port = (next_load_port + 1) % spec.ports
                else:
                    mem.port_of[node.id] = 0
            binding.mems[name] = mem
        return binding

    def _add_fu(self, module: ModuleSpec, ops: set[int]) -> FUInstance:
        self._sig_memo.clear()
        fu = FUInstance(id=self._next_fu, module=module, ops=set(ops))
        fu.width = max(op_width(self.cdfg, op) for op in ops)
        self._next_fu += 1
        self.fus[fu.id] = fu
        for op in ops:
            self.op_to_fu[op] = fu.id
        return fu

    def _add_reg(self, width: int, carriers: set[str]) -> RegInstance:
        self._sig_memo.clear()
        reg = RegInstance(id=self._next_reg, width=width, carriers=set(carriers))
        self._next_reg += 1
        self.regs[reg.id] = reg
        for carrier in carriers:
            self.carrier_to_reg[carrier] = reg.id
        return reg

    def clone(self) -> "Binding":
        other = Binding(self.cdfg, self.library)
        other._next_fu = self._next_fu
        other._next_reg = self._next_reg
        for fu in self.fus.values():
            other.fus[fu.id] = FUInstance(fu.id, fu.module, set(fu.ops), fu.width)
        other.op_to_fu = dict(self.op_to_fu)
        for reg in self.regs.values():
            other.regs[reg.id] = RegInstance(reg.id, reg.width, set(reg.carriers))
        other.carrier_to_reg = dict(self.carrier_to_reg)
        for mem in self.mems.values():
            other.mems[mem.name] = MemInstance(
                mem.name, mem.spec, mem.width, mem.depth, dict(mem.port_of))
        return other

    # -- queries -----------------------------------------------------------------

    def fu_of(self, node_id: int) -> FUInstance | None:
        fu_id = self.op_to_fu.get(node_id)
        return None if fu_id is None else self.fus[fu_id]

    def reg_of(self, carrier: str) -> RegInstance:
        try:
            return self.regs[self.carrier_to_reg[carrier]]
        except KeyError:
            raise BindingError(f"no register holds carrier {carrier!r}") from None

    def op_delay(self, node_id: int) -> float:
        """Combinational delay (ns) of one node at 5 V under this binding."""
        node = self.cdfg.node(node_id)
        if node.kind in MEMORY_KINDS:
            mem = self.mems.get(node.mem)
            if mem is None:
                raise BindingError(f"array {node.mem!r} has no RAM instance")
            return mem.access_delay()
        if not node.needs_fu:
            return 0.0
        fu = self.fu_of(node_id)
        if fu is None:
            raise BindingError(f"op {node.name} is not bound to any FU")
        return scale_delay(fu.module, fu.width)

    def delays(self) -> dict[int, float]:
        """Delay of every schedulable node (zero for transfers)."""
        return {n.id: self.op_delay(n.id) for n in self.cdfg.op_nodes()}

    def signature(self) -> tuple:
        """Content signature of the resource constraints (hashable).

        Captures everything scheduling and architecture construction read
        from the binding: the op->unit partition with module and width per
        unit, and the variable->register partition — including instance
        ids, since they key datapath ports.  Two bindings with equal
        signatures yield identical schedules, architectures and merged
        traces for the same CDFG, options and trace store; the memo tables
        in :mod:`repro.core.cache` key on it.
        """
        got = self._sig_memo.get("full")
        if got is not None:
            return got
        fus = tuple(
            (fu_id, fu.module.name, fu.width, tuple(sorted(fu.ops)))
            for fu_id, fu in sorted(self.fus.items())
        )
        regs = tuple(
            (reg_id, reg.width, tuple(sorted(reg.carriers)))
            for reg_id, reg in sorted(self.regs.items())
        )
        got = (fus, regs, self._mem_sig())
        self._sig_memo["full"] = got
        return got

    def _mem_sig(self) -> tuple:
        """Array names are stable program identifiers, so one signature
        form serves all three binding signatures."""
        return tuple(
            (mem.name, mem.spec.name, mem.width, mem.depth,
             tuple(sorted(mem.port_of.items())))
            for mem in sorted(self.mems.values(), key=lambda m: m.name)
        )

    def merge_signature(self) -> tuple:
        """Content signature of exactly what trace merging reads (hashable).

        The merge consumes each unit's (id, width, op set) and each
        register's (id, width, carrier set) — plus the datapath's port
        structure, which is likewise module-free — but never the module
        assignments, so bindings that differ only in module selection
        share one merged-trace object.  Instance ids are included: they
        key streams and datapath ports.
        """
        got = self._sig_memo.get("merge")
        if got is not None:
            return got
        fus = tuple(
            (fu_id, fu.width, tuple(sorted(fu.ops)))
            for fu_id, fu in sorted(self.fus.items())
        )
        regs = tuple(
            (reg_id, reg.width, tuple(sorted(reg.carriers)))
            for reg_id, reg in sorted(self.regs.items())
        )
        got = (fus, regs, self._mem_sig())
        self._sig_memo["merge"] = got
        return got

    def schedule_signature(self) -> tuple:
        """Id-free signature of exactly what scheduling reads (hashable).

        The engine consumes the binding only through its *partitions*: each
        unit's (module, width, op set) fixes delays, occupancy conflicts
        and the input-mux estimate, and each register's carrier set fixes
        write conflicts — instance ids never influence the schedule (the
        ``ScheduledOp.fu`` annotation is not read downstream; architecture
        construction re-resolves units from its own binding).  Bindings
        that differ only in id numbering therefore share one memoized STG.
        """
        got = self._sig_memo.get("schedule")
        if got is not None:
            return got
        fus = tuple(sorted(
            (fu.module.name, fu.width, tuple(sorted(fu.ops)))
            for fu in self.fus.values()
        ))
        regs = tuple(sorted(
            (reg.width, tuple(sorted(reg.carriers)))
            for reg in self.regs.values()
        ))
        got = (fus, regs, self._mem_sig())
        self._sig_memo["schedule"] = got
        return got

    def validate(self) -> None:
        """Every FU op must be bound to a module that implements it."""
        for node in self.cdfg.fu_nodes():
            fu = self.fu_of(node.id)
            if fu is None:
                raise BindingError(f"op {node.name} unbound")
            if not fu.module.implements(node.kind):
                raise BindingError(
                    f"op {node.name} ({node.kind.value}) bound to {fu.module.name} "
                    f"which does not implement it")
            if op_width(self.cdfg, node.id) > fu.width:
                raise BindingError(f"op {node.name} wider than its FU")
        for fu in self.fus.values():
            if not fu.ops:
                raise BindingError(f"FU {fu.id} ({fu.module.name}) has no ops")
            for op in fu.ops:
                if self.op_to_fu.get(op) != fu.id:
                    raise BindingError(f"op {op} back-reference mismatch on FU {fu.id}")
        for var in self.cdfg.var_types:
            if var not in self.carrier_to_reg:
                raise BindingError(f"variable {var!r} has no register")
        for name in self.cdfg.array_types:
            if name not in self.mems:
                raise BindingError(f"array {name!r} has no RAM instance")
        for node in self.cdfg.mem_nodes():
            mem = self.mems.get(node.mem)
            if mem is None:
                raise BindingError(f"array {node.mem!r} has no RAM instance")
            port = mem.port_of.get(node.id)
            if port is None:
                raise BindingError(
                    f"memory op {node.name} has no port on array {node.mem!r}")
            if not 0 <= port < mem.spec.ports:
                raise BindingError(
                    f"memory op {node.name} on port {port} but {mem.spec.name} "
                    f"has only {mem.spec.ports} port(s)")

    # -- moves (mechanics only; legality/cost handled by repro.core.moves) -------

    def merge_fus(self, keep: int, absorb: int, module: ModuleSpec | None = None) -> None:
        """Move every op of ``absorb`` onto ``keep`` (resource sharing)."""
        if keep == absorb:
            raise BindingError("cannot merge an FU with itself")
        self._sig_memo.clear()
        fu_keep = self.fus[keep]
        fu_absorb = self.fus.pop(absorb)
        fu_keep.ops |= fu_absorb.ops
        for op in fu_absorb.ops:
            self.op_to_fu[op] = keep
        if module is not None:
            fu_keep.module = module
        fu_keep.width = max(op_width(self.cdfg, op) for op in fu_keep.ops)
        kinds = fu_keep.kinds(self.cdfg)
        if not fu_keep.module.implements_all(kinds):
            raise BindingError(
                f"module {fu_keep.module.name} cannot implement merged ops "
                f"{sorted(k.value for k in kinds)}")

    def split_fu(self, fu_id: int, ops_out: set[int]) -> FUInstance:
        """Give ``ops_out`` their own new FU of the same module type."""
        fu = self.fus[fu_id]
        if not ops_out or ops_out == fu.ops:
            raise BindingError("split must move a strict non-empty subset of ops")
        if not ops_out <= fu.ops:
            raise BindingError("split ops are not all on the source FU")
        self._sig_memo.clear()
        fu.ops -= ops_out
        fu.width = max(op_width(self.cdfg, op) for op in fu.ops)
        return self._add_fu(fu.module, ops_out)

    def substitute_module(self, fu_id: int, module: ModuleSpec) -> None:
        """Swap an FU's library module (module selection, Section 3.2.2)."""
        fu = self.fus[fu_id]
        kinds = fu.kinds(self.cdfg)
        if not module.implements_all(kinds):
            raise BindingError(
                f"module {module.name} cannot implement {sorted(k.value for k in kinds)}")
        self._sig_memo.clear()
        fu.module = module

    def merge_regs(self, keep: int, absorb: int) -> None:
        """Store ``absorb``'s variables in ``keep`` (register sharing)."""
        if keep == absorb:
            raise BindingError("cannot merge a register with itself")
        self._sig_memo.clear()
        reg_keep = self.regs[keep]
        reg_absorb = self.regs.pop(absorb)
        reg_keep.carriers |= reg_absorb.carriers
        reg_keep.width = max(reg_keep.width, reg_absorb.width)
        for carrier in reg_absorb.carriers:
            self.carrier_to_reg[carrier] = keep

    def split_reg(self, reg_id: int, carriers_out: set[str]) -> RegInstance:
        """Give ``carriers_out`` their own new register."""
        reg = self.regs[reg_id]
        if not carriers_out or carriers_out == reg.carriers:
            raise BindingError("split must move a strict non-empty subset of carriers")
        if not carriers_out <= reg.carriers:
            raise BindingError("split carriers are not all in the source register")
        self._sig_memo.clear()
        reg.carriers -= carriers_out
        reg.width = max(self.cdfg.var_types[c][0] for c in reg.carriers)
        width = max(self.cdfg.var_types[c][0] for c in carriers_out)
        return self._add_reg(width, carriers_out)

    def bind_mem_port(self, array: str, node_id: int, port: int) -> None:
        """Reassign one memory access to another port of its RAM."""
        mem = self.mems.get(array)
        if mem is None:
            raise BindingError(f"array {array!r} has no RAM instance")
        if node_id not in mem.port_of:
            raise BindingError(
                f"node {node_id} is not an access of array {array!r}")
        if not 0 <= port < mem.spec.ports:
            raise BindingError(
                f"port {port} out of range for {mem.spec.name} "
                f"({mem.spec.ports} port(s))")
        self._sig_memo.clear()
        mem.port_of[node_id] = port

    def substitute_ram(self, array: str, spec: RamSpec) -> None:
        """Swap an array's RAM organization (RAM-level module selection).

        Narrowing to fewer ports rebinds every access to port 0 — always
        legal, since the scheduler re-serializes port conflicts on the
        next reschedule.
        """
        mem = self.mems.get(array)
        if mem is None:
            raise BindingError(f"array {array!r} has no RAM instance")
        self._sig_memo.clear()
        mem.spec = spec
        for node_id, port in mem.port_of.items():
            if port >= spec.ports:
                mem.port_of[node_id] = 0

    def summary(self) -> dict[str, int]:
        return {
            "fus": len(self.fus),
            "registers": len(self.regs),
            "memories": len(self.mems),
            "bound_ops": len(self.op_to_fu),
        }
