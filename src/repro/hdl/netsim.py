"""Pure-python cycle-accurate simulation of a lowered netlist.

This is the always-available half of the cosimulation story: the same
:class:`~repro.hdl.netlist.Netlist` the Verilog printer renders is
executed here cycle by cycle, so the emitted RTL's semantics can be
checked against the behavioral interpreter, STG replay and gatesim with
no external tools.  When ``iverilog`` is present,
:mod:`repro.hdl.cosim` additionally runs the printed text itself.

Semantics follow Verilog word rules at the IR's conventions: every wire
is a signed 64-bit value (operations wrap at 64 bits), registers store
raw bit patterns at their declared width, and an identifier reference
yields the pattern for registers/inputs and the signed value for wires.

The simulator is compiled, in the style of Verilator's levelized
evaluation: :class:`NetlistSimulator` turns the validated netlist into
Python source once (:func:`_module_source`) and ``exec``\\ s it under the
pseudo-filename ``<netsim:NAME>``, which is what a traceback through the
generated code shows.  Two functions come out of it:

* ``settle(env)`` — one straight-line pass.  It reads the registers and
  inputs it needs from ``env`` once, computes every wire as a local
  (``w0``, ``w1``, … in static topological order) with wraps, 64-bit
  word arithmetic, multiplexers, ``case`` selects (first matching arm
  wins) and memory reads inlined as expressions, then writes the wires
  back.  Only when the topological order has a back-edge — a
  mux-steered false combinational cycle, say — is the pass wrapped in a
  fixpoint loop, capped at ``len(wires) + 2`` sweeps, so such cycles
  settle exactly as an event-driven simulator would and a true logic
  cycle raises :class:`~repro.errors.HDLError`.
* ``commit(env)`` — one clock edge, two-phase: every enabled register
  and memory write port is sampled before anything is written.

Settling is lazy.  :meth:`NetlistSimulator.step` settles after every
edge so the observations see settled values, and settles again before
the edge only when :meth:`~NetlistSimulator.poke` or a change of
``start`` has dirtied the inputs since then; otherwise that pass would
reproduce the values already in ``env``.

The generator splices only ints (constants, widths, depths, case codes)
and ``repr``'d signal names into the source; anything else raises
:class:`~repro.errors.HDLError` before ``exec``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HDLError
from repro.hdl.netlist import (
    ECase,
    EConst,
    EMemRead,
    EMux,
    EOp,
    ERef,
    EWrap,
    Netlist,
    WORD,
    refs_of,
)
from repro.utils.bitwidth import mask_for_width, to_unsigned, wrap_to_width

#: Safety cap on clock cycles per start/done pass.
MAX_CYCLES_PER_PASS = 1_000_000

#: Python operator of each word-level arithmetic, comparison and
#: bitwise :class:`EOp` (the rest are spelled out in :func:`_expr_source`).
_WRAPPED_OPS = {"add": "+", "sub": "-", "mul": "*"}
_COMPARE_OPS = {"lt": "<", "gt": ">", "le": "<=", "ge": ">=", "eq": "==",
                "ne": "!="}
_BITWISE_OPS = {"band": "&", "bor": "|", "bxor": "^"}


def _int(value) -> str:
    """Source for an int spliced into generated code; nothing else passes."""
    if type(value) is not int:
        raise HDLError(f"netsim will not splice {value!r} into generated "
                       f"code: only ints are allowed")
    return repr(value) if value >= 0 else f"({value!r})"


def _name(name) -> str:
    """Source for a signal name spliced into generated code (a str literal)."""
    if type(name) is not str:
        raise HDLError(f"netsim will not splice signal name {name!r} into "
                       f"generated code: only strings are allowed")
    return repr(name)


def _wrap_source(inner: str, width: int, signed: bool) -> str:
    mask = mask_for_width(width)
    if not signed:
        return f"({inner} & {mask})"
    half = 1 << (width - 1)
    return f"((({inner} + {half}) & {mask}) - {half})"


def _expr_source(expr, names: dict[str, str], mems: dict[str, tuple]) -> str:
    """Python expression for ``expr``'s signed word-level value.

    ``names`` maps a signal name to the source that reads it; ``mems``
    maps a memory name to ``(local, depth)`` of its word list.
    """
    if isinstance(expr, EConst):
        return _int(expr.value)
    if isinstance(expr, ERef):
        if expr.name not in names:
            raise HDLError(f"netsim cannot read signal {expr.name!r}")
        return names[expr.name]
    if isinstance(expr, EWrap):
        _int(expr.width)
        return _wrap_source(_expr_source(expr.expr, names, mems),
                            expr.width, expr.signed)
    if isinstance(expr, EMux):
        return (f"({_expr_source(expr.a, names, mems)} "
                f"if {_test_source(expr.cond, names, mems)} "
                f"else {_expr_source(expr.b, names, mems)})")
    if isinstance(expr, ECase):
        return _case_source(expr, names, mems)
    if isinstance(expr, EOp):
        op = expr.op
        if op in _COMPARE_OPS or op in ("land", "lor", "lnot"):
            return f"(1 if {_test_source(expr, names, mems)} else 0)"
        a, b = _operands(expr, names, mems)
        if op in _WRAPPED_OPS:
            return _wrap_source(f"{a} {_WRAPPED_OPS[op]} {b}", WORD, True)
        if op in _BITWISE_OPS:
            return f"({a} {_BITWISE_OPS[op]} {b})"
        if op == "shl":
            return _wrap_source(f"({a} << ({b} & 63))", WORD, True)
        if op == "shr":
            return f"({a} >> ({b} & 63))"
        raise HDLError(f"cannot compile operator {op!r}")
    if isinstance(expr, EMemRead):
        if expr.mem not in mems:
            raise HDLError(f"read of undeclared memory {expr.mem!r}")
        local, depth = mems[expr.mem]
        return (f"{local}[{_expr_source(expr.addr, names, mems)} "
                f"& {_int(depth - 1)}]")
    raise HDLError(f"cannot compile expression {expr!r}")


def _args(expr: EOp) -> tuple:
    arity = 1 if expr.op == "lnot" else 2
    if len(expr.args) != arity:
        raise HDLError(f"operator {expr.op!r} takes {arity} operand(s), "
                       f"got {len(expr.args)}")
    return expr.args


def _operands(expr: EOp, names, mems) -> list[str]:
    return [_expr_source(arg, names, mems) for arg in _args(expr)]


def _test_source(expr, names, mems) -> str:
    """Python expression whose truth value is ``expr != 0``."""
    if isinstance(expr, EOp):
        op = expr.op
        if op in _COMPARE_OPS:
            a, b = _operands(expr, names, mems)
            return f"({a} {_COMPARE_OPS[op]} {b})"
        if op == "lnot":
            (a,) = (_test_source(arg, names, mems) for arg in _args(expr))
            return f"(not {a})"
        if op in ("land", "lor"):
            a, b = (_test_source(arg, names, mems) for arg in _args(expr))
            return f"({a} {'and' if op == 'land' else 'or'} {b})"
    return _expr_source(expr, names, mems)


def _case_source(expr: ECase, names, mems) -> str:
    """First-match ``case``: the arms are tested in order, so the first
    arm listing the subject's value wins.  The chain is one flat
    conditional expression, so its nesting does not grow with the arms."""
    subject = _expr_source(expr.subject, names, mems)
    chain = []
    for codes, arm in expr.arms:
        codes = [_int(code) for code in codes]
        if not codes:
            continue  # matches nothing
        test = (f"{subject} == {codes[0]}" if len(codes) == 1 else
                f"{subject} in ({', '.join(codes)})")
        chain.append(f"{_expr_source(arm, names, mems)} if {test} else ")
    return f"({''.join(chain)}{_expr_source(expr.default, names, mems)})"


def _levelize(wires) -> tuple[list, bool]:
    """Static topological order (declared order breaks cycles), and
    whether that order has a back-edge: a wire read before it is computed."""
    wire_names = {w.name for w in wires}
    deps = {w.name: refs_of(w.expr) & wire_names for w in wires}
    by_name = {w.name: w for w in wires}
    order: list = []
    done: set[str] = set()
    visiting: set[str] = set()

    def visit(wire) -> None:
        if wire.name in done or wire.name in visiting:
            return  # cycles fall back to declared order + fixpoint
        visiting.add(wire.name)
        for dep in sorted(deps[wire.name]):
            visit(by_name[dep])
        visiting.discard(wire.name)
        done.add(wire.name)
        order.append(wire)

    for wire in wires:
        visit(wire)
    position = {w.name: i for i, w in enumerate(order)}
    back_edge = any(position[dep] >= position[w.name]
                    for w in order for dep in deps[w.name])
    return order, back_edge


def _module_source(netlist: Netlist) -> str:
    """Python source of ``build(m0, m1, …)``, which takes the memories'
    word lists (in ``netlist.mems`` order) and returns ``(settle, commit)``."""
    order, back_edge = _levelize(netlist.wires)
    names = {w.name: f"w{i}" for i, w in enumerate(order)}
    stored = [p.name for p in netlist.inputs] + ["start"] + [
        r.name for r in netlist.regs]
    read = set().union(*(refs_of(w.expr) for w in order))
    loads = [(f"r{i}", name) for i, name in enumerate(stored) if name in read]
    names.update((name, local) for local, name in loads)
    mems = {m.name: (f"m{i}", m.depth) for i, m in enumerate(netlist.mems)}

    lines = [f"def build({', '.join(local for local, _ in mems.values())}):",
             "    def settle(env):"]
    body = [f"{local} = env[{_name(name)}]" for local, name in loads]
    wires = [f"{names[w.name]} = {_expr_source(w.expr, names, mems)}"
             for w in order]
    locals_ = ", ".join(names[w.name] for w in order)
    if back_edge:
        body += [f"{names[w.name]} = env[{_name(w.name)}]" for w in order]
        body += [f"for _sweep in range({_int(len(order) + 2)}):",
                 f"    before = ({locals_},)",
                 *(f"    {line}" for line in wires),
                 f"    if ({locals_},) == before:",
                 "        break",
                 "else:",
                 "    raise HDLError('combinational nets did not settle "
                 "(true logic cycle)')"]
    else:
        body += wires
    body += [f"env[{_name(w.name)}] = {names[w.name]}" for w in order]
    lines += [f"        {line}" for line in body or ["pass"]]

    sample, write = [], []
    for i, reg in enumerate(netlist.regs):
        sample.append(f"v{i} = env[{_name(reg.d)}] & "
                      f"{_int(mask_for_width(reg.width))}")
        if reg.en is None:
            write.append(f"env[{_name(reg.name)}] = v{i}")
        else:
            sample.append(f"e{i} = env[{_name(reg.en)}]")
            write.append(f"if e{i}: env[{_name(reg.name)}] = v{i}")
    port = 0
    for mem in netlist.mems:
        local = mems[mem.name][0]
        for p in mem.ports:
            if p.we is None:
                continue
            sample += [f"p{port} = env[{_name(p.we)}]",
                       f"a{port} = env[{_name(p.addr)}] & {_int(mem.depth - 1)}",
                       f"d{port} = env[{_name(p.din)}] & "
                       f"{_int(mask_for_width(mem.width))}"]
            write.append(f"if p{port}: {local}[a{port}] = d{port}")
            port += 1
    lines.append("    def commit(env):")
    lines += [f"        {line}" for line in sample + write or ["pass"]]
    lines.append("    return settle, commit")
    return "\n".join(lines) + "\n"


class NetlistSimulator:
    """Two-phase clocked execution of a netlist: settle the combinational
    nets, then commit every enabled register on the clock edge."""

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        #: Memory contents as raw word patterns (power-on zero; persist
        #: across passes).  The generated code holds these list objects.
        self.mems: dict[str, list[int]] = {
            m.name: [0] * m.depth for m in netlist.mems}
        code = compile(_module_source(netlist), f"<netsim:{netlist.name}>",
                       "exec")
        namespace = {"HDLError": HDLError}
        exec(code, namespace)
        self._settle, self._commit = namespace["build"](*self.mems.values())
        self._input_widths = {p.name: p.width for p in netlist.inputs}
        self._done = next((p.source for p in netlist.outputs
                           if p.name == "done"), None)
        self.env: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.env = {name: 0 for name in self._input_widths}
        self.env["start"] = 0
        for reg in self.netlist.regs:
            self.env[reg.name] = to_unsigned(reg.reset, reg.width)
        for words in self.mems.values():
            # In place: the generated code holds these list objects.
            for i in range(len(words)):
                words[i] = 0
        for wire in self.netlist.wires:
            self.env[wire.name] = 0
        self._settle(self.env)
        self._dirty = False

    def poke(self, inputs: dict[str, int]) -> None:
        """Drive input ports (values wrapped to the port width)."""
        for name, value in inputs.items():
            width = self._input_widths.get(name)
            if width is None:
                raise HDLError(f"no input port {name!r}")
            self.env[name] = to_unsigned(int(value), width)
            self._dirty = True

    def step(self, start: int = 0) -> None:
        """One clock edge: settle if the inputs changed since the last
        settle, commit enabled registers and memory write ports, then
        settle so the observations see the new state."""
        env = self.env
        start = 1 if start else 0
        if env["start"] != start:
            env["start"] = start
            self._dirty = True
        if self._dirty:
            self._settle(env)
        self._commit(env)
        env["start"] = 0
        self._settle(env)
        self._dirty = False

    # -- observation -------------------------------------------------------------

    def output(self, label: str) -> int:
        for port in self.netlist.outputs:
            if port.label == label:
                value = self.env[port.source]
                return (wrap_to_width(value, port.width) if port.signed
                        else value & mask_for_width(port.width))
        raise HDLError(f"no output labeled {label!r}")

    @property
    def done(self) -> bool:
        if self._done is None:
            raise HDLError("netlist has no done output")
        return bool(self.env[self._done])

    def state(self) -> int:
        return self.env["state"]


@dataclass
class NetSimResult:
    """One stimulus run through the netlist simulator."""

    outputs: dict[str, list[int]]
    cycles: list[int]
    state_seq: list[list[int]] = field(default_factory=list)
    #: Final memory contents as raw word patterns, keyed by the netlist
    #: memory name (``mem_<array>``); re-sign with the array's element
    #: type to compare against the behavioral image.
    mems: dict[str, list[int]] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return sum(self.cycles)


def run_passes(netlist: Netlist, input_passes: list[dict[str, int]],
               max_cycles_per_pass: int = MAX_CYCLES_PER_PASS) -> NetSimResult:
    """Execute the start/done handshake once per stimulus pass.

    ``input_passes`` uses behavioral variable names (the same stimulus
    dictionaries every other execution model consumes); cycle counts are
    clock cycles between leaving IDLE and the done strobe — directly
    comparable with gatesim and duration-normalized replay.
    """
    sim = NetlistSimulator(netlist)
    labels = [p.label for p in netlist.outputs if p.label is not None]
    in_map = {p.label: p.name for p in netlist.inputs if p.label is not None}
    outputs: dict[str, list[int]] = {label: [] for label in labels}
    cycles_per_pass: list[int] = []
    state_seq: list[list[int]] = []

    for pass_idx, stimulus in enumerate(input_passes):
        try:
            sim.poke({in_map[var]: value for var, value in stimulus.items()})
        except KeyError as exc:
            raise HDLError(f"stimulus names unknown input {exc}") from None
        sim.step(start=1)
        cycles = 0
        states = [sim.state()]
        while not sim.done:
            sim.step()
            cycles += 1
            states.append(sim.state())
            if cycles > max_cycles_per_pass:
                raise HDLError(f"netsim: pass {pass_idx} exceeded "
                               f"{max_cycles_per_pass} cycles without done")
        for label in labels:
            outputs[label].append(sim.output(label))
        cycles_per_pass.append(cycles)
        state_seq.append(states[:-1])  # drop the done-state entry
        sim.step()  # done -> IDLE
    return NetSimResult(outputs=outputs, cycles=cycles_per_pass,
                        state_seq=state_seq,
                        mems={name: list(words)
                              for name, words in sim.mems.items()})
