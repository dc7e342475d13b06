"""netsim paths the registry benchmarks never reach: combinational
back-edges, lazy settling between edges, ``case`` arm priority, and the
guard on what the code generator splices into its source."""

import pytest

from repro.benchmarks import get_benchmark
from repro.cdfg.interpreter import simulate
from repro.core.design import DesignPoint
from repro.errors import HDLError
from repro.hdl import lower_architecture
from repro.hdl import netsim
from repro.hdl.netlist import (
    ECase,
    EConst,
    EMux,
    EOp,
    ERef,
    EWrap,
    Netlist,
    PortDecl,
    Register,
    Wire,
)
from repro.hdl.netsim import NetlistSimulator, _module_source
from repro.library import default_library
from repro.sched.engine import ScheduleOptions


def _netlist(name, wires, regs=(), inputs=(), outputs=()):
    return Netlist(
        name=name,
        inputs=[PortDecl(p, w, False) for p, w in inputs],
        outputs=[PortDecl(f"out_{label}", 64, True, label=label, source=src)
                 for label, src in outputs],
        wires=list(wires), regs=list(regs))


def _input(name, width=8):
    return EWrap(ERef(name), width, False)


class TestCombinationalCycles:
    def _steered(self):
        # sel=1: a = x, b = a + 2.  sel=0: b = x, a = b + 1.  Each wire
        # reads the other, so every static order has a back-edge, yet for
        # either value of sel the values are well defined.
        sel = EOp("ne", (_input("sel", 1), EConst(0)))
        return _netlist(
            "steered",
            [Wire("a", EMux(sel, _input("x"), EOp("add", (ERef("b"), EConst(1))))),
             Wire("b", EMux(sel, EOp("add", (ERef("a"), EConst(2))), _input("x")))],
            inputs=[("sel", 1), ("x", 8)],
            outputs=[("a", "a"), ("b", "b")])

    def test_false_cycle_generates_a_fixpoint(self):
        assert "for _sweep in range(4):" in _module_source(self._steered())

    def test_false_cycle_settles_either_way(self):
        sim = NetlistSimulator(self._steered())
        for sel, x, a, b in [(1, 5, 5, 7), (0, 5, 6, 5), (1, 200, 200, 202),
                             (0, 9, 10, 9)]:
            sim.poke({"sel": sel, "x": x})
            sim.step()
            assert (sim.output("a"), sim.output("b")) == (a, b)

    def test_true_cycle_raises_from_generated_code(self):
        nl = _netlist("ring", [Wire("w", EOp("lnot", (ERef("w"),)))])
        with pytest.raises(HDLError, match="did not settle") as info:
            NetlistSimulator(nl)
        frames = []
        tb = info.value.__traceback__
        while tb is not None:
            frames.append(tb.tb_frame.f_code.co_filename)
            tb = tb.tb_next
        assert "<netsim:ring>" in frames

    def test_registry_netlists_are_straight_line(self):
        for name in ("gcd", "histogram"):
            bench = get_benchmark(name)
            cdfg = bench.cdfg()
            store = simulate(cdfg, bench.stimulus(2, seed=0))
            dp = DesignPoint.initial(cdfg, default_library(), store,
                                     ScheduleOptions(clock_ns=bench.clock_ns))
            source = _module_source(lower_architecture(dp.arch, name=name))
            assert "_sweep" not in source


class TestLazySettle:
    def _latch(self):
        # r follows input x every edge; seen records start of the edge.
        return _netlist(
            "latch",
            [Wire("xv", _input("in_x")), Wire("sv", ERef("start"))],
            regs=[Register("r", 8, d="xv"), Register("seen", 1, d="sv")],
            inputs=[("in_x", 8)],
            outputs=[("r", "r"), ("seen", "seen")])

    def test_poke_between_edges_is_seen_at_the_next_edge(self):
        sim = NetlistSimulator(self._latch())
        sim.poke({"in_x": 3})
        sim.step()
        assert sim.output("r") == 3
        sim.poke({"in_x": 9})
        assert sim.output("r") == 3  # nothing moves before the edge
        sim.step()
        assert sim.output("r") == 9
        sim.step()
        assert sim.output("r") == 9

    def test_start_change_is_seen_at_the_next_edge(self):
        sim = NetlistSimulator(self._latch())
        sim.step(start=1)
        assert sim.output("seen") == 1
        sim.step()
        assert sim.output("seen") == 0
        sim.step(start=1)
        sim.step(start=1)
        assert sim.output("seen") == 1

    def test_reset_restores_power_on_values(self):
        sim = NetlistSimulator(self._latch())
        sim.poke({"in_x": 7})
        sim.step()
        sim.reset()
        assert sim.output("r") == 0
        sim.step()
        assert sim.output("r") == 0  # reset cleared the driven input too


class TestCasePriority:
    def test_first_matching_arm_wins_in_the_simulator(self):
        # The Verilog `case` the printer emits takes the first match.
        case = ECase(_input("in_s", 4),
                     (((1,), EConst(10)), ((1, 2), EConst(20))), EConst(0))
        sim = NetlistSimulator(_netlist("prio", [Wire("y", case)],
                                        inputs=[("in_s", 4)],
                                        outputs=[("y", "y")]))
        for s, y in [(1, 10), (2, 20), (3, 0)]:
            sim.poke({"in_s": s})
            sim.step()
            assert sim.output("y") == y


class TestSourceGuard:
    @pytest.mark.parametrize("wire", [
        Wire("w", EConst("__import__('os').getpid()")),
        Wire("w", EConst(1.5)),
        Wire("w", EConst(True)),
        Wire("w", EWrap(EConst(1), 8.0, True)),
        Wire("w", ECase(ERef("start"), ((("1",), EConst(1)),), EConst(0))),
    ])
    def test_only_ints_are_spliced(self, wire, monkeypatch):
        def no_exec(*args):
            raise AssertionError("exec reached")

        monkeypatch.setattr(netsim, "exec", no_exec, raising=False)
        nl = _netlist("guard", [wire])
        with pytest.raises(HDLError, match="only ints"):
            NetlistSimulator(nl)

    @pytest.mark.parametrize("wire,message", [
        (Wire("w", EOp("add", (EConst(1),))), "takes 2 operand"),
        (Wire("w", ERef("rst")), "cannot read signal"),
        (Wire("w", ("not", "an", "expression")), "cannot compile"),
    ])
    def test_malformed_expressions_rejected(self, wire, message):
        with pytest.raises(HDLError, match=message):
            NetlistSimulator(_netlist("bad", [wire]))

    def test_names_are_spliced_as_literals(self):
        name = "x']; raise SystemExit; env['"
        sim = NetlistSimulator(_netlist("quoted", [Wire(name, EConst(4))],
                                        outputs=[("q", name)]))
        assert sim.output("q") == 4
