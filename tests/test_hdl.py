"""HDL backend tests: netlist IR, netsim semantics, Verilog emission,
golden files, and (when iverilog is installed) text-level cosimulation.

Golden files under ``tests/golden/`` are regenerated with::

    PYTHONPATH=src python - <<'PY'
    from pathlib import Path
    from repro.benchmarks import get_benchmark
    from repro.cdfg.interpreter import simulate
    from repro.core.design import DesignPoint
    from repro.library import default_library
    from repro.sched.engine import ScheduleOptions
    from repro.hdl import lower_architecture, emit_verilog
    for name in ("gcd", "paulin", "histogram"):
        bench = get_benchmark(name)
        cdfg = bench.cdfg()
        store = simulate(cdfg, bench.stimulus(4, seed=0))
        dp = DesignPoint.initial(cdfg, default_library(), store,
                                 ScheduleOptions(clock_ns=bench.clock_ns))
        text = emit_verilog(lower_architecture(dp.arch, name=name))
        Path(f"tests/golden/{name}.v").write_text(text, encoding="utf-8")
    PY
"""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HDLError
from repro.benchmarks import get_benchmark
from repro.cdfg.interpreter import simulate
from repro.cdfg.node import OpKind
from repro.core.binding import Binding
from repro.core.design import DesignPoint
from repro.gatesim import simulate_architecture
from repro.hdl import (
    emit_testbench,
    emit_verilog,
    iverilog_available,
    lower_architecture,
    run_iverilog,
    simulate_netlist,
)
from repro.hdl.netlist import (
    ECase,
    EConst,
    EMux,
    EOp,
    ERef,
    EWrap,
    Netlist,
    Wire,
    Register,
    refs_of,
)
from repro.hdl.netsim import NetlistSimulator, _expr_source
from repro.library import default_library
from repro.rtl import build_architecture
from repro.sched import wavesched
from repro.sched.engine import ScheduleOptions
from repro.sim.stimulus import random_stimulus
from repro.utils.bitwidth import wrap_to_width

GOLDEN_DIR = Path(__file__).parent / "golden"


def _bench_arch(name):
    bench = get_benchmark(name)
    cdfg = bench.cdfg()
    store = simulate(cdfg, bench.stimulus(4, seed=0))
    dp = DesignPoint.initial(cdfg, default_library(), store,
                             ScheduleOptions(clock_ns=bench.clock_ns))
    return cdfg, dp.arch


# A direct reading of the IR semantics, for the generated code to match.
_REF_OPS = {
    "add": lambda a, b: wrap_to_width(a + b, 64),
    "sub": lambda a, b: wrap_to_width(a - b, 64),
    "mul": lambda a, b: wrap_to_width(a * b, 64),
    "shl": lambda a, b: wrap_to_width(a << (b & 63), 64),
    "shr": lambda a, b: a >> (b & 63),
    "lt": lambda a, b: int(a < b), "gt": lambda a, b: int(a > b),
    "le": lambda a, b: int(a <= b), "ge": lambda a, b: int(a >= b),
    "eq": lambda a, b: int(a == b), "ne": lambda a, b: int(a != b),
    "land": lambda a, b: int(bool(a) and bool(b)),
    "lor": lambda a, b: int(bool(a) or bool(b)),
    "band": lambda a, b: a & b, "bor": lambda a, b: a | b,
    "bxor": lambda a, b: a ^ b,
}


def _reference(expr, env):
    """The netlist.py docstrings, read one node at a time."""
    if isinstance(expr, EConst):
        return expr.value
    if isinstance(expr, ERef):
        return env[expr.name]
    if isinstance(expr, EWrap):
        value = _reference(expr.expr, env)
        return (wrap_to_width(value, expr.width) if expr.signed
                else value & ((1 << expr.width) - 1))
    if isinstance(expr, EMux):
        return _reference(expr.a if _reference(expr.cond, env) else expr.b, env)
    if isinstance(expr, ECase):
        subject = _reference(expr.subject, env)
        arm = next((arm for codes, arm in expr.arms if subject in codes),
                   expr.default)
        return _reference(arm, env)
    if expr.op == "lnot":
        return int(not _reference(expr.args[0], env))
    a, b = (_reference(arg, env) for arg in expr.args)
    return _REF_OPS[expr.op](a, b)


_WORDS = st.one_of(st.integers(-4, 8), st.sampled_from(
    [(1 << 63) - 1, -(1 << 63), (1 << 62) + 1, 63, 64, -64, 255]))
_LEAVES = st.one_of(_WORDS.map(EConst),
                    st.sampled_from([ERef("a"), ERef("b"), ERef("c")]))


def _extend(children):
    binary = st.builds(lambda op, a, b: EOp(op, (a, b)),
                       st.sampled_from(sorted(_REF_OPS)), children, children)
    case = st.builds(
        lambda subject, arms, default: ECase(subject, tuple(arms), default),
        st.sampled_from([ERef("a"), ERef("c")]),
        st.lists(st.tuples(st.lists(st.integers(-2, 9),
                                    max_size=3).map(tuple), children),
                 min_size=1, max_size=8),
        children)
    return st.one_of(
        binary, case,
        st.builds(lambda a: EOp("lnot", (a,)), children),
        st.builds(EMux, children, children, children),
        st.builds(EWrap, children, st.integers(1, 64), st.booleans()))


class TestExpressionSemantics:
    """The generated evaluation implements signed word semantics."""

    def _eval(self, expr, env=None):
        env = env or {}
        source = _expr_source(expr, {name: f"env[{name!r}]" for name in env},
                              {})
        return eval(source, {"env": env})

    def test_wrap_signed_narrows(self):
        assert self._eval(EWrap(EConst(130), 8, True)) == -126
        assert self._eval(EWrap(EConst(-1), 8, False)) == 255
        assert self._eval(EWrap(EConst(5), 8, True)) == 5

    def test_ops_match_python_semantics(self):
        env = {"a": -7, "b": 3}
        a, b = ERef("a"), ERef("b")
        assert self._eval(EOp("add", (a, b)), env) == -4
        assert self._eval(EOp("mul", (a, b)), env) == -21
        assert self._eval(EOp("shr", (a, EOp("band", (b, EConst(63))))), env) == -1
        assert self._eval(EOp("lt", (a, b)), env) == 1
        assert self._eval(EOp("land", (a, b)), env) == 1
        assert self._eval(EOp("lnot", (a,)), env) == 0

    def test_arithmetic_wraps_at_64_bits(self):
        big = EConst((1 << 62) + 1)
        assert self._eval(EOp("mul", (big, EConst(4)))) == 4  # wraps, like RTL

    def test_mux_and_case(self):
        mux = EMux(ERef("c"), EConst(10), EConst(20))
        assert self._eval(mux, {"c": 1}) == 10
        assert self._eval(mux, {"c": 0}) == 20
        case = ECase(ERef("s"), (((0, 1), EConst(5)), ((2,), EConst(6))),
                     EConst(7), 2)
        assert self._eval(case, {"s": 1}) == 5
        assert self._eval(case, {"s": 2}) == 6
        assert self._eval(case, {"s": 3}) == 7

    def test_case_first_matching_arm_wins(self):
        case = ECase(ERef("s"), (((1,), EConst(10)), ((1, 2), EConst(20))),
                     EConst(0))
        assert self._eval(case, {"s": 1}) == 10
        assert self._eval(case, {"s": 2}) == 20
        assert self._eval(case, {"s": 3}) == 0

    def test_wide_case_matches_first_arm_semantics(self):
        # Overlapping later arms lose; an arm with no codes never matches.
        arms = tuple(((k, k + 10), EConst(100 + k)) for k in range(9))
        arms += (((3, 7, 30), EConst(-1)), ((), EConst(-2)))
        case = ECase(ERef("s"), arms, EConst(-5))
        for s in range(-2, 32):
            expected = next((value.value for codes, value in arms
                             if s in codes), -5)
            assert self._eval(case, {"s": s}) == expected, s

    def test_shift_amount_is_masked_to_63(self):
        one = EConst(1)
        assert self._eval(EOp("shl", (one, EConst(64)))) == 1
        assert self._eval(EOp("shl", (one, EConst(127)))) == -(1 << 63)
        assert self._eval(EOp("shl", (EConst(3), EConst(63)))) == -(1 << 63)
        assert self._eval(EOp("shr", (EConst(1 << 40), EConst(64 + 40)))) == 1

    def test_negative_shr_is_arithmetic(self):
        assert self._eval(EOp("shr", (EConst(-8), EConst(1)))) == -4
        assert self._eval(EOp("shr", (EConst(-1), EConst(63)))) == -1
        # A negative amount is masked too: -1 & 63 == 63.
        assert self._eval(EOp("shr", (EConst(-8), EConst(-1)))) == -1

    def test_word_overflow_wraps(self):
        top = (1 << 63) - 1
        assert self._eval(EOp("mul", (EConst(top), EConst(2)))) == -2
        assert self._eval(EOp("mul", (EConst(1 << 32), EConst(1 << 32)))) == 0
        assert self._eval(EOp("add", (EConst(top), EConst(1)))) == -(1 << 63)
        assert self._eval(EOp("sub", (EConst(-(1 << 63)), EConst(1)))) == top

    def test_signed_wrap_at_widths_1_and_64(self):
        assert self._eval(EWrap(EConst(1), 1, True)) == -1
        assert self._eval(EWrap(EConst(2), 1, True)) == 0
        assert self._eval(EWrap(EConst(-1), 1, False)) == 1
        assert self._eval(EWrap(EConst(1 << 63), 64, True)) == -(1 << 63)
        assert self._eval(EWrap(EConst((1 << 64) - 1), 64, True)) == -1
        assert self._eval(EWrap(EConst(-1), 64, False)) == (1 << 64) - 1
        assert self._eval(EWrap(EConst(1 << 64), 64, True)) == 0

    @settings(max_examples=300, deadline=None)
    @given(expr=st.recursive(_LEAVES, _extend, max_leaves=24),
           env=st.fixed_dictionaries({name: st.integers(-3, 10) | _WORDS
                                      for name in "abc"}))
    def test_matches_reference_semantics(self, expr, env):
        assert self._eval(expr, env) == _reference(expr, env)

    def test_unknown_op_rejected(self):
        with pytest.raises(HDLError):
            EOp("frobnicate", (EConst(1),))

    def test_refs_of_walks_every_form(self):
        expr = ECase(ERef("s"), (((1,), EMux(ERef("c"), ERef("a"), EConst(0))),),
                     EWrap(EOp("add", (ERef("x"), ERef("y"))), 8, True), 2)
        assert refs_of(expr) == {"s", "c", "a", "x", "y"}


class TestNetlistValidation:
    def test_unknown_reference_rejected(self):
        nl = Netlist(name="bad", wires=[Wire("w0", ERef("nope"))])
        with pytest.raises(HDLError):
            nl.validate()

    def test_duplicate_names_rejected(self):
        nl = Netlist(name="bad",
                     wires=[Wire("w0", EConst(1)), Wire("w0", EConst(2))])
        with pytest.raises(HDLError):
            nl.validate()

    def test_register_must_reference_known_wires(self):
        nl = Netlist(name="bad", regs=[Register("r0", 8, d="missing")])
        with pytest.raises(HDLError):
            nl.validate()


class TestLowering:
    @pytest.mark.parametrize("bench_name", ["gcd", "loops", "dealer", "paulin", "histogram"])
    def test_lowered_netlist_validates(self, bench_name):
        _cdfg, arch = _bench_arch(bench_name)
        nl = lower_architecture(arch, name=bench_name)
        nl.validate()
        assert {p.label for p in nl.inputs} == set(
            arch.cdfg.node(i).carrier for i in arch.cdfg.input_nodes)
        assert any(p.name == "done" for p in nl.outputs)

    def test_mux_trees_emit_as_2to1_nests(self):
        _cdfg, arch = _bench_arch("gcd")
        nl = lower_architecture(arch, name="gcd")
        # Every multiplexed port contributes exactly (n_sources - 1) EMux
        # nodes to its data wire — the tree structure of rtl/mux.py.
        din_wires = {w.name: w for w in nl.wires}
        for port in arch.datapath.mux_ports():
            if port.key[0] != "reg_in":
                continue
            wire = din_wires[f"din_r{port.key[1]}"]
            assert _count_mux(wire.expr) == port.n_muxes()

    def test_restructured_tree_changes_emission(self):
        from repro.core.mux_restructure import huffman_tree
        from repro.rtl.mux import MuxSource

        _cdfg, arch = _bench_arch("gcd")
        base = emit_verilog(lower_architecture(arch, name="gcd"))
        port = max(arch.datapath.mux_ports(), key=lambda p: p.n_sources())
        sources = [MuxSource(k, 0.9 - 0.2 * i, [0.7, 0.2, 0.05, 0.05][i % 4])
                   for i, k in enumerate(port.sources)]
        tree = huffman_tree(sources)
        if tree.shape != port.tree.shape:
            arch.set_tree(port.key, tree)
            assert emit_verilog(lower_architecture(arch, name="gcd")) != base

    def test_start_equals_done_rejected(self):
        _cdfg, arch = _bench_arch("gcd")
        arch.stg.done = arch.stg.start
        with pytest.raises(HDLError):
            lower_architecture(arch)


class TestNetsim:
    def test_matches_gatesim_on_shared_binding(self):
        bench = get_benchmark("gcd")
        cdfg = bench.cdfg()
        lib = default_library()
        binding = Binding.initial_parallel(cdfg, lib)
        subs = [f.id for f in binding.fus.values()
                if f.kinds(cdfg) == {OpKind.SUB}]
        binding.merge_fus(subs[0], subs[1])
        stg = wavesched(cdfg, binding, clock_ns=bench.clock_ns)
        arch = build_architecture(cdfg, binding, stg, clock_ns=bench.clock_ns)
        stim = random_stimulus(cdfg, 15, seed=3,
                               ranges={"a": (1, 60), "b": (1, 60)})
        store = simulate(cdfg, stim)
        gs = simulate_architecture(arch, stim, expected_outputs=store.outputs)
        ns = simulate_netlist(lower_architecture(arch), stim)
        assert ns.outputs == {k: [int(x) for x in v]
                              for k, v in store.outputs.items()}
        assert ns.cycles == [int(c) for c in gs.cycles]

    def test_registers_persist_across_passes(self):
        # Same stimulus twice: second pass must still compute correctly
        # from a warm register file (no hidden per-pass reset).
        _cdfg, arch = _bench_arch("gcd")
        ns = simulate_netlist(lower_architecture(arch),
                              [{"a": 12, "b": 18}, {"a": 12, "b": 18}])
        assert ns.outputs["g"] == [6, 6]

    def test_state_trace_matches_replay(self):
        from repro.sched.replay import replay
        from repro.verify.conformance import visits_from_cycle_trace

        bench = get_benchmark("gcd")
        cdfg = bench.cdfg()
        stim = bench.stimulus(5, seed=2)
        store = simulate(cdfg, stim)
        dp = DesignPoint.initial(cdfg, default_library(), store,
                                 ScheduleOptions(clock_ns=bench.clock_ns))
        rep = replay(dp.arch.stg, cdfg, store)
        ns = simulate_netlist(lower_architecture(dp.arch), stim)
        durations = dp.arch.duration_map()
        for seq, expected in zip(ns.state_seq, rep.state_seq):
            assert visits_from_cycle_trace(seq, durations) == list(expected)

    def test_multicycle_done_state_does_not_corrupt_next_pass(self):
        # Regression: the done state never dwells (it only strobes done);
        # a normalized done duration > 1 must not load the dwell counter,
        # or the stale count corrupts the first state of the next pass.
        _cdfg, arch = _bench_arch("gcd")
        arch._durations[arch.stg.done] = 3
        ns = simulate_netlist(lower_architecture(arch),
                              [{"a": 12, "b": 18}, {"a": 9, "b": 6}])
        assert ns.outputs["g"] == [6, 3]

    def test_poke_unknown_input_rejected(self):
        _cdfg, arch = _bench_arch("gcd")
        sim = NetlistSimulator(lower_architecture(arch))
        with pytest.raises(HDLError):
            sim.poke({"bogus": 1})

    def test_nonterminating_netlist_hits_cycle_cap(self):
        _cdfg, arch = _bench_arch("gcd")
        with pytest.raises(HDLError):
            # gcd(0, 5) never terminates behaviorally; the cap must fire.
            simulate_netlist(lower_architecture(arch),
                             [{"a": 0, "b": 5}], max_cycles_per_pass=500)


class TestVerilogEmission:
    def test_module_interface(self):
        _cdfg, arch = _bench_arch("gcd")
        text = emit_verilog(lower_architecture(arch, name="gcd"))
        assert "module gcd (" in text
        for fragment in ("input wire clk", "input wire rst", "input wire start",
                         "input wire [7:0] in_a", "output wire [7:0] out_g",
                         "always @(posedge clk)", "endmodule"):
            assert fragment in text

    def test_fsm_case_structure(self):
        _cdfg, arch = _bench_arch("gcd")
        text = emit_verilog(lower_architecture(arch, name="gcd"))
        assert "case (state)" in text
        assert re.search(r"state <= state_next\[\d+:0\];", text)

    def test_testbench_embeds_stimulus_and_expectations(self):
        cdfg, arch = _bench_arch("gcd")
        stim = [{"a": 12, "b": 18}, {"a": 7, "b": 21}]
        nl = lower_architecture(arch, name="gcd")
        tb = emit_testbench(nl, stim, {"g": [6, 7]}, [18, 24])
        assert "module gcd_tb;" in tb
        assert "run_pass(8'd12, 8'd18, 8'd6, 18, 0);" in tb
        assert "run_pass(8'd7, 8'd21, 8'd7, 24, 1);" in tb
        assert "COSIM PASS" in tb and "COSIM FAIL" in tb

    def test_testbench_rejects_mismatched_expectations(self):
        _cdfg, arch = _bench_arch("gcd")
        nl = lower_architecture(arch, name="gcd")
        with pytest.raises(HDLError):
            emit_testbench(nl, [{"a": 1, "b": 1}], {"g": [1, 2]})


def _normalize(text: str) -> str:
    lines = [line.rstrip() for line in text.splitlines()]
    return "\n".join(line for line in lines if line)


class TestGoldenFiles:
    """Committed canonical emissions make codegen diffs visible in review."""

    @pytest.mark.parametrize("bench_name", ["gcd", "paulin", "histogram"])
    def test_emission_matches_golden(self, bench_name):
        _cdfg, arch = _bench_arch(bench_name)
        emitted = emit_verilog(lower_architecture(arch, name=bench_name))
        golden = (GOLDEN_DIR / f"{bench_name}.v").read_text(encoding="utf-8")
        assert _normalize(emitted) == _normalize(golden), (
            f"{bench_name}.v drifted from tests/golden/{bench_name}.v — "
            f"review the diff and regenerate (see module docstring)")

    @pytest.mark.parametrize("bench_name", ["gcd", "paulin", "histogram"])
    def test_emission_is_stimulus_independent(self, bench_name):
        bench = get_benchmark(bench_name)
        cdfg = bench.cdfg()
        store = simulate(cdfg, bench.stimulus(3, seed=123))
        dp = DesignPoint.initial(cdfg, default_library(), store,
                                 ScheduleOptions(clock_ns=bench.clock_ns))
        emitted = emit_verilog(lower_architecture(dp.arch, name=bench_name))
        golden = (GOLDEN_DIR / f"{bench_name}.v").read_text(encoding="utf-8")
        assert _normalize(emitted) == _normalize(golden)


@pytest.mark.skipif(not iverilog_available(), reason="iverilog not installed")
class TestIcarusCosim:
    @pytest.mark.parametrize("bench_name", ["gcd", "loops", "paulin", "histogram"])
    def test_emitted_verilog_simulates_correctly(self, bench_name):
        from repro.sched.replay import replay

        bench = get_benchmark(bench_name)
        cdfg = bench.cdfg()
        stim = bench.stimulus(10, seed=1)
        store = simulate(cdfg, stim)
        dp = DesignPoint.initial(cdfg, default_library(), store,
                                 ScheduleOptions(clock_ns=bench.clock_ns))
        rep = replay(dp.arch.stg, cdfg, store)
        nl = lower_architecture(dp.arch, name=bench_name)
        tb = emit_testbench(
            nl, stim,
            {k: [int(x) for x in v] for k, v in store.outputs.items()},
            [int(c) for c in rep.cycles_under(dp.arch.duration_map())])
        result = run_iverilog(emit_verilog(nl), tb, name=bench_name)
        assert result.passed, result.log


def _count_mux(expr) -> int:
    if isinstance(expr, EMux):
        return 1 + _count_mux(expr.a) + _count_mux(expr.b)
    if isinstance(expr, EOp):
        return sum(_count_mux(a) for a in expr.args)
    if isinstance(expr, ECase):
        return max((_count_mux(arm) for _c, arm in expr.arms), default=0)
    if isinstance(expr, EWrap):
        return _count_mux(expr.expr)
    return 0
