"""Size/shape configuration for the random CFI program generator.

A :class:`GenConfig` pins every knob that shapes a generated program —
operation budget, region nesting depth, branch/loop density, the width
pool inputs and variables draw from — plus the seed.  Generation is a
pure function of the config (see :func:`repro.genprog.generate_program`),
so a committed config is a committed program: the synthetic benchmark
corpus (``repro.genprog.corpus``) and the nightly fuzz CI job both rely
on that to make failures reproducible from a single integer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError

#: Default pool of (width, signed) variable/port types.  Deliberately
#: mixed: the signed/unsigned interaction is where lowering hazards live
#: (e.g. the ``ShareRegisters`` mixed-carrier bug found before PR 4).
DEFAULT_WIDTHS: tuple[tuple[int, bool], ...] = (
    (4, False), (6, True), (8, True), (8, False), (10, True),
    (12, False), (16, True),
)


@dataclass(frozen=True)
class GenConfig:
    """Shape knobs for one generated program (all deterministic per seed)."""

    #: RNG seed; the program is a pure function of the whole config.
    seed: int = 0
    #: Number of input ports (>= 1).
    n_inputs: int = 3
    #: Number of output ports (>= 1) — multi-output by default.
    n_outputs: int = 2
    #: Approximate statement budget for the body (the generator stops
    #: opening new statements once spent; nested bodies share it).
    ops_budget: int = 22
    #: Maximum region nesting depth (if/for/while inside if/for/while).
    max_depth: int = 3
    #: Probability a statement slot becomes an ``if``/``else`` region.
    branch_density: float = 0.30
    #: Probability a statement slot becomes a loop region.
    loop_density: float = 0.25
    #: Constant ``for`` bounds are drawn from [2, max_for_bound].
    max_for_bound: int = 6
    #: ``while`` countdown counters are uintN with N in [2, max_while_bits],
    #: bounding any single while entry to 2**N - 1 iterations.
    max_while_bits: int = 3
    #: Maximum expression tree depth.
    expr_depth: int = 2
    #: Pool of (width, signed) types for ports and variables.
    widths: tuple[tuple[int, bool], ...] = DEFAULT_WIDTHS
    #: Probability a statement slot becomes an array access (an indexed
    #: store, or a scalar assignment reading the array).  0 disables
    #: arrays entirely, keeping pre-array corpora byte-identical.
    array_density: float = 0.0
    #: Number of process-scoped arrays declared when arrays are enabled.
    #: Each is zero-filled by a generated loop before any dynamic access,
    #: so the per-pass-stateless reference stays valid despite arrays
    #: persisting across passes in the real pipeline.
    n_arrays: int = 1
    #: Pool of array sizes (each must be a power of two in [2, 1024]).
    array_sizes: tuple[int, ...] = (4, 8, 16)
    #: Stimulus passes used by the generation-time semantic invariant
    #: check (emitted source is re-parsed, compiled and interpreted, then
    #: diffed against the generator's own AST evaluator).
    validate_passes: int = 6

    def validated(self) -> "GenConfig":
        """Range-check every knob; returns self (raises on nonsense)."""
        checks = (
            (self.n_inputs >= 1, "n_inputs must be >= 1"),
            (self.n_outputs >= 1, "n_outputs must be >= 1"),
            (self.ops_budget >= 1, "ops_budget must be >= 1"),
            (self.max_depth >= 0, "max_depth must be >= 0"),
            (0.0 <= self.branch_density <= 1.0,
             "branch_density must be in [0, 1]"),
            (0.0 <= self.loop_density <= 1.0,
             "loop_density must be in [0, 1]"),
            (self.max_for_bound >= 2, "max_for_bound must be >= 2"),
            (2 <= self.max_while_bits <= 8,
             "max_while_bits must be in [2, 8]"),
            (self.expr_depth >= 1, "expr_depth must be >= 1"),
            (bool(self.widths), "widths pool must not be empty"),
            (0.0 <= self.array_density <= 1.0,
             "array_density must be in [0, 1]"),
            (self.n_arrays >= 1, "n_arrays must be >= 1"),
            (bool(self.array_sizes), "array_sizes pool must not be empty"),
            (self.validate_passes >= 1, "validate_passes must be >= 1"),
        )
        for ok, message in checks:
            if not ok:
                raise ExperimentError(f"GenConfig: {message}")
        for width, _signed in self.widths:
            if not 1 <= width <= 32:
                raise ExperimentError(
                    f"GenConfig: width {width} outside [1, 32]")
        for size in self.array_sizes:
            if size < 2 or size > 1024 or size & (size - 1):
                raise ExperimentError(
                    f"GenConfig: array size {size} is not a power of two "
                    f"in [2, 1024]")
        return self
