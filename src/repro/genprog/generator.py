"""Seeded random generator of control-flow-intensive behavioral programs.

:func:`generate_program` turns a :class:`~repro.genprog.config.GenConfig`
into a :class:`GeneratedProgram`: a well-typed process AST plus its
emitted source text, a seeded stimulus generator over the program's own
input types, and a reference model (the direct AST evaluator).  The
output is **accepted by the real frontend by construction** and
**terminating by construction**:

* every variable is declared (with an explicit type) and initialized
  before any use, names are globally unique (the CDFG builder rejects
  shadowing), and block-local variables are only referenced inside their
  block;
* ``for`` loops run to small constant bounds with untouched iterators;
  ``while`` loops are countdowns over a fresh unsigned counter that is
  decremented exactly once per iteration, bounding every entry to
  ``2**width - 1`` trips;
* conditions are always 1-bit expressions (comparisons / logical
  connectives), never bare multi-bit variables — the CDFG builder's
  1-bit condition funnel makes wider conditions structurally ambiguous;
* loops carry dependencies: each loop body starts with an accumulation
  into a variable declared outside the loop.

Every generated program passes the **round-trip invariant** before it is
returned: the emitted source is re-parsed (structural equality with the
generated AST), compiled to a CDFG, interpreted over a seeded stimulus,
and diffed against :func:`repro.genprog.evaluate.evaluate_process`.  Any
disagreement raises :class:`~repro.errors.GenerationError` — the
generator never hands out a program whose frontend round-trip changed
its semantics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import GenerationError
from repro.genprog.config import GenConfig
from repro.genprog.emit import emit_source, strip_positions
from repro.genprog.evaluate import evaluate_passes, evaluate_process
from repro.lang import ast_nodes as ast
from repro.lang.frontend import parse_process

#: Binary operators available to value expressions, with draw weights
#: (control-flow-intensive mix: cheap ALU ops dominate, multiplies rare).
_VALUE_OPS: tuple[tuple[str, int], ...] = (
    ("+", 5), ("-", 5), ("&", 2), ("|", 2), ("^", 2),
    ("*", 1), ("<<", 1), (">>", 1),
)

_COMPARE_OPS: tuple[str, ...] = ("<", ">", "<=", ">=", "==", "!=")


def _weighted(rng: random.Random, table: tuple[tuple[str, int], ...]) -> str:
    total = sum(weight for _, weight in table)
    pick = rng.randrange(total)
    for item, weight in table:
        pick -= weight
        if pick < 0:
            return item
    raise AssertionError("unreachable")


def _has_var(expr: ast.Expr) -> bool:
    return bool(ast.used_names(expr))


@dataclass(frozen=True)
class GeneratedProgram:
    """One generated benchmark-shaped program.

    ``stimulus``/``reference`` mirror the registry :class:`Benchmark`
    protocol so generated programs can ride the same synthesis,
    exploration and conformance machinery as the paper's six.
    """

    name: str
    config: GenConfig
    process: ast.Process
    source: str

    def stimulus(self, n_passes: int, seed: int = 0) -> list[dict[str, int]]:
        """Seeded uniform stimulus over the program's own input types."""
        rng = random.Random(f"stim:{self.config.seed}:{seed}")
        passes = []
        for _ in range(n_passes):
            inputs = {}
            for param in self.process.inputs:
                if param.type.signed:
                    lo, hi = -(1 << (param.type.width - 1)), 1 << (param.type.width - 1)
                else:
                    lo, hi = 0, 1 << param.type.width
                inputs[param.name] = rng.randrange(lo, hi)
            passes.append(inputs)
        return passes

    def reference(self, **inputs: int) -> dict[str, int]:
        """Reference outputs for one pass (the direct AST evaluator)."""
        return evaluate_process(self.process, inputs)

    @property
    def n_statements(self) -> int:
        return sum(1 for _ in ast.walk_statements(self.process.body))

    def cdfg(self):
        from repro.lang import parse

        return parse(self.source)


@dataclass
class _Scope:
    """What a block may read and write while being generated."""

    #: (name, type) pairs readable here (inputs + initialized variables).
    readable: list[tuple[str, ast.Type]] = field(default_factory=list)
    #: Names assignable here (excludes inputs and active loop counters).
    assignable: list[str] = field(default_factory=list)

    def child(self) -> "_Scope":
        return _Scope(list(self.readable), list(self.assignable))


class _Generator:
    def __init__(self, config: GenConfig, name: str):
        self._cfg = config.validated()
        # String seeding hashes with sha512 — stable across platforms
        # and python versions, which the pinned corpus relies on.
        self._rng = random.Random(f"genprog:{config.seed}")
        self._name = name
        self._counter = 0
        self._budget = config.ops_budget
        #: (name, element type, size) of every declared array.  Empty when
        #: array_density is 0 — and every array-related rng draw below is
        #: short-circuited on this list, so disabling arrays reproduces
        #: pre-array programs byte-identically.
        self._arrays: list[tuple[str, ast.Type, int]] = []

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _type(self) -> ast.Type:
        width, signed = self._rng.choice(self._cfg.widths)
        return ast.Type(width, signed)

    # -- expressions --------------------------------------------------------

    def _literal(self) -> ast.IntLit:
        return ast.IntLit(line=0, value=self._rng.randrange(0, 16))

    def _var_ref(self, scope: _Scope) -> ast.VarRef:
        name, _vtype = self._rng.choice(scope.readable)
        return ast.VarRef(line=0, name=name)

    def _expr(self, scope: _Scope, depth: int, *, loads: bool = True) -> ast.Expr:
        """A value expression (binary ops always read >= 1 variable).

        ``loads=False`` keeps array reads out of the tree — conditions use
        it, because the frontend rejects loads in loop tests (the kernel
        scheduler hoists tests past body stores).
        """
        rng = self._rng
        if depth <= 0 or rng.random() < 0.35:
            if loads and self._arrays and rng.random() < 0.30:
                return self._load(scope)
            if rng.random() < 0.25:
                return self._literal()
            return self._var_ref(scope)
        op = _weighted(rng, _VALUE_OPS)
        if op in ("<<", ">>"):
            left = self._expr(scope, depth - 1, loads=loads)
            if rng.random() < 0.25:
                # Variable shift amount, masked small: a >> (b & 3).
                right: ast.Expr = ast.BinaryOp(
                    line=0, op="&", left=self._var_ref(scope),
                    right=ast.IntLit(line=0, value=3))
            else:
                right = ast.IntLit(line=0, value=rng.randrange(1, 4))
            return ast.BinaryOp(line=0, op=op, left=left, right=right)
        left = self._expr(scope, depth - 1, loads=loads)
        if rng.random() < 0.3:
            right = self._literal()
        else:
            right = self._expr(scope, depth - 1, loads=loads)
        if not _has_var(left) and not _has_var(right):
            right = self._var_ref(scope)
        expr = ast.BinaryOp(line=0, op=op, left=left, right=right)
        if rng.random() < 0.08:
            return ast.UnaryOp(line=0, op="-", operand=expr)
        return expr

    def _compare(self, scope: _Scope) -> ast.Expr:
        rng = self._rng
        op = rng.choice(_COMPARE_OPS)
        left = self._expr(scope, 1, loads=False)
        right = (self._literal() if rng.random() < 0.5
                 else self._expr(scope, 1, loads=False))
        if not _has_var(left) and not _has_var(right):
            right = self._var_ref(scope)
        return ast.BinaryOp(line=0, op=op, left=left, right=right)

    # -- array accesses -----------------------------------------------------

    def _index(self, scope: _Scope) -> ast.Expr:
        """A small index expression; any value works (indices wrap)."""
        if self._rng.random() < 0.6:
            return self._var_ref(scope)
        return self._literal()

    def _load(self, scope: _Scope) -> ast.IndexExpr:
        name, _etype, _size = self._rng.choice(self._arrays)
        return ast.IndexExpr(line=0, name=name, index=self._index(scope))

    def _store(self, scope: _Scope) -> ast.ArrayAssign:
        name, _etype, _size = self._rng.choice(self._arrays)
        return ast.ArrayAssign(line=0, name=name, index=self._index(scope),
                               value=self._expr(scope, self._cfg.expr_depth))

    def _load_assign(self, scope: _Scope) -> ast.Assign:
        """A scalar assignment guaranteed to read an array."""
        name = self._rng.choice(scope.assignable)
        load = self._load(scope)
        if self._rng.random() < 0.5:
            value: ast.Expr = load
        else:
            value = ast.BinaryOp(line=0, op=self._rng.choice(("+", "-", "^")),
                                 left=load, right=self._var_ref(scope))
        return ast.Assign(line=0, name=name, value=value)

    def _array_prelude(self) -> tuple[ast.Stmt, ...]:
        """Declare one array and zero-fill it with a generated loop.

        The fill runs before any dynamic access, so every later load sees
        only values stored this pass — which is what keeps the per-pass
        stateless AST-evaluator reference valid even though arrays persist
        across passes in the real pipeline.
        """
        name = self._fresh("m")
        etype = self._type()
        size = self._rng.choice(self._cfg.array_sizes)
        self._arrays.append((name, etype, size))
        iterator = self._fresh("z")
        itype = ast.Type(max(8, size.bit_length() + 1), signed=True)
        self._budget -= 2
        return (
            ast.ArrayDecl(line=0, name=name, elem_type=etype, size=size),
            ast.VarDecl(line=0, name=iterator, declared_type=itype,
                        init=ast.IntLit(line=0, value=0)),
            ast.For(
                line=0,
                init=ast.Assign(line=0, name=iterator,
                                value=ast.IntLit(line=0, value=0)),
                cond=ast.BinaryOp(line=0, op="<",
                                  left=ast.VarRef(line=0, name=iterator),
                                  right=ast.IntLit(line=0, value=size)),
                update=ast.Assign(line=0, name=iterator, value=ast.BinaryOp(
                    line=0, op="+", left=ast.VarRef(line=0, name=iterator),
                    right=ast.IntLit(line=0, value=1))),
                body=(ast.ArrayAssign(line=0, name=name,
                                      index=ast.VarRef(line=0, name=iterator),
                                      value=ast.IntLit(line=0, value=0)),)),
        )

    def _condition(self, scope: _Scope) -> ast.Expr:
        """A 1-bit condition: comparisons joined by logical connectives."""
        rng = self._rng
        cond = self._compare(scope)
        if rng.random() < 0.25:
            cond = ast.BinaryOp(line=0, op=rng.choice(("&&", "||")),
                                left=cond, right=self._compare(scope))
        if rng.random() < 0.10:
            cond = ast.UnaryOp(line=0, op="!", operand=cond)
        return cond

    # -- statements ---------------------------------------------------------

    def _assign(self, scope: _Scope) -> ast.Assign:
        name = self._rng.choice(scope.assignable)
        return ast.Assign(line=0, name=name, value=self._expr(
            scope, self._cfg.expr_depth))

    def _decl(self, scope: _Scope) -> ast.VarDecl:
        name = self._fresh("v")
        vtype = self._type()
        decl = ast.VarDecl(line=0, name=name, declared_type=vtype,
                           init=self._expr(scope, self._cfg.expr_depth))
        scope.readable.append((name, vtype))
        scope.assignable.append(name)
        return decl

    def _accumulation(self, scope: _Scope, extra: ast.Expr | None = None,
                      ) -> ast.Assign:
        """A loop-carried dependency: acc = acc op expr."""
        name = self._rng.choice(scope.assignable)
        op = self._rng.choice(("+", "-", "^", "+", "|"))
        operand = extra if extra is not None else self._expr(scope, 1)
        return ast.Assign(line=0, name=name, value=ast.BinaryOp(
            line=0, op=op, left=ast.VarRef(line=0, name=name), right=operand))

    def _if(self, scope: _Scope, depth: int) -> ast.If:
        cond = self._condition(scope)
        then_body = self._block(scope.child(), depth + 1, min_stmts=1)
        else_body: tuple[ast.Stmt, ...] = ()
        if self._rng.random() < 0.7:
            else_body = self._block(scope.child(), depth + 1, min_stmts=1)
        return ast.If(line=0, cond=cond, then_body=then_body,
                      else_body=else_body)

    def _for(self, scope: _Scope, depth: int) -> tuple[ast.Stmt, ...]:
        """A bounded for loop (plus a hoisted iterator declaration).

        The declaration makes the iterator block-scoped: a bare
        header-init assignment would be the variable's first definition,
        and inside an ``if`` arm under an enclosing loop the CDFG
        builder (soundly) rejects that as a loop-carried read with no
        pre-branch value.  Declared variables are arm-local instead.
        """
        iterator = self._fresh("i")
        bound = self._rng.randrange(2, self._cfg.max_for_bound + 1)
        body_scope = scope.child()
        # The iterator is readable inside the body but never assignable.
        body_scope.readable.append((iterator, ast.Type(8, signed=True)))
        body = (self._accumulation(body_scope,
                                   extra=ast.VarRef(line=0, name=iterator)),
                *self._block(body_scope, depth + 1, min_stmts=0))
        self._budget -= 2
        decl = ast.VarDecl(line=0, name=iterator,
                           declared_type=ast.Type(8, signed=True),
                           init=ast.IntLit(line=0, value=0))
        loop = ast.For(
            line=0,
            init=ast.Assign(line=0, name=iterator,
                            value=ast.IntLit(line=0, value=0)),
            cond=ast.BinaryOp(line=0, op="<",
                              left=ast.VarRef(line=0, name=iterator),
                              right=ast.IntLit(line=0, value=bound)),
            update=ast.Assign(line=0, name=iterator, value=ast.BinaryOp(
                line=0, op="+", left=ast.VarRef(line=0, name=iterator),
                right=ast.IntLit(line=0, value=1))),
            body=body)
        return decl, loop

    def _while(self, scope: _Scope, depth: int) -> tuple[ast.Stmt, ...]:
        """A countdown while loop (plus its counter declaration)."""
        counter = self._fresh("t")
        bits = self._rng.randrange(2, self._cfg.max_while_bits + 1)
        ctype = ast.Type(bits, signed=False)
        decl = ast.VarDecl(line=0, name=counter, declared_type=ctype,
                           init=self._expr(scope, 1))
        body_scope = scope.child()
        # Counter readable but not assignable: the trailing decrement is
        # the only write, so every entry terminates in < 2**bits trips.
        body_scope.readable.append((counter, ctype))
        body = (self._accumulation(body_scope),
                *self._block(body_scope, depth + 1, min_stmts=0),
                ast.Assign(line=0, name=counter, value=ast.BinaryOp(
                    line=0, op="-", left=ast.VarRef(line=0, name=counter),
                    right=ast.IntLit(line=0, value=1))))
        loop = ast.While(line=0, cond=ast.BinaryOp(
            line=0, op=">", left=ast.VarRef(line=0, name=counter),
            right=ast.IntLit(line=0, value=0)), body=body)
        self._budget -= 2
        return decl, loop

    def _block(self, scope: _Scope, depth: int, *,
               min_stmts: int) -> tuple[ast.Stmt, ...]:
        cfg = self._cfg
        rng = self._rng
        stmts: list[ast.Stmt] = []
        n_slots = max(min_stmts, rng.randrange(1, 4))
        while len(stmts) < n_slots and (self._budget > 0
                                        or len(stmts) < min_stmts):
            self._budget -= 1
            roll = rng.random()
            if depth < cfg.max_depth and roll < cfg.branch_density:
                stmts.append(self._if(scope, depth))
            elif depth < cfg.max_depth and roll < (cfg.branch_density
                                                   + cfg.loop_density):
                if rng.random() < 0.5:
                    stmts.extend(self._for(scope, depth))
                else:
                    stmts.extend(self._while(scope, depth))
            elif self._arrays and roll < (cfg.branch_density + cfg.loop_density
                                          + cfg.array_density):
                if rng.random() < 0.5:
                    stmts.append(self._store(scope))
                else:
                    stmts.append(self._load_assign(scope))
            elif roll < cfg.branch_density + cfg.loop_density + 0.15:
                stmts.append(self._decl(scope))
            else:
                stmts.append(self._assign(scope))
        return tuple(stmts)

    # -- top level ----------------------------------------------------------

    def run(self) -> ast.Process:
        cfg = self._cfg
        rng = self._rng
        inputs = []
        for idx in range(cfg.n_inputs):
            inputs.append(ast.Param(f"a{idx}", self._type()))
        if cfg.n_inputs >= 2 and len({p.type.signed for p in inputs}) == 1:
            # Guarantee a signed/unsigned mix among the inputs.
            want = not inputs[0].type.signed
            pool = [w for w in cfg.widths if w[1] is want]
            width, signed = rng.choice(pool or [(8, want)])
            inputs[1] = ast.Param(inputs[1].name, ast.Type(width, signed))
        outputs = [ast.Param(f"o{idx}", self._type())
                   for idx in range(cfg.n_outputs)]

        scope = _Scope(readable=[(p.name, p.type) for p in inputs],
                       assignable=[])
        body: list[ast.Stmt] = []
        for _ in range(max(2, cfg.n_outputs)):
            body.append(self._decl(scope))
        if cfg.array_density > 0:
            for _ in range(cfg.n_arrays):
                body.extend(self._array_prelude())
        body.extend(self._block(scope, 0, min_stmts=2))
        for param in outputs:
            body.append(ast.Assign(line=0, name=param.name,
                                   value=self._expr(scope, cfg.expr_depth)))
        return ast.Process(name=self._name, inputs=tuple(inputs),
                           outputs=tuple(outputs), body=tuple(body), line=1)


def check_roundtrip(program: GeneratedProgram, *, n_passes: int | None = None,
                    seed: int = 1):
    """The generator-level semantic invariant (satellite of the fuzz loop).

    Re-parses the program's own emission, asserts the parsed AST is
    structurally identical to the generated one, compiles it to a CDFG
    and diffs the interpreter's outputs against the direct AST evaluator
    over a seeded stimulus.  Raises :class:`GenerationError` on any
    drift — a program that fails this check is itself a shrunken-down
    frontend bug reproducer, never a valid corpus entry.

    Returns the validated CDFG so callers (the fuzz chain) can hand it
    straight to synthesis instead of re-parsing the same source.
    """
    from repro.cdfg.builder import build_cdfg
    from repro.cdfg.interpreter import simulate

    try:
        parsed = parse_process(program.source)
    except Exception as exc:
        raise GenerationError(
            f"{program.name}: emitted source does not re-parse: {exc}") from exc
    if strip_positions(parsed) != strip_positions(program.process):
        raise GenerationError(
            f"{program.name}: parse(emit(ast)) is not the emitted AST")
    cdfg = build_cdfg(parsed)
    cdfg.validate()
    n = n_passes if n_passes is not None else program.config.validate_passes
    stimulus = program.stimulus(n, seed=seed)
    store = simulate(cdfg, stimulus)
    # One evaluator across all passes: arrays persist, like the pipeline.
    expected_passes = evaluate_passes(program.process, stimulus)
    for idx, (inputs, expected) in enumerate(zip(stimulus, expected_passes)):
        for name, value in expected.items():
            got = int(store.outputs[name][idx])
            if got != value:
                raise GenerationError(
                    f"{program.name}: frontend round-trip changed semantics: "
                    f"pass {idx} output {name} = {got} (interpreter) but the "
                    f"AST evaluator says {value} for inputs {inputs}")
    return cdfg


def generate_program(config: GenConfig | None = None, *,
                     name: str | None = None,
                     check: bool = True) -> GeneratedProgram:
    """Generate one program from ``config`` (bit-reproducible per config).

    ``check=True`` (the default) runs :func:`check_roundtrip` before
    returning; disable it only inside the shrinker, which re-validates
    candidates itself.
    """
    config = (config or GenConfig()).validated()
    safe_seed = str(config.seed).replace("-", "m")
    process_name = name or f"gen{safe_seed}"
    process = _Generator(config, process_name).run()
    program = GeneratedProgram(name=process_name, config=config,
                               process=process, source=emit_source(process))
    if check:
        check_roundtrip(program)
    return program


def program_from_source(source: str, *, config: GenConfig | None = None,
                        ) -> GeneratedProgram:
    """Wrap externally-supplied source (e.g. a saved fuzz reproducer).

    Parses and type-checks ``source`` and returns a
    :class:`GeneratedProgram` whose stimulus/reference are derived from
    the parsed AST — the hook behind ``repro fuzz --replay``.
    """
    process = parse_process(source)
    return GeneratedProgram(name=process.name,
                            config=(config or GenConfig()).validated(),
                            process=process, source=source)
