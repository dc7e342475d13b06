"""Coverage-guided fuzzing fleet: corpus scheduling over structural bins.

The blind fuzzer (:mod:`repro.genprog.fuzz`) samples independent programs
from the generator; every program exercises roughly the same slice of the
pipeline.  The fleet closes the loop: each program's run is folded into a
set of **structural coverage bins** (:mod:`repro.genprog.coverage`), and
programs that lit up bins nobody had hit before are kept in a corpus.
Subsequent programs are *mutants* of rare corpus entries — spliced,
grafted, widened and nested by :mod:`repro.genprog.mutate`, with the
mutator choice biased toward bin families the corpus is short on — so the
fleet climbs toward region shapes, STG patterns and conformance paths
the generator alone would take far longer to reach.

Failures ride the existing shrink machinery, but are filed under a
**triage digest** — a stable hash of ``(failure stage, shrunk AST)`` — so
two programs that shrink to the same minimal reproducer land in one
``results/fuzz_repro_<digest>.src`` file instead of two copies.

Everything is deterministic in ``(seed, knobs)``: the per-program RNG is
``random.Random(f"fleet:{seed}:{index}")``, corpus evolution is a pure
function of the verdict stream, and the report carries no wall-clock
data — ``results/fleet.json`` is bit-identical across runs and across
cache on/off and store warm/cold (a CI-enforced property).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import GenerationError, ReproError
from repro.genprog.config import GenConfig
from repro.genprog.coverage import bin_families, coverage_digest, extract_coverage
from repro.genprog.emit import emit_source, strip_positions
from repro.genprog.fuzz import (
    DEFAULT_LAXITIES,
    SEED_STRIDE,
    ProgramVerdict,
    _search_config,
    _still_fails,
    fuzz_program,
)
from repro.genprog.generator import GeneratedProgram, check_roundtrip, generate_program
from repro.genprog.mutate import MUTATORS, mutate
from repro.genprog.shrink import shrink_process

#: How many mutation attempts (validation failures) before falling back
#: to a fresh generated program for the slot.
MUTATION_RETRIES = 8

#: Consecutive *fresh* programs that discovered no new bin before the
#: scheduler switches from sampling the generator to breeding mutants.
#: Fresh programs are cheap diversity early on; mutants only beat them
#: once the generator's own bin space is close to saturated.
FRESH_PATIENCE = 2

#: Bin-family -> mutators most likely to light up new bins in it.  The
#: scheduler weights each mutator by the families it serves, scaled by
#: how *few* bins that family has so far (deficit bias).
_FAMILY_MUTATORS: dict[str, tuple[str, ...]] = {
    "shape": ("nest", "graft"),
    "depth": ("nest",),
    "stg": ("nest", "widen", "splice"),
    "move": ("widen", "graft"),
    "commit": ("graft", "splice"),
    "path": ("nest", "splice"),
}


@dataclass
class CorpusEntry:
    """One kept program: it discovered bins nobody had hit before."""

    program: GeneratedProgram
    bins: frozenset[str]
    new_bins: frozenset[str]
    origin: str  # "fresh" | "mutant:<op>:<parent>"


class Corpus:
    """The fleet's seed pool plus the global covered-bin set.

    ``consider`` keeps a program iff it contributed at least one new
    bin; ``pick`` samples an entry weighted by *rarity* — the summed
    inverse frequency of its bins across the corpus — so programs whose
    structure few others share get mutated more often.
    """

    def __init__(self) -> None:
        self.entries: list[CorpusEntry] = []
        self.covered: set[str] = set()
        self._bin_counts: dict[str, int] = {}

    def consider(self, program: GeneratedProgram, bins: frozenset[str],
                 origin: str) -> frozenset[str]:
        """Fold one run's bins in; returns the newly-discovered bins."""
        new = frozenset(bins - self.covered)
        self.covered |= bins
        if new:
            self.entries.append(CorpusEntry(program=program, bins=bins,
                                            new_bins=new, origin=origin))
            for name in bins:
                self._bin_counts[name] = self._bin_counts.get(name, 0) + 1
        return new

    def pick(self, rng) -> CorpusEntry:
        weights = []
        for entry in self.entries:
            weights.append(sum(1.0 / self._bin_counts[name]
                               for name in entry.bins))
        return rng.choices(self.entries, weights=weights, k=1)[0]

    def mutator_weights(self) -> dict[str, float]:
        """Deficit-biased mutator weights from the covered-bin families."""
        families = bin_families(self.covered)
        weights = {op: 1.0 for op in MUTATORS}
        most = max(families.values(), default=0)
        for family, ops in _FAMILY_MUTATORS.items():
            deficit = most - families.get(family, 0)
            for op in ops:
                weights[op] += deficit
        return weights


@dataclass
class FleetVerdict:
    """Per-program fleet outcome: fuzz verdict plus coverage accounting."""

    verdict: ProgramVerdict
    origin: str
    bins: frozenset[str] = frozenset()
    new_bins: frozenset[str] = frozenset()
    kept: bool = False

    def row(self) -> dict:
        row = self.verdict.row()
        row.update({
            "origin": self.origin,
            "bins": len(self.bins),
            "new_bins": sorted(self.new_bins),
            "kept": self.kept,
        })
        return row


@dataclass
class FleetReport:
    """Outcome of one fleet run (JSON-stable: no ids, no wall clock)."""

    count: int
    seed: int
    guided: bool
    laxities: tuple[float, ...]
    n_passes: int
    verdicts: list[FleetVerdict] = field(default_factory=list)
    covered: set[str] = field(default_factory=set)
    #: triage digest -> sorted program names that shrank to it.
    triage: dict[str, list[str]] = field(default_factory=dict)
    corpus_size: int = 0

    @property
    def ok(self) -> bool:
        return all(v.verdict.ok for v in self.verdicts)

    @property
    def n_bins(self) -> int:
        return len(self.covered)

    def rows(self) -> list[dict]:
        return [v.row() for v in self.verdicts]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "guided": self.guided,
            "laxities": list(self.laxities),
            "n_passes": self.n_passes,
            "ok": self.ok,
            "bins": self.n_bins,
            "bin_families": bin_families(self.covered),
            "coverage_digest": coverage_digest(frozenset(self.covered)),
            "corpus_size": self.corpus_size,
            "triage": {digest: sorted(names)
                       for digest, names in sorted(self.triage.items())},
        }


def triage_digest(stage: str, process) -> str:
    """Stable short digest of (failure stage, shrunk AST) for dedup."""
    from repro.store import digest_key

    return digest_key((stage, strip_positions(process)))[:12]


def _file_reproducer(program: GeneratedProgram, stage: str, laxities,
                     n_passes: int, search, use_iverilog: str,
                     results_dir: Path, max_trials: int,
                     store_dir=None) -> tuple[str, str]:
    """Shrink a failure and file it under its triage digest.

    Returns ``(digest, path)``.  Two failures that shrink to the same
    minimal program at the same stage share a digest — the second filing
    is a no-op (the bytes are identical by construction).
    """
    small = shrink_process(
        program.process,
        lambda proc: _still_fails(proc, program.config, laxities, n_passes,
                                  search, use_iverilog, store_dir=store_dir),
        max_trials=max_trials)
    digest = triage_digest(stage, small)
    path = results_dir / f"fuzz_repro_{digest}.src"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(emit_source(small), encoding="utf-8")
    # The row records the digest-named file, not the absolute path --
    # reports must stay byte-identical across checkout locations.
    return digest, path.name


def _mutant_program(corpus: Corpus, rng, name: str, program_seed: int,
                    template: GenConfig, n_passes: int):
    """Try to breed a validated mutant from the corpus; None on give-up.

    Mutator choice is deficit-biased toward under-covered bin families;
    a mutant must survive the full round-trip check (compile + AST/
    interpreter agreement over the fuzz stimulus) to be scheduled — the
    check *executes* the program, so accepted mutants also terminate.
    """
    weights = corpus.mutator_weights()
    ops = list(MUTATORS)
    for _ in range(MUTATION_RETRIES):
        parent = corpus.pick(rng)
        donor = corpus.pick(rng)
        op = rng.choices(ops, weights=[weights[o] for o in ops], k=1)[0]
        mutant = mutate(parent.program.process, op, rng,
                        donor=donor.program.process)
        if mutant is None:
            continue
        mutant = dataclasses.replace(mutant, name=name)
        config = dataclasses.replace(template, seed=program_seed)
        candidate = GeneratedProgram(name=name, config=config,
                                     process=mutant,
                                     source=emit_source(mutant))
        try:
            cdfg = check_roundtrip(candidate, n_passes=n_passes, seed=0)
        except ReproError:
            continue
        origin = f"mutant:{op}:{parent.program.name}"
        return candidate, cdfg, origin
    return None


def fleet_run(count: int, seed: int, *, guided: bool = True,
              laxities=DEFAULT_LAXITIES, n_passes: int = 10,
              gen: GenConfig | None = None, search=None,
              use_iverilog: str = "off",
              results_dir: Path | str = "results",
              corpus_dir: Path | str | None = None,
              shrink_trials: int = 200, store_dir=None) -> FleetReport:
    """Run ``count`` programs with structural-coverage feedback.

    ``guided=False`` is the blind baseline: the exact generator family
    ``fuzz_run`` samples (seed * SEED_STRIDE + index), with coverage
    *measured* but never steering — the control arm the acceptance test
    compares against.  ``guided=True`` breeds mutants of rare corpus
    entries once the corpus is non-empty.

    ``corpus_dir`` (default ``<results_dir>/fleet_corpus``) receives the
    source of every kept entry, so a nightly fleet's corpus can seed the
    next run or be attached to a bug report.
    """
    results_dir = Path(results_dir)
    corpus_dir = Path(corpus_dir) if corpus_dir is not None else (
        results_dir / "fleet_corpus")
    template = (gen or GenConfig()).validated()
    search = _search_config(search)
    report = FleetReport(count=count, seed=seed, guided=guided,
                         laxities=tuple(laxities), n_passes=n_passes)
    corpus = Corpus()
    fresh_dry = 0  # consecutive fresh programs with zero new bins

    for index in range(count):
        rng = random.Random(f"fleet:{seed}:{index}")
        program_seed = seed * SEED_STRIDE + index
        name = f"fleet{index}"
        bred = None
        if guided and corpus.entries and fresh_dry >= FRESH_PATIENCE:
            bred = _mutant_program(corpus, rng, name, program_seed,
                                   template, n_passes)
        generate_error = None
        if bred is not None:
            program, _cdfg, origin = bred
        else:
            config = dataclasses.replace(template, seed=program_seed)
            origin = "fresh"
            try:
                program = generate_program(config, name=name)
            except GenerationError as exc:
                # The generator's own invariant tripped: the emitted
                # source is itself the reproducer, as in ``fuzz_run``.
                program = generate_program(config, name=name, check=False)
                generate_error = str(exc)

        bins: set[str] = set()

        def observe(_laxity, result):
            bins.update(extract_coverage(cdfg=result.design.cdfg,
                                         history=result.history,
                                         stg=result.design.stg,
                                         replay=result.design.rep))

        if generate_error is not None:
            verdict = ProgramVerdict(
                name=name, seed=program_seed, status="generate",
                n_statements=program.n_statements, detail=generate_error)
        else:
            verdict = fuzz_program(program, laxities=laxities,
                                   n_passes=n_passes, search=search,
                                   use_iverilog=use_iverilog,
                                   store_dir=store_dir, observer=observe)
        if not bins:
            # Failed before any laxity synthesized: the region shape is
            # still coverage (and often the interesting part).
            from repro.lang import parse
            try:
                bins.update(extract_coverage(cdfg=parse(program.source)))
            except ReproError:
                pass

        entry = FleetVerdict(verdict=verdict, origin=origin,
                             bins=frozenset(bins))
        entry.new_bins = corpus.consider(program, entry.bins, origin)
        entry.kept = bool(entry.new_bins)
        if origin == "fresh":
            fresh_dry = 0 if entry.new_bins else fresh_dry + 1
        if entry.kept:
            corpus_dir.mkdir(parents=True, exist_ok=True)
            (corpus_dir / f"{name}.src").write_text(program.source,
                                                    encoding="utf-8")
        if not verdict.ok:
            digest, path = _file_reproducer(
                program, verdict.status, laxities, n_passes, search,
                use_iverilog, results_dir, shrink_trials,
                store_dir=store_dir)
            verdict.reproducer = path
            report.triage.setdefault(digest, []).append(name)
        report.verdicts.append(entry)

    report.covered = set(corpus.covered)
    report.corpus_size = len(corpus.entries)
    return report
