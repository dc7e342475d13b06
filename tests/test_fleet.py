"""The coverage-guided fleet: corpus policy, triage dedup, determinism.

The expensive guided-vs-blind comparison runs at a pinned seed with the
CLI's generator family — the run is deterministic, so the strict
inequality asserted here is a property of the code, not of luck.
"""

import dataclasses
import json

import pytest

from repro.core.search import SearchConfig
from repro.errors import GenerationError
from repro.genprog import (
    GenConfig,
    emit_source,
    fleet_run,
    generate_program,
    triage_digest,
)
from repro.genprog import fleet as fleet_mod
from repro.genprog.fleet import Corpus
from repro.genprog.fuzz import ProgramVerdict
from repro.lang.frontend import parse_process

TINY = SearchConfig(max_depth=2, max_candidates=6, max_iterations=2, seed=0)

MINIMAL = parse_process("""
process m(a: uint4) -> (o: uint4) {
  o = (a + 1);
}
""")


def report_bytes(report) -> str:
    return json.dumps({"summary": report.summary(), "rows": report.rows()},
                      sort_keys=True)


class TestCorpus:
    def _program(self, seed):
        return generate_program(GenConfig(seed=seed), check=False)

    def test_keeps_only_new_bin_contributors(self):
        corpus = Corpus()
        new = corpus.consider(self._program(0), frozenset({"a", "b"}), "fresh")
        assert new == {"a", "b"}
        assert len(corpus.entries) == 1
        # A strict subset of covered bins is not kept.
        assert corpus.consider(self._program(1), frozenset({"a"}),
                               "fresh") == frozenset()
        assert len(corpus.entries) == 1
        assert corpus.covered == {"a", "b"}

    def test_pick_is_deterministic_per_rng(self):
        import random

        corpus = Corpus()
        corpus.consider(self._program(0), frozenset({"a", "b"}), "fresh")
        corpus.consider(self._program(1), frozenset({"b", "c"}), "fresh")
        picks = [corpus.pick(random.Random(7)).program.name
                 for _ in range(3)]
        assert len(set(picks)) == 1

    def test_mutator_weights_favor_deficit_families(self):
        corpus = Corpus()
        # Lots of shape coverage, almost no stg coverage: the mutators
        # serving the stg family must outweigh their base weight.
        corpus.covered = {f"shape:{i}" for i in range(6)} | {"stg:states:2"}
        weights = corpus.mutator_weights()
        assert set(weights) == {"splice", "graft", "widen", "nest"}
        assert all(w >= 1.0 for w in weights.values())
        assert weights["widen"] > 1.0  # widen serves stg + move deficits

    def test_empty_corpus_weights_are_uniform(self):
        assert set(Corpus().mutator_weights().values()) == {1.0}


class TestTriage:
    def test_digest_ignores_source_positions(self):
        other = parse_process(
            "process m(a: uint4) -> (o: uint4)\n{\n  o = (a + 1);\n}\n")
        assert triage_digest("divergence", MINIMAL) == triage_digest(
            "divergence", other)

    def test_digest_separates_stages(self):
        assert triage_digest("divergence", MINIMAL) != triage_digest(
            "synthesis", MINIMAL)

    def test_same_shrunk_failure_files_once(self, tmp_path, monkeypatch):
        # Two distinct programs whose failures shrink to the same minimal
        # reproducer must share one digest-named file, with both program
        # names recorded under the digest.
        def fake_fuzz(program, **_kw):
            return ProgramVerdict(name=program.name, seed=program.config.seed,
                                  status="divergence", detail="stubbed")

        monkeypatch.setattr(fleet_mod, "fuzz_program", fake_fuzz)
        monkeypatch.setattr(fleet_mod, "shrink_process",
                            lambda process, predicate, max_trials: MINIMAL)
        report = fleet_run(2, 0, guided=False, n_passes=4, search=TINY,
                           results_dir=tmp_path)
        digest = triage_digest("divergence", MINIMAL)
        assert report.triage == {digest: ["fleet0", "fleet1"]}
        filed = sorted(tmp_path.glob("fuzz_repro_*.src"))
        assert [p.name for p in filed] == [f"fuzz_repro_{digest}.src"]
        assert filed[0].read_text(encoding="utf-8") == emit_source(MINIMAL)
        assert all(v.verdict.reproducer == filed[0].name
                   for v in report.verdicts)


class TestFleetRun:
    GEN = GenConfig(ops_budget=14, max_depth=2)

    def test_report_is_byte_identical_across_runs(self, tmp_path):
        one = fleet_run(5, 3, gen=self.GEN, n_passes=4, search=TINY,
                        results_dir=tmp_path / "one")
        two = fleet_run(5, 3, gen=self.GEN, n_passes=4, search=TINY,
                        results_dir=tmp_path / "two")
        assert report_bytes(one) == report_bytes(two)

    def test_kept_entries_land_in_corpus_dir(self, tmp_path):
        report = fleet_run(4, 0, gen=self.GEN, n_passes=4, search=TINY,
                           results_dir=tmp_path)
        kept = [v for v in report.verdicts if v.kept]
        assert kept, "no program discovered a new bin"
        names = {p.name for p in (tmp_path / "fleet_corpus").glob("*.src")}
        assert names == {f"{v.verdict.name}.src" for v in kept}
        assert report.corpus_size == len(kept)

    def test_summary_shape(self, tmp_path):
        report = fleet_run(2, 0, gen=self.GEN, n_passes=4, search=TINY,
                           results_dir=tmp_path)
        summary = report.summary()
        assert summary["count"] == 2 and summary["seed"] == 0
        assert summary["guided"] is True
        assert summary["bins"] == len(report.covered) > 0
        assert isinstance(summary["coverage_digest"], str)
        assert sum(summary["bin_families"].values()) == summary["bins"]
        rows = report.rows()
        assert all({"origin", "bins", "new_bins", "kept"} <= set(row)
                   for row in rows)

    def test_generator_failure_is_filed_not_raised(self, tmp_path,
                                                    monkeypatch):
        # One generator-invariant failure must not abort the fleet: like
        # fuzz_run, it is recorded as status "generate", shrunk, and
        # filed under its triage digest, and the fleet goes on.
        real = fleet_mod.generate_program

        def flaky(config, *, name=None, check=True):
            if name == "fleet1" and check:
                raise GenerationError("injected invariant failure")
            return real(config, name=name, check=check)

        shrunk = []

        def fake_shrink(process, predicate, max_trials):
            shrunk.append(process.name)
            return MINIMAL

        monkeypatch.setattr(fleet_mod, "generate_program", flaky)
        monkeypatch.setattr(fleet_mod, "shrink_process", fake_shrink)
        report = fleet_run(3, 0, guided=False, gen=self.GEN, n_passes=4,
                           search=TINY, results_dir=tmp_path)
        assert [v.verdict.name for v in report.verdicts] == [
            "fleet0", "fleet1", "fleet2"]
        failed = report.verdicts[1].verdict
        assert failed.status == "generate"
        assert failed.detail == "injected invariant failure"
        assert "fleet1" in shrunk
        digest = triage_digest("generate", MINIMAL)
        assert report.triage[digest] == ["fleet1"]
        assert failed.reproducer == f"fuzz_repro_{digest}.src"
        assert (tmp_path / failed.reproducer).read_text(
            encoding="utf-8") == emit_source(MINIMAL)
        assert all(v.verdict.status != "generate"
                   for v in report.verdicts if v is not report.verdicts[1])

    def test_blind_never_mutates(self, tmp_path):
        report = fleet_run(4, 0, guided=False, gen=self.GEN, n_passes=4,
                           search=TINY, results_dir=tmp_path)
        assert all(v.origin == "fresh" for v in report.verdicts)


class TestGuidedBeatsBlind:
    def test_guided_discovers_strictly_more_bins(self, tmp_path):
        # Pinned seed, default generator family: deterministic, so the
        # strict inequality is stable.  Guided switches to breeding
        # mutants once fresh programs stop paying off.
        guided = fleet_run(28, 0, guided=True, n_passes=6, search=TINY,
                           results_dir=tmp_path / "guided")
        blind = fleet_run(28, 0, guided=False, n_passes=6, search=TINY,
                          results_dir=tmp_path / "blind")
        assert guided.ok and blind.ok
        assert any(v.origin != "fresh" for v in guided.verdicts)
        assert guided.n_bins > blind.n_bins, (
            f"guided {guided.n_bins} bins vs blind {blind.n_bins}")
        # Guided reaches structure the blind run never saw.
        assert set(guided.covered) - set(blind.covered)
