"""Every committed fuzz reproducer stays fixed.

Each ``tests/regressions/*.src`` runs the path ``repro fuzz --replay``
takes: :func:`~repro.genprog.program_from_source` wraps the source and
:func:`~repro.genprog.fuzz.fuzz_program` runs the source round trip plus
the whole synthesize + conformance oracle chain at every fuzz laxity.
Copying a fixed bug's reproducer into that directory is enough to pin it.
"""

from pathlib import Path

import pytest

from repro.genprog import program_from_source
from repro.genprog.fuzz import fuzz_program

REPRODUCERS = sorted((Path(__file__).parent / "regressions").glob("*.src"))


def test_reproducers_are_committed():
    assert REPRODUCERS, "tests/regressions/ holds no reproducers"


@pytest.mark.parametrize("path", REPRODUCERS, ids=lambda path: path.stem)
def test_reproducer_passes_the_oracle_chain(path):
    program = program_from_source(path.read_text(encoding="utf-8"))
    verdict = fuzz_program(program, use_iverilog="off")
    assert verdict.ok, f"{verdict.status}: {verdict.detail}"
