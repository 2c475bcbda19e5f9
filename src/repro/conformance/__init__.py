"""Conformance corpus, differential engine checker, and mutation fuzzer.

Three pillars guard the five-criterion checker and the DPI engine against
silent behavior drift:

- :mod:`repro.conformance.golden` records every (app × network) cell's
  verdicts, datagram classes, and metrics as versioned golden JSON;
- :mod:`repro.conformance.differ` replays the corpus through sweep,
  fast-path, streaming and columnar engine configurations and
  demands bit-identical output, reporting the first divergent message
  otherwise;
- :mod:`repro.conformance.fuzzer` mutates well-formed messages one
  violation at a time and asserts the checker attributes each mutation
  to exactly the violated criterion.
"""

from repro.conformance.differ import (
    ENGINE_SPECS,
    Drift,
    DriftReport,
    EngineSpec,
    check_corpus,
    check_impaired_corpora,
)
from repro.conformance.fuzzer import (
    MUTATORS,
    SEED_KINDS,
    FuzzFailure,
    FuzzReport,
    Mutated,
    Mutator,
    Seed,
    builtin_seeds,
    fuzz,
    harvest_seeds,
    minimize_wire,
    rewrap,
    run_oracle,
)
from repro.conformance.golden import (
    IMPAIRED_CORPORA,
    RERECORD_HINT,
    SCHEMA_VERSION,
    CorpusConfig,
    GoldenMismatchError,
    build_facts,
    cell_name,
    default_corpus_dir,
    facts_digest,
    impaired_corpus_dir,
    load_cell,
    load_manifest,
    record_cell,
    record_corpus,
    record_impaired_corpora,
)

__all__ = [
    "ENGINE_SPECS",
    "IMPAIRED_CORPORA",
    "MUTATORS",
    "RERECORD_HINT",
    "SCHEMA_VERSION",
    "SEED_KINDS",
    "CorpusConfig",
    "Drift",
    "DriftReport",
    "EngineSpec",
    "FuzzFailure",
    "FuzzReport",
    "GoldenMismatchError",
    "Mutated",
    "Mutator",
    "Seed",
    "build_facts",
    "builtin_seeds",
    "cell_name",
    "check_corpus",
    "check_impaired_corpora",
    "default_corpus_dir",
    "facts_digest",
    "fuzz",
    "harvest_seeds",
    "impaired_corpus_dir",
    "load_cell",
    "load_manifest",
    "minimize_wire",
    "record_cell",
    "record_corpus",
    "record_impaired_corpora",
    "rewrap",
    "run_oracle",
]
