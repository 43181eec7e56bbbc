"""Dictionary-based pattern entropy: causal direction inference for symbolic sequences."""

from .baselines import (
    BaselineVerdict,
    ComplexityValue,
    baseline_verdicts,
    etc_complexity,
    joint_sequence,
    lz76_complexity,
)
from .bench import (
    GenomicHypothesisResult,
    SweepResult,
    run_genomic,
    run_sweep,
)
from .core import (
    CausalReport,
    DirectionalScore,
    FlipDictionary,
    PatternScore,
    PatternSet,
    binary_entropy,
    build_flip_dictionary,
    build_pattern_set,
    count_occurrences,
    extract_common_subpatterns,
    infer_causal_direction,
    report_text,
    response_determinism,
    score_direction,
)
from .errors import (
    CsvParseError,
    DegenerateSeriesWarning,
    FastaParseError,
    InputError,
    UnusablePairError,
)
from .rng import RngStream
from .seqcore import (
    Direction,
    FastaRecord,
    MaskedSequence,
    RealSeries,
    SequencePair,
    SymbolSequence,
    align_pair,
    binarize_equiwidth,
    binarize_nonzero,
    load_fasta,
    load_pair_csv,
)
from .synth import (
    TrialSpec,
    gen_ar1,
    gen_delayed_bitflip,
    gen_skew_tent,
    gen_sparse,
    skew_tent,
)

__version__ = "0.1.0"
