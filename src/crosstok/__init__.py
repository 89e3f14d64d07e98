"""Cross-tokenizer distillation primitives.

Span alignment between heterogeneous token sequences, a rule-based sparse
vocabulary projection, chunk-level KL loss kernels with analytic gradients,
multi-teacher aggregation, and a coverage auditor that selects the loss mode.
Operates on explicit vocabularies and probability tensors loaded from files.
"""

from .align import (
    Alignment,
    AlignmentCache,
    AlignmentChunk,
    AlignScoring,
    ChunkKind,
    dp_align,
    trl_substring_align,
)
from .audit import CoverageRow, audit_coverage, recommend_mode
from .chunks import (
    PositionLogits,
    chain_rule_merge,
    load_position_logits,
    save_position_logits,
    softmax,
    topk_support,
)
from .errors import (
    DegenerateDistributionError,
    MalformedTokenError,
    UnencodableTextError,
    ValidationError,
)
from .losses import (
    CommonSet,
    HybridWeights,
    LossReport,
    build_common_set_exact,
    build_common_set_relaxed,
    chunk_kl,
    gold,
    gold_grad,
    kd_aggregate,
    pkl,
    pkl_grads,
    uld,
)
from .projection import (
    ProjectionConfig,
    Provenance,
    SparseProjection,
    build_projection,
    decay_weights,
    load_projection,
    project,
    save_projection,
)
from .training import (
    ScalingPolicy,
    StepReport,
    TeacherConfig,
    adaptive_weights,
    combine_kd_ce,
    cross_entropy,
    gradient_check,
    run_step,
)
from .vocab import (
    Tokenizer,
    Vocabulary,
    canonicalize,
    exact_partners,
    load_vocabulary,
    make_toy_tokenizer,
    save_vocabulary,
    vocabulary_hash,
)

__version__ = "0.1.0"
