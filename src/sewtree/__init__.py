"""Tree-based evaluation of step-by-step garment assembly instructions."""

from .labels import (
    LabelError,
    NodeLabel,
    PieceLabel,
    bump_self_attach,
    merge_labels,
    parse_node_label,
    parse_piece_label,
)
from .tree import (
    DepthOneSubtree,
    TreeError,
    canonical_serialize,
    parse_serialized,
)
from .grammar import (
    CapExceededError,
    GoldGrammar,
    GrammarError,
    check_grammar,
    count_derivations,
    enumerate_gold_trees,
    parse_grammar,
    validate_grammar,
)
from .pipeline import (
    BuildReport,
    InstructionDoc,
    PatternSpec,
    StepExtraction,
    build_forest,
    extract_document,
    extract_pieces_rule_based,
    linearize_gold_tree,
    resolve_components,
)
from .metrics import (
    ScoreBreakdown,
    bleu,
    grammar_score,
    pearson,
    rouge_l,
    tokenize,
    tree_score,
)

__version__ = "0.1.0"
