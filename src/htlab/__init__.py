"""htlab: hardware-Trojan detection on gate-level netlists, and its stress tests.

The package covers the full loop around a structural-feature Trojan detector:

* :mod:`htlab.netlist`    -- structural Verilog parser and immutable circuit graph.
* :mod:`htlab.features`   -- 51 per-net structural features plus normalization.
* :mod:`htlab.model`      -- from-scratch sigmoid MLP detector (Adam, BCE).
* :mod:`htlab.rewrite`    -- the m1..m16 logic-equivalent modification patterns
                             and simulation-based equivalence checking.
* :mod:`htlab.attack`     -- greedy gate-modification attacks driven by the
                             alpha-TCD / TTCD concealment metrics.
* :mod:`htlab.advtrain`   -- TTCD adversarial training (the robust detector).
* :mod:`htlab.evaluation` -- leave-one-netlist-out evaluation harness.
* :mod:`htlab.synth`      -- synthetic benchmark circuits with embedded triggers.
* :mod:`htlab.cli`        -- command-line front end over all of the above.
"""

from .netlist import (
    CellKind,
    CircuitGraph,
    DanglingPinError,
    Gate,
    LabelSpec,
    MultipleDriverError,
    Net,
    NetlistError,
    ParseError,
    UnknownCellError,
    emit_verilog,
    parse_verilog,
    parse_verilog_file,
)
from .features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    FeatureMatrix,
    NormStats,
    extract_all,
    extract_features,
    extract_for_nets,
    write_feature_csv,
)
from .model import (
    MLPConfig,
    MLPDetector,
    TrainReport,
    gradient_check,
    load_model,
    save_model,
)
from .rewrite import (
    CombinationalCycleError,
    EquivalenceReport,
    PATTERN_IDS,
    PATTERNS,
    RewritePattern,
    RewriteResult,
    applicable_patterns,
    apply_pattern,
    check_equivalence,
    simulate,
)
from .attack import (
    AttackConfig,
    AttackResult,
    AttackStep,
    alpha_tcd,
    attack_sweep,
    run_attack,
    tcd,
    ttcd,
)
from .advtrain import (
    AdvTrainConfig,
    AdvTrainReport,
    ProvenancedSample,
    generate_adversarial,
    samples_from_circuits,
    train_robust,
    weaken,
)
from .evaluation import (
    LoocvOptions,
    LoocvReport,
    Metrics,
    compute_metrics,
    emit_reports,
    run_loocv,
)
from .synth import synth_circuit, synth_corpus

__version__ = "0.1.0"

__all__ = [
    # netlist
    "CellKind", "Gate", "Net", "CircuitGraph", "LabelSpec",
    "NetlistError", "ParseError", "UnknownCellError",
    "MultipleDriverError", "DanglingPinError",
    "parse_verilog", "parse_verilog_file", "emit_verilog",
    # features
    "NUM_FEATURES", "FEATURE_NAMES", "FeatureMatrix",
    "NormStats", "extract_features", "extract_all", "extract_for_nets",
    "write_feature_csv",
    # model
    "MLPConfig", "MLPDetector", "TrainReport", "gradient_check",
    "save_model", "load_model",
    # rewrite
    "RewritePattern", "RewriteResult", "PATTERNS", "PATTERN_IDS",
    "applicable_patterns", "apply_pattern", "check_equivalence",
    "simulate", "EquivalenceReport", "CombinationalCycleError",
    # attack
    "tcd", "alpha_tcd", "ttcd", "AttackConfig", "AttackStep",
    "AttackResult", "run_attack", "attack_sweep",
    # advtrain
    "AdvTrainConfig", "AdvTrainReport", "ProvenancedSample",
    "samples_from_circuits", "generate_adversarial", "train_robust", "weaken",
    # evaluation
    "Metrics", "compute_metrics", "LoocvOptions", "LoocvReport",
    "run_loocv", "emit_reports",
    # synth
    "synth_circuit", "synth_corpus",
    "__version__",
]
