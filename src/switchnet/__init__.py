"""Switch-gated modular network of independently trained neuron units.

Disjoint data subsets are assigned to single-node perceptron units, each unit
trains in isolation (optionally on parallel virtual nodes), a configured switch
gates which units activate per input group, and the assembled network is
evaluated centrally with per-unit heatmap, attribution, and ablation analysis.
"""

from ._version import ARTIFACT_VERSION as __version__
from .analysis import (AttributionReport, AttributionRow, HeatmapMatrix, attribute,
                       export_heatmap_csv, heatmap, render_heatmap_svg, save_attribution)
from .data import (Dataset, GroupSpec, LabelRule, Observation, PartitionPlan, PartitionSet,
                   generate_synthetic, load_dataset, make_test_sets, partition, save_dataset)
from .errors import (AnalysisError, ConfigError, DataError, FederatedError, NetworkError,
                     RoutingError, StageError, SwitchNetError, TrainingError)
from .federated import (FedRunReport, Node, collect, make_nodes, node_train_config,
                        run_local_training, with_trained_units)
from .network import (ContributionReport, LinearReadout, Metrics, ModularNetwork, Prediction,
                      UnitContribution, assemble, evaluate, fit_readout, forward, load_network,
                      neuron_contribution, probe_activations, save_network)
from .neuron import (ACTIVATIONS, LOSSES, Gradient, NeuronUnit, TrainConfig, TrainLog, fd_gradient,
                     init_unit, load_unit, save_unit, train_unit, unit_forward, unit_gradient)
from .pipeline import (ExperimentConfig, ReportBundle, apply_overrides, config_to_doc,
                       default_config_path, load_config, parse_config, run_pipeline)
from .switching import ActivationMask, SwitchTable, build_switch, route
