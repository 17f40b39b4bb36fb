"""Transferability scoring, selection, ensembling and classifier-head
adaptation for heterogeneous model zoos on an unlabeled target set."""

from .diversity import KernelConfig, centered_factor, div_scores, hsic
from .ensemble_adapt import (AdaptConfig, EnsembleModel, RecyclePair, adapt,
                             build_ensemble, ensemble_forward,
                             ensemble_weights, loss_ce, loss_sim,
                             mine_recycle_pairs, objective)
from .errors import ZooAdaptError
from .evaluate import accuracy, read_labels, spearman, summary
from .inference import (conditional_entropy, entropy, forward, mean_entropy,
                        mix_outputs, predictive_semantics,
                        structural_semantics)
from .selection import SelectionResult, diversity_set, select
from .sute import (SuteComponents, SuteConfig, TransferabilityReport,
                   indicator_gd, indicator_ic, indicator_sc, phi,
                   score_zoo, sute_score)
from .synthzoo import (ArchSpec, DomainTransform, ScenarioSpec, TrainConfig,
                       build_zoo, generate_scenario)
from .tensorio import (ModelRecord, TargetBundle, load_zoo, read_tensor,
                       write_tensor)

__version__ = "0.1.0"
