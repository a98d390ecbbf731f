"""Desk-scale cross-modal on-policy distillation lab."""

from .autodiff import Tensor, no_grad
from .corpus import PairedExample, SpeechCodec, build_dataset, load_dataset, save_dataset
from .model import ModelConfig, Prompt, StudentModel, TeacherModel, init_student_from_teacher
from .objective import XopdLossReport, xopd_loss
from .rollout import RolloutBatch, Trajectory, collect_rollouts, rollout_pairs
from .trainer import TrainConfig, build_gapped_student, pretrain_teacher, run_method

__version__ = "0.1.0"
