"""Worked-example replays: prints computed values next to their reference
numbers so drift is visible at a glance."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import graded
from . import transformer as tf
from .gnn import HOMOGENEOUS, graded_loss
from .graded_space import EXPONENTIAL, LINEAR, GradingSpec, WeightMap, affine_map
from .training import anneal_lambda


def photonic_rows() -> list[str]:
    x = np.array([1.0, 0.5, 0.1])
    model = tf.ModelConfig(vocab_size=0, d_model=3, n_heads=1, n_layers=0, d_ff=1)
    gcfg = graded.GradedModelConfig(model=model, grades=[0.0, 1.0, 2.0],
                                    weight_map=affine_map(1.0, 0.1))
    graded_vec = x * gcfg.weights()
    norm = float(np.linalg.norm(graded_vec))
    unit = graded.graded_input(x, gcfg)  # the model's input stage
    return [
        f"photonic graded input     computed {np.round(graded_vec, 4).tolist()}  reference [1, 0.55, 0.12]",
        f"photonic graded norm      computed {norm:.6f}  reference 1.148",
        f"photonic normalized       computed {np.round(unit, 4).tolist()}  reference [0.871, 0.479, 0.105]",
    ]


def loss_multiplier_rows() -> list[str]:
    q = np.array([0.0, 0.5, 1.0, 2.0])
    lgt = GradingSpec(LINEAR, WeightMap("plus_one")).weights(q)
    egt = GradingSpec(EXPONENTIAL, base=2.0).weights(q)
    return [
        f"linear loss multipliers   computed {np.round(lgt, 5).tolist()}  reference [1, 1.5, 2, 3]",
        f"exp loss multipliers      computed {np.round(egt, 5).tolist()}  reference [1, 1.41421, 2, 4]",
    ]


def homogeneous_loss_row() -> str:
    # two-grade space (2, 3): loss = (||e_2||^4 + ||e_3||^2)^(1/2)
    q = np.array([2.0, 3.0])
    e = np.array([0.3, 0.4])
    computed = graded_loss(HOMOGENEOUS, q, e, np.zeros(2))
    direct = float(np.sqrt(0.3**4 + 0.4**2))
    return (f"two-grade homogeneous loss computed {computed:.6f}  "
            f"direct (e2^4 + e3^2)^0.5 = {direct:.6f}")


def annealing_rows(base: float = 2.0, total: int = 100) -> list[str]:
    start = anneal_lambda(0, total, base)
    mid = anneal_lambda(total // 2, total, base)
    end = anneal_lambda(total, total, base)
    return [
        f"annealing endpoints       computed ({start:g}, {end:g})  reference (1, {base:g})",
        f"annealing midpoint        computed {mid:g}  reference {1 + (base - 1) / 2:g}",
    ]


def layer_norm_rows() -> list[str]:
    z = np.array([[0.5, -0.2, 0.3]])
    mu = z.mean()
    var = z.var()
    out = ad.layer_norm_rows(z, np.zeros((1, 3)), np.ones((1, 3)), np.zeros((1, 3)),
                             1e-5).value  # the model's LN(z + 0), gain 1, bias 0
    return [
        f"layer-norm z=[0.5,-0.2,0.3]  mean {mu:.4f}  variance {var:.6f}  output {np.round(out[0], 4).tolist()}",
        "note: the circulated reference tuple [0.95, -0.38, 0.57] is inconsistent with the",
        "formula (it is not mean-zero); the derived values above are the formula's output.",
    ]


def positional_rows() -> list[str]:
    pe1 = tf.positional_matrix(1, 4)[0]
    return [
        f"positional encoding t=1, d=4  computed {np.round(pe1, 4).tolist()}  "
        f"(dim 0 equals sin(1) = {np.sin(1):.4f})",
    ]


def run_demo() -> str:
    lines = ["worked-example replays", "-" * 70]
    lines += photonic_rows()
    lines += loss_multiplier_rows()
    lines.append(homogeneous_loss_row())
    lines += annealing_rows()
    lines += layer_norm_rows()
    lines += positional_rows()
    return "\n".join(lines) + "\n"
