"""Golden tables: the exact ``table.tsv`` text of five tiny real runs on
quantum models, pinned so that a faster simulation path must reproduce
every byte. Each case runs twice in one process; the second run meets warm
caches (compiled circuits, bound segments, transfer-matrix terms) and must give
the same bytes as the first."""

import pytest
import yaml

from qmlrob import cli

DATA = {"kind": "blobs", "n_classes": 3, "dim": 4, "per_class_train": 12,
        "per_class_test": 5, "spread": 0.3}
ANGLE_QMLP = {"kind": "qmlp", "encoding": "angle", "layers": 4, "n_qubits": 4}
TRAIN = {"lr": 0.05, "batch_size": 16, "epochs": 3}

CASES = {
    "qnn_defend_quid": (
        "defend",
        {
            "data": {**DATA, "n_classes": 4, "dim": 8},
            "model": {"kind": "qnn", "n_qubits": 4},
            "train": {**TRAIN, "lr": 0.02},
            "attack": {"kind": "quid", "ratio": 0.5},
            "defense": {"keep_fraction": 0.7, "sweeps": 10},
        },
    ),
    "angle_qmlp_attack_pgd": (
        "attack",
        {
            "data": DATA,
            "model": ANGLE_QMLP,
            "train": TRAIN,
            "attack": {"kind": "pgd", "eps": 0.1, "step": 0.05, "iters": 3},
        },
    ),
    # Wider than sim.N_DENSE: the pure path there runs its own layout.
    "wide_angle_qmlp_attack_pgd": (
        "attack",
        {
            "data": {**DATA, "dim": 7},
            "model": {**ANGLE_QMLP, "layers": 2, "n_qubits": 7},
            "train": TRAIN,
            "attack": {"kind": "pgd", "eps": 0.1, "step": 0.05, "iters": 3},
        },
    ),
    "angle_qmlp_baseline_depolarizing": (
        "baseline",
        {
            "data": DATA,
            "model": ANGLE_QMLP,
            "mode": {"kind": "mixed", "channels": [{"kind": "depolarizing", "p": 0.02}]},
            "train": TRAIN,
        },
    ),
    # Trained under noise: SPSA steps on the density-matrix path.
    "angle_qmlp_baseline_spsa_mixed": (
        "baseline",
        {
            "data": DATA,
            "model": {**ANGLE_QMLP, "layers": 2},
            "mode": {"kind": "mixed", "channels": [{"kind": "depolarizing", "p": 0.02},
                                                   {"kind": "amplitude_damping", "p": 0.01}]},
            "train_mode": "mixed",
            "train": {"batch_size": 8, "epochs": 2, "spsa_step": 0.3, "spsa_perturb": 0.05},
        },
    ),
}

HEADER = "seed\tmodel\tcondition\teval_mode\taccuracy\tmacro_f1\tfpr\tfnr\trelative_accuracy\tasr\tconfig_hash\n"

GOLDEN = {
    "qnn_defend_quid": (
        "0\tqnn\tbaseline\tpure\t30.0000\t17.4603\t23.3333\t70.0000\t1.00\t\tc706c392848c015d\n"
        "0\tqnn\tattacked\tpure\t20.0000\t12.5000\t26.6667\t80.0000\t0.67\t45.8333\tc706c392848c015d\n"
        "0\tqnn\tdefended\tpure\t20.0000\t12.5000\t26.6667\t80.0000\t0.67\t45.8333\tc706c392848c015d\n"
        "1\tqnn\tbaseline\tpure\t25.0000\t10.4167\t25.0000\t75.0000\t1.00\t\tc706c392848c015d\n"
        "1\tqnn\tattacked\tpure\t25.0000\t10.4167\t25.0000\t75.0000\t1.00\t50.0000\tc706c392848c015d\n"
        "1\tqnn\tdefended\tpure\t25.0000\t10.4167\t25.0000\t75.0000\t1.00\t50.0000\tc706c392848c015d\n"
    ),
    "angle_qmlp_attack_pgd": (
        "0\tqmlp\tbaseline\tpure\t60.0000\t55.5556\t20.0000\t40.0000\t1.00\t\t155126b43836549c\n"
        "0\tqmlp\tattacked\tpure\t40.0000\t33.3333\t30.0000\t60.0000\t0.67\t60.0000\t155126b43836549c\n"
        "1\tqmlp\tbaseline\tpure\t60.0000\t56.8254\t20.0000\t40.0000\t1.00\t\t155126b43836549c\n"
        "1\tqmlp\tattacked\tpure\t60.0000\t56.8254\t20.0000\t40.0000\t1.00\t40.0000\t155126b43836549c\n"
    ),
    "wide_angle_qmlp_attack_pgd": (
        "0\tqmlp\tbaseline\tpure\t40.0000\t39.4587\t30.0000\t60.0000\t1.00\t\t4ba7934a20572564\n"
        "0\tqmlp\tattacked\tpure\t33.3333\t31.1905\t33.3333\t66.6667\t0.83\t66.6667\t4ba7934a20572564\n"
        "1\tqmlp\tbaseline\tpure\t46.6667\t47.7920\t26.6667\t53.3333\t1.00\t\t4ba7934a20572564\n"
        "1\tqmlp\tattacked\tpure\t53.3333\t53.3476\t23.3333\t46.6667\t1.14\t46.6667\t4ba7934a20572564\n"
    ),
    "angle_qmlp_baseline_depolarizing": (
        "0\tqmlp\tbaseline\tpure\t60.0000\t55.5556\t20.0000\t40.0000\t1.00\t\t86cd3a7346cfcb06\n"
        "0\tqmlp\tbaseline\tmixed\t40.0000\t30.7190\t30.0000\t60.0000\t1.00\t\t86cd3a7346cfcb06\n"
        "1\tqmlp\tbaseline\tpure\t60.0000\t56.8254\t20.0000\t40.0000\t1.00\t\t86cd3a7346cfcb06\n"
        "1\tqmlp\tbaseline\tmixed\t60.0000\t59.4017\t20.0000\t40.0000\t1.00\t\t86cd3a7346cfcb06\n"
    ),
    "angle_qmlp_baseline_spsa_mixed": (
        "0\tqmlp\tbaseline\tpure\t26.6667\t19.9074\t36.6667\t73.3333\t1.00\t\tc1983462e780c4ae\n"
        "0\tqmlp\tbaseline\tmixed\t26.6667\t19.9074\t36.6667\t73.3333\t1.00\t\tc1983462e780c4ae\n"
        "1\tqmlp\tbaseline\tpure\t53.3333\t42.7350\t23.3333\t46.6667\t1.00\t\tc1983462e780c4ae\n"
        "1\tqmlp\tbaseline\tmixed\t40.0000\t27.9412\t30.0000\t60.0000\t1.00\t\tc1983462e780c4ae\n"
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_table_bytes_are_pinned_and_stable_under_warm_caches(tmp_path, name):
    command, raw = CASES[name]
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({**raw, "seeds": [0, 1]}))
    tables = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        assert cli.main([command, "--config", str(path), "--out", str(out), "--format", "table"]) == 0
        tables.append((out / "table.tsv").read_bytes())
    assert tables[0] == tables[1]
    assert tables[0].decode() == HEADER + GOLDEN[name]
