"""The benchmark's workloads: one qmlrob subcommand and YAML config each.

The seed is not in the config; each run passes it to the CLI as ``--seed``,
so qmlrob draws the data, the initial parameters, the attack and the
training streams from it. The reasons for each workload and its sizes are in
README.md.
"""


NOISY_TRAIN = {
    "data": {"kind": "blobs", "n_classes": 4, "dim": 4, "per_class_train": 16,
             "per_class_test": 16, "spread": 0.3},
    "model": {"kind": "qmlp", "encoding": "angle", "layers": 10, "n_qubits": 4},
    "mode": {"kind": "mixed", "channels": [{"kind": "depolarizing", "p": 0.02},
                                           {"kind": "amplitude_damping", "p": 0.01}]},
    "train_mode": "mixed",
    "train": {"lr": 0.02, "batch_size": 16, "epochs": 2},
}

POISON_DEFEND = {
    "data": {"kind": "blobs", "n_classes": 4, "dim": 8, "per_class_train": 50,
             "per_class_test": 25, "spread": 0.3, "pca_dim": 8},
    "model": {"kind": "qnn", "n_qubits": 4},
    "train": {"lr": 0.02, "batch_size": 32, "epochs": 3, "weight_decay": 0.001},
    "attack": {"kind": "quid", "ratio": 0.5},
    "defense": {"keep_fraction": 0.7},
}

WIDE_EVASION = {
    "data": {"kind": "blobs", "n_classes": 23, "dim": 64, "per_class_train": 10,
             "per_class_test": 2, "spread": 0.35, "pca_dim": 9},
    "model": {"kind": "qmlp", "encoding": "angle", "layers": 2, "n_qubits": 9},
    "train": {"lr": 0.02, "epochs": 2},
    "attack": {"kind": "pgd", "eps": 0.1, "step": 0.02, "iters": 10},
}

# name -> (CLI subcommand, config, phases one run of the config completes).
# A phase is one call, from the runner, of the function named here.
WORKLOADS = {
    "noisy_train": ("baseline", NOISY_TRAIN,
                    ("prepare", "fit", "evaluate", "evaluate", "report")),
    "poison_defend": ("defend", POISON_DEFEND,
                      ("prepare", "fit", "evaluate", "poison", "fit", "evaluate",
                       "success_rate", "defend", "evaluate", "success_rate", "report")),
    "wide_evasion": ("attack", WIDE_EVASION,
                     ("prepare", "fit", "evaluate", "evade", "evaluate", "success_rate",
                      "report")),
}
