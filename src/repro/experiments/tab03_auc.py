"""Tab. III: AUC of trained models under four training systems.

The claim: PICASSO's synchronous hybrid strategy matches the AUC of
the synchronous baselines (PyTorch, Horovod) at much larger batch
sizes, while asynchronous TF-PS trails slightly (gradient staleness).

We train real numpy networks on laptop-scale stand-ins of Criteo
(DLRM, DeepFM) and Alibaba (DIN, DIEN).  "PICASSO", "PyTorch" and
"Horovod" share the synchronous trajectory (they are mathematically
identical up to batch size); TF-PS runs with stale gradients.
"""

from __future__ import annotations

from repro.experiments.common import Check, mini_alibaba, mini_criteo
from repro.training import train_and_evaluate

#: Training batch sizes, scaled down from Tab. III proportionally.
_BATCHES = {
    "DLRM": {"PICASSO": 4096, "PyTorch": 1024, "TF-PS": 1024,
             "Horovod": 1024},
    "DeepFM": {"PICASSO": 4096, "PyTorch": 1024, "TF-PS": 1024,
               "Horovod": 1024},
    "DIN": {"PICASSO": 2048, "PyTorch": 1024, "TF-PS": 1024,
            "Horovod": 1024},
    "DIEN": {"PICASSO": 2048, "PyTorch": 1024, "TF-PS": 1024,
             "Horovod": 1024},
}

_VARIANTS = {"DLRM": "dlrm", "DeepFM": "deepfm", "DIN": "din",
             "DIEN": "dien"}

#: (noise, signal) scales tuned so the attainable AUC matches the
#: paper's bands (Criteo ~0.80, Alibaba ~0.63).
_NOISE = {"DLRM": (0.3, 1.75), "DeepFM": (0.3, 1.75),
          "DIN": (1.4, 1.0), "DIEN": (1.4, 1.0)}


def run_auc(steps: int = 150, eval_batches: int = 25,
            seed: int = 0) -> list:
    """Train each (model, system) pair and report held-out AUC."""
    rows = []
    for model_name, variant in _VARIANTS.items():
        if variant in ("din", "dien"):
            dataset = mini_alibaba()
        else:
            dataset = mini_criteo(vocab=8_000)
        noise, signal = _NOISE[model_name]
        for system in ("PICASSO", "PyTorch", "TF-PS", "Horovod"):
            batch = _BATCHES[model_name][system]
            mode = "async-ps" if system == "TF-PS" else "sync"
            result = train_and_evaluate(
                dataset, variant, mode=mode, steps=steps,
                batch_size=batch, eval_batches=eval_batches,
                noise_scale=noise, signal_scale=signal, staleness=2,
                seed=seed)
            rows.append({
                "model": model_name,
                "system": system,
                "batch": batch,
                "auc": round(result.auc, 4),
                "logloss": round(result.logloss, 4),
            })
    return rows


def paper_reference() -> list:
    """Tab. III as published (AUC, batch size per GPU)."""
    return [
        {"model": "DLRM", "PICASSO": (0.8025, 42_000),
         "PyTorch": (0.8025, 7_000), "TF-PS": (0.8024, 6_000),
         "Horovod": (0.8025, 10_000)},
        {"model": "DeepFM", "PICASSO": (0.8007, 30_000),
         "PyTorch": (0.8007, 7_000), "TF-PS": (0.8007, 7_000),
         "Horovod": (0.8007, 8_000)},
        {"model": "DIN", "PICASSO": (0.6331, 32_000),
         "PyTorch": (0.6329, 20_000), "TF-PS": (0.6327, 16_000),
         "Horovod": (0.6329, 24_000)},
        {"model": "DIEN", "PICASSO": (0.6345, 32_000),
         "PyTorch": (0.6344, 16_000), "TF-PS": (0.6340, 12_000),
         "Horovod": (0.6343, 24_000)},
    ]


def claims(rows: list) -> list:
    """Tab. III's claims, checked on :func:`run_auc` rows."""
    auc = {(row["model"], row["system"]): row["auc"] for row in rows}
    models = tuple(_VARIANTS)
    return [
        # Synchronous systems agree closely despite batch differences.
        Check("PICASSO and PyTorch AUC agree within 0.03 on every model",
              all(abs(auc[(model, "PICASSO")] - auc[(model, "PyTorch")])
                  < 0.03 for model in models)),
        Check("PICASSO and Horovod AUC agree within 0.03 on every model",
              all(abs(auc[(model, "PICASSO")] - auc[(model, "Horovod")])
                  < 0.03 for model in models)),
        Check("async TF-PS (stale gradients) never beats PICASSO by "
              "more than 0.01 AUC",
              all(auc[(model, "TF-PS")] <= auc[(model, "PICASSO")] + 0.01
                  for model in models)),
        Check("every model actually learned (PICASSO AUC > 0.55)",
              all(auc[(model, "PICASSO")] > 0.55 for model in models)),
    ]
