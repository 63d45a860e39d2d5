"""Silhouette-guided cluster count selection, then the full pipeline run.

The sweep fits k-means for each k and keeps the silhouette score; the
end-to-end command produces report.json, eight SVG figures, and the CSV
tables in one shot.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from flowline_risk.cli import main
from flowline_risk.evaluation import silhouette_sweep

# Two clearly separated tight clusters: the sweep should pick k = 2.
rng = np.random.default_rng(3)
r = 0.75 * np.sqrt(rng.random(240))
th = rng.uniform(0, 2 * np.pi, 240)
X = np.column_stack([r * np.cos(th), r * np.sin(th)])
X[120:, 0] += 15.0

best_k, scores, models = silhouette_sweep(X, range(2, 6), seed=3)
print("silhouette by k:", {k: round(v, 3) for k, v in scores.items()})
print("selected k     :", best_k)
print("inertia        :", round(models[best_k].inertia, 2))

# Full pipeline: synthesize, merge, attribute, featurize, train both lanes,
# evaluate, cluster, report.
out = Path(tempfile.mkdtemp(prefix="flowline-demo-"))
cfg = out / "run.cfg"
cfg.write_text("\n".join([
    "seed = 3",
    "synth_preset = a",
    "synth_n_lines = 400",
    "drop_id_like = true",
    "reference_date = 2024-06-30",
    "gbdt_trees = 40",
    "adaboost_stumps = 40",
    "rf_trees = 40",
]) + "\n")

code = main(["run-all", "--config", str(cfg), "--out", str(out / "run")])
print("\nexit code:", code)

report = json.loads((out / "run" / "report.json").read_text())
print("run id    :", report["run_id"])
print("metric rows:", len(report["metrics"]["rows"]))
print("figures   :", [f["file"] for f in report["figures"]])
print("sweep     :", {k: round(v, 3) for k, v in report["clustering"]["scores"].items()},
      "best", report["clustering"]["best_k"])
overall = report["eda"]["overall"]["rows"]
print("risk split:", [(row["risk"], row["count"]) for row in overall])
