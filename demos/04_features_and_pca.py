"""From merged flowlines to a numeric design matrix, split, scaled, reduced.

Shows the column layout (numerics plus one-hot groups), the stratified
split that keeps the rare positives on both sides, and how much variance
the leading principal components carry.
"""

import tempfile
from pathlib import Path

import numpy as np

from flowline_risk.features import FeatureConfig, assemble, standardize, stratified_split
from flowline_risk.ingest import parse_descriptive, parse_operational, parse_spills
from flowline_risk.matcher import assign_risk, match_flowlines, match_spills
from flowline_risk.numerics import choose_k_by_variance, pca_fit, pca_transform
from flowline_risk.synth import REFERENCE_DATE, config_a, generate

out = Path(tempfile.mkdtemp(prefix="flowline-demo-"))
result = generate(config_a(seed=23, n_lines=600), out)
desc = parse_descriptive(result.descriptive_path).records
ops = parse_operational(result.operational_path, reference_date=REFERENCE_DATE).records
spills = parse_spills(result.spills_path, reference_date=REFERENCE_DATE).records

merged, _, _ = match_flowlines(ops, desc)
risk = assign_risk(merged, match_spills(spills, merged))

# Without drop_id_like the near-unique id columns would dominate the width;
# assemble warns loudly about that. Here we drop them.
ds = assemble(merged, risk, FeatureConfig(drop_id_like=True, reference_date=REFERENCE_DATE))
print(f"design matrix: {ds.n_rows} x {ds.n_cols}, positives {int(ds.y.sum())}")

groups = {}
for meta in ds.column_meta:
    key = meta.source if meta.kind == "one-hot" else "numeric"
    groups[key] = groups.get(key, 0) + 1
print("column groups:", groups)

train_rows, test_rows = stratified_split(ds.y, train_fraction=0.7, seed=23)
print(f"\nsplit: train {len(train_rows)} ({int(ds.y[train_rows].sum())} pos), "
      f"test {len(test_rows)} ({int(ds.y[test_rows].sum())} pos)")

train_z, _, _ = standardize(ds.X[train_rows])
model = pca_fit(train_z)
share = model.explained_variance / model.explained_variance.sum()
print("\nleading variance shares:", np.round(share[:6], 3))
k = choose_k_by_variance(model.explained_variance, 0.95)
print(f"components for 95% variance: {k} of {train_z.shape[1]}")

scores = pca_transform(model.truncated(k), train_z)
print("score matrix:", scores.shape)
