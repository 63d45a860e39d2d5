"""Walk the tolerance-ladder merge and spill attribution on both presets.

The matcher tries each radius in ascending order and only accepts a
candidate whose normalized operator name agrees; a nearer line with the
wrong operator never wins, the search just keeps widening.
"""

import tempfile
from collections import Counter
from pathlib import Path

from flowline_risk.ingest import parse_descriptive, parse_operational, parse_spills
from flowline_risk.matcher import ToleranceLadder, assign_risk, match_flowlines, match_spills
from flowline_risk.synth import REFERENCE_DATE, config_a, config_b, generate

out = Path(tempfile.mkdtemp(prefix="flowline-demo-"))

for name, cfg in (("A", config_a(seed=11, n_lines=400)),
                  ("B", config_b(seed=11, n_lines=400))):
    result = generate(cfg, out / name)
    desc = parse_descriptive(result.descriptive_path).records
    ops = parse_operational(result.operational_path, reference_date=REFERENCE_DATE).records

    # The audit is the record of each decision: which line was chosen, at
    # which step, and how far its endpoints lie.
    merged, unmatched, audit = match_flowlines(ops, desc, ToleranceLadder())
    truth = result.ground_truth.line_matches
    wrong = [a for a in audit if a.chosen_id is not None and truth[a.record_id] != a.chosen_id]

    print(f"preset {name}: matched {len(merged)}/{len(ops)}, "
          f"unmatched {len(unmatched)}, wrong {len(wrong)}")
    steps = Counter(f"{a.step_reached:g} m" for a in audit if a.chosen_id is not None)
    print("  binding step histogram:", dict(sorted(steps.items(), key=lambda kv: float(kv[0].split()[0]))))
    for a in wrong[:3]:
        print(f"  audit of miss {a.record_id}: chose {a.chosen_id} "
              f"(true {truth[a.record_id]}) at step {a.step_reached:g} m, "
              f"{a.n_candidates} spatial candidates")

# Spill attribution on preset A, then risk labels.
result = generate(config_a(seed=11, n_lines=400), out / "spills")
desc = parse_descriptive(result.descriptive_path).records
ops = parse_operational(result.operational_path, reference_date=REFERENCE_DATE).records
spills = parse_spills(result.spills_path, reference_date=REFERENCE_DATE).records

merged, _, _ = match_flowlines(ops, desc)
attributions = match_spills(spills, merged)
risk = assign_risk(merged, attributions)

hit = [a for a in attributions if a.matched]
print(f"\nspills attributed: {len(hit)}/{len(attributions)}")
print("distances (m):", [round(a.distance, 1) for a in hit])
print("high-risk lines:", int(risk.sum()), "of", len(merged))
