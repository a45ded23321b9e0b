"""Ablation: what do the commonality and individuality codes contribute?

Trains phase 1 once, then re-trains the hash functions under four variants:

  full    F + E1*C + w*I   (gated commonality, individuality label memory)
  wo_c    F        + w*I   (no commonality)
  wo_i    F + E1*C         (no individuality)
  wo_ic   F                (direct features only)

and prints cross-modal MAP per variant, split into head (frequent) and tail
(rare) labels. On this long-tail dataset the full model should come out on
top, with the gap concentrated where samples are scarce or a modality is
missing entirely.
"""

from tailhash import datagen, experiment, hashing

spec = datagen.LongTailSpec(c=8, z1=300, imbalance_factor=30,
                            noise_sigma=1.5, exclusive_tail_fraction=0.5,
                            seed=1)
dataset = datagen.split(datagen.generate(spec), query_size=100, seed=1)

cfg = experiment.RunConfig(k=16, max_epochs=60, seed=1)
print("phase 1 (shared autoencoders for all variants)...")
phase1 = experiment.train_phase1(dataset, cfg)

print(f"\n{'variant':8s} {'map':>8s} {'head':>8s} {'tail':>8s}")
variants = [hashing.VARIANTS[n] for n in ("full", "wo_c", "wo_i", "wo_ic")]
for model in experiment.train_variants(dataset, cfg, phase1, variants):
    reports = experiment.evaluate_model(dataset, model)
    mean = lambda attr: 0.5 * (getattr(reports["i2t"], attr)
                               + getattr(reports["t2i"], attr))
    print(f"{model.variant.name:8s} {mean('map'):8.4f} "
          f"{mean('head_map'):8.4f} {mean('tail_map'):8.4f}")
