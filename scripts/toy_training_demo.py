#!/usr/bin/env python3
"""Train the toy denoiser, then adapt it to a shifted target with CLN-only
fine-tuning, printing loss milestones along the way. Exits 1 unless the
fine-tuning lowers the target's evaluation loss and leaves every non-CLN
parameter as it was."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from svcforge.diffusion import (
    CLN_PARAM_NAMES,
    ToyDenoiser,
    TrainConfig,
    evaluate_l2,
    finetune_cln,
    linear_schedule,
    pseudo_speaker_embedding,
    toy_dataset,
    train_toy,
)


def main() -> int:
    sched = linear_schedule()
    model = ToyDenoiser(dim=8, cond_dim=11, speaker_dim=4, hidden=48, seed=2)
    dataset = toy_dataset(model, seed=1)

    history = train_toy(model, dataset, sched,
                        TrainConfig(steps=2000, lr=2e-3, p_uncond=0.1, seed=3))
    for lo in range(0, 2000, 400):
        print(f"pretrain steps {lo:4d}-{lo + 399:4d}: "
              f"mean loss {history[lo:lo + 400].mean():8.4f}")

    target = pseudo_speaker_embedding(99, 4)
    shifted = [(x0 + 1.0, cond) for x0, cond in dataset]
    before = evaluate_l2(model, shifted, sched, embedding=target)
    non_cln = [n for n in model.params if n not in CLN_PARAM_NAMES]
    rest_hash = model.param_hash(non_cln)

    finetune_cln(model, shifted, sched, iterations=500,
                 target_embedding=target, lr=2e-3, seed=4)

    after = evaluate_l2(model, shifted, sched, embedding=target)
    untouched = model.param_hash(non_cln) == rest_hash
    print(f"finetune (CLN only, 500 iters): eval loss {before:.4f} -> {after:.4f}")
    print(f"non-CLN parameters untouched: {untouched}")
    return 0 if after < before and untouched else 1


if __name__ == "__main__":
    sys.exit(main())
