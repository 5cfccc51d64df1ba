"""Reference figures for the README: training examples/s of each of the
eight comparison strategies at crop 64 and crop 192, batch 16.

    python3 perfbench/reference.py

Each strategy and crop runs in its own fresh single-threaded process
(seed 1, untrained weights; step cost does not depend on them) and reports
the median over 20 timed steps after five warm-up steps, as
``fusionlab.accounting.measure_throughput`` measures it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CROPS = (64, 192)
SEED = 1
TIMED_STEPS = 20


def measure(label: str, crop: int) -> float:
    from fusionlab.accounting import comparison_model_specs, measure_throughput
    from fusionlab.encoder import DESK
    from fusionlab.model import build_model
    from fusionlab.synth import SynthConfig, generate_corpus
    from fusionlab.training import TrainConfig, Trainer

    spec = comparison_model_specs(DESK, 12)[label]
    corpus = generate_corpus(SynthConfig(), SEED, "train")
    cfg = TrainConfig(batch_size=16, crop_len=crop, warmup_steps=10, ema_decay=0.9, seed=SEED)
    trainer = Trainer(build_model(spec, SEED), corpus, cfg, use_ema=True)
    return measure_throughput(trainer, warmup_steps=5, timed_steps=TIMED_STEPS)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fusionlab.accounting import comparison_model_specs

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    rates: dict[str, dict[int, float]] = {}
    for label in comparison_model_specs():
        for crop in CROPS:
            code = ("import json, sys; from perfbench.reference import measure; "
                    "print(json.dumps(measure(sys.argv[1], int(sys.argv[2]))))")
            out = subprocess.run([sys.executable, "-c", code, label, str(crop)],
                                 cwd=ROOT, env=env, capture_output=True, text=True,
                                 check=True, timeout=600)
            rates.setdefault(label, {})[crop] = json.loads(out.stdout)
            print(f"{label:45s} crop {crop:3d}: {rates[label][crop]:8.1f} examples/s", flush=True)
    ratio = {crop: rates["hierarchical fusion + adapters (all layers)"][crop]
             / rates["full fine-tuning"][crop] for crop in CROPS}
    for crop in CROPS:
        print(f"fusion+adapters / full fine-tuning examples/s at crop {crop}: {ratio[crop]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
