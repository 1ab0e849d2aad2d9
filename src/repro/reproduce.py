"""One-shot reproduction driver (the artifact's ``run.sh`` equivalent).

The paper's artifact appendix promises: "Upon running the run.sh, the
following outcomes are expected: 1) the results of Table 2 ... 2) the
error rates of different models (E2E, LW, KW, IGKW) on GPUs ... 3)
figures generated from the experimental data."

:func:`run_reproduction` delivers exactly that as a library call (and via
``repro reproduce``): it builds the measurement campaign, trains every
model, regenerates the headline artifacts, and writes one text report.
The full per-figure regeneration lives in ``benchmarks/``; this driver is
the ten-minute end-to-end path.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import core, dataset, zoo
from repro.gpu import IGKW_TEST_GPU, IGKW_TRAIN_GPUS, SimulatedGPU, gpu
from repro.reporting import render_table

#: GPUs of the headline evaluation (Section 5.4).
EVAL_GPUS = ("A100", "A40", "GTX 1080 Ti", "TITAN RTX", "V100")

#: Paper reference values for the summary table.
PAPER_ERRORS = {"e2e": 0.35, "lw": 0.28, "kw": 0.07, "igkw": 0.152}


def run_reproduction(out_dir, scale: str = "full",
                     seed: int = 7) -> Dict[str, float]:
    """Run the headline reproduction; returns the measured error rates.

    ``scale`` picks the roster size ("small"/"medium"/"full"); the report
    lands in ``out_dir/reproduction.txt``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    sections: List[str] = []
    measured: Dict[str, float] = {}

    networks = zoo.imagenet_roster(scale)
    index = core.networks_by_name(networks)
    specs = [gpu(name) for name in EVAL_GPUS]
    data = dataset.build_dataset(networks, specs, batch_sizes=[8, 64, 512])
    train, test = dataset.train_test_split(data, seed=seed)
    sections.append(
        f"campaign: {len(networks)} networks x {len(EVAL_GPUS)} GPUs x "
        f"3 batch sizes = {len(data):,} kernel executions "
        f"({len(data.kernel_names())} distinct kernels); "
        f"{len(test.network_names())} held-out networks")

    # -- single-GPU models on A100 (Figures 11-13) ---------------------------
    rows = []
    for name in ("e2e", "lw", "kw"):
        model = core.train_model(train, name, gpu="A100")
        curve = core.evaluate_model(model, test, index, gpu="A100",
                                    batch_size=512)
        measured[name] = curve.mean_error
        rows.append((name.upper(), f"{curve.mean_error:.3f}",
                     f"{PAPER_ERRORS[name]:.3f}"))

    # -- IGKW on the unseen TITAN RTX (Figure 14) ----------------------------
    igkw = core.train_inter_gpu_model(
        train, [gpu(name) for name in IGKW_TRAIN_GPUS])
    curve = core.evaluate_model(igkw.for_gpu(gpu(IGKW_TEST_GPU)), test,
                                index, gpu=IGKW_TEST_GPU, batch_size=512)
    measured["igkw"] = curve.mean_error
    rows.append((f"IGKW -> {IGKW_TEST_GPU}", f"{curve.mean_error:.3f}",
                 f"{PAPER_ERRORS['igkw']:.3f}"))
    sections.append(render_table(
        ["model", "measured error", "paper"], rows,
        title="Headline error rates (test split, BS 512)"))

    # -- KW per GPU (Section 5.4) --------------------------------------------
    per_gpu_rows = []
    for name in EVAL_GPUS:
        model = core.train_model(train, "kw", gpu=name)
        per_gpu_curve = core.evaluate_model(model, test, index, gpu=name,
                                            batch_size=512)
        measured[f"kw:{name}"] = per_gpu_curve.mean_error
        per_gpu_rows.append((name, f"{per_gpu_curve.mean_error:.3f}"))
    sections.append(render_table(["GPU", "KW error"], per_gpu_rows,
                                 title="KW model per GPU (paper: 6-9.4%)"))

    # -- Table 2: ResNet-50 on V100 -------------------------------------------
    kw_v100 = core.train_model(train, "kw", gpu="V100", batch_size=None)
    device = SimulatedGPU(gpu("V100"))
    table2_rows = []
    # built once: the prediction time covers lowering plus evaluation,
    # not the graph construction
    resnet50 = zoo.resnet50()
    for batch in (64, 128, 256):
        start = time.perf_counter()
        predicted = kw_v100.predict_network(resnet50, batch)
        elapsed = time.perf_counter() - start
        e2e = device.run_network(resnet50, batch).e2e_us
        error = core.relative_error(predicted, e2e) * 100
        measured[f"table2:{batch}"] = error / 100
        table2_rows.append((batch, f"{error:.1f}%", f"{elapsed:.4f}s"))
    sections.append(render_table(
        ["batch", "KW error", "prediction time"], table2_rows,
        title="Table 2: ResNet-50 on V100 (PKS: 2.2-6.4% in 8-18 h; "
              "PKA: 12-24% in 1.3-1.6 h)"))

    elapsed = time.perf_counter() - started
    sections.append(f"total reproduction time: {elapsed:.1f} s")

    report = "\n\n".join(sections)
    (out_dir / "reproduction.txt").write_text(report + "\n")
    return measured


def main_report(out_dir, scale: str = "full",
                seed: int = 7) -> Optional[str]:
    """Run the reproduction and return the rendered report text."""
    run_reproduction(out_dir, scale=scale, seed=seed)
    return (Path(out_dir) / "reproduction.txt").read_text()
