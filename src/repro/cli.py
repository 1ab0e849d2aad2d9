"""Command-line interface: the artifact's shell workflow as one tool.

Mirrors the paper artifact's ``run.sh`` steps:

- ``repro build``      collect a prediction dataset into CSV files
- ``repro train``      fit a single-GPU model and save it as JSON
- ``repro train-igkw`` fit the inter-GPU model on several GPUs
- ``repro predict``    predict one network's time from a saved model
- ``repro evaluate``   score a saved model against a dataset's test split
- ``repro list``       enumerate available networks and GPUs
- ``repro serve``      host a directory of saved models over HTTP
- ``repro loadgen``    benchmark a running prediction server
- ``repro calibrate``  close the loop: drift -> refit -> gated promote
- ``repro fleet``      simulate a GPU fleet under placement policies
- ``repro check``      static analysis: AST lint + domain contracts

Example::

    repro build --roster medium --gpu A100 --batch-size 512 --out data/
    repro train --dataset data/ --model kw --gpu A100 --out kw.json
    repro predict --model kw.json --network resnet50 --batch-size 256
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro import core, dataset, zoo
from repro.core.intergpu import InterGPUKernelWiseModel
from repro.gpu import gpu, gpu_names


def _add_build(subparsers) -> None:
    p = subparsers.add_parser(
        "build", help="profile networks and write a CSV dataset")
    p.add_argument("--roster", default="medium",
                   choices=["small", "medium", "full", "text"])
    p.add_argument("--gpu", action="append", dest="gpus", required=True,
                   help="GPU name (repeatable)")
    p.add_argument("--batch-size", action="append", dest="batch_sizes",
                   type=int, required=True, help="batch size (repeatable)")
    p.add_argument("--training", action="store_true",
                   help="measure forward+backward steps")
    p.add_argument("--out", required=True, help="output directory")


def _add_train(subparsers) -> None:
    p = subparsers.add_parser(
        "train", help="train a single-GPU model from a CSV dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True, choices=["e2e", "lw", "kw"])
    p.add_argument("--gpu", required=True)
    p.add_argument("--batch-size", default="512",
                   help="training batch size, or 'all'")
    p.add_argument("--out", required=True, help="output model JSON")


def _add_train_igkw(subparsers) -> None:
    p = subparsers.add_parser(
        "train-igkw", help="train the inter-GPU model on several GPUs")
    p.add_argument("--dataset", required=True)
    p.add_argument("--gpu", action="append", dest="gpus", required=True)
    p.add_argument("--batch-size", default="512")
    p.add_argument("--out", required=True)


def _add_predict(subparsers) -> None:
    p = subparsers.add_parser(
        "predict", help="predict one network's execution time")
    p.add_argument("--model", required=True, help="saved model JSON")
    p.add_argument("--network", required=True,
                   help="registered network name (see 'repro list')")
    p.add_argument("--batch-size", type=int, required=True)
    p.add_argument("--gpu", default=None,
                   help="target GPU (required for igkw models)")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="override the target GPU's bandwidth (GB/s)")
    p.add_argument("--coverage", action="store_true",
                   help="audit which lookup stages the prediction used "
                        "(kernel-level models only)")
    p.add_argument("--grid", default=None,
                   help="igkw only: sweep the target GPU's bandwidth "
                        "and print a bandwidth -> time table; either "
                        "comma-separated GB/s values or 'default' for "
                        "the paper's Figure-15 grid (one vectorised "
                        "evaluate_many call)")


def _add_evaluate(subparsers) -> None:
    p = subparsers.add_parser(
        "evaluate", help="score a saved model on a dataset's test split")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--gpu", required=True)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--test-fraction", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--breakdown", action="store_true",
                   help="also print per-family errors and worst offenders")


def _add_list(subparsers) -> None:
    p = subparsers.add_parser(
        "list", help="list available networks and GPUs")
    p.add_argument("what", choices=["networks", "gpus"])


def _add_serve(subparsers) -> None:
    p = subparsers.add_parser(
        "serve", help="host a directory of saved models over HTTP")
    p.add_argument("--models",
                   help="directory of saved model JSONs (required "
                        "unless --smoke, which trains its own)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8100,
                   help="0 picks an ephemeral port")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="prediction LRU capacity")
    p.add_argument("--plan-cache-size", type=int, default=256,
                   help="compiled-plan LRU capacity (plans are "
                        "GPU-independent, so one entry serves every "
                        "target of a network)")
    p.add_argument("--coverage-threshold", type=float, default=0.10,
                   help="max fallback time share before a kernel-level "
                        "prediction degrades to the next tier")
    p.add_argument("--batch-cap", type=int, default=256,
                   help="largest /predict_batch accepted (oversized "
                        "batches get HTTP 413)")
    p.add_argument("--calibrate", action="store_true",
                   help="accept POST /feedback and run the closed "
                        "calibration loop (drift -> refit -> gated "
                        "promote) in the background")
    p.add_argument("--calibrate-interval", type=float, default=30.0,
                   help="seconds between background calibration sweeps")
    p.add_argument("--feedback-window", type=int, default=256,
                   help="feedback observations kept per (model, group)")
    p.add_argument("--workers", type=int, default=1,
                   help="pre-fork worker processes; 1 (the default) "
                        "serves in-process exactly as before, >1 forks "
                        "a consistent-hash sharded pool behind "
                        "admission control")
    p.add_argument("--max-queue-depth", type=int, default=64,
                   help="per-worker bound on frames in flight; "
                        "requests past it are shed with HTTP 429 + "
                        "Retry-After")
    p.add_argument("--snapshot-interval", type=float, default=2.0,
                   help="seconds between worker registry-snapshot "
                        "freshness checks (scale-out only)")
    p.add_argument("--smoke", action="store_true",
                   help="CI gate: train a small model set, serve it "
                        "with --workers forked processes, drive mixed "
                        "load, assert zero restarts/sheds and a clean "
                        "shutdown")


def _add_calibrate(subparsers) -> None:
    p = subparsers.add_parser(
        "calibrate",
        help="run the drift -> refit -> gated-promote loop offline")
    p.add_argument("--demo", action="store_true",
                   help="synthetic end-to-end drift scenario on the "
                        "simulated substrate (the CI smoke test)")
    p.add_argument("--shift", type=float, default=1.5,
                   help="demo: injected memory-bandwidth degradation")
    p.add_argument("--store", default=None,
                   help="model store directory (demo: a temp dir "
                        "when omitted)")
    p.add_argument("--model", default=None,
                   help="offline: hosted model name inside the store")
    p.add_argument("--dataset", default=None,
                   help="offline: freshly measured dataset directory "
                        "to replay as feedback")
    p.add_argument("--gpu", default=None,
                   help="offline: restrict feedback to one GPU's rows")
    p.add_argument("--batch-size", type=int, default=None,
                   help="offline: restrict feedback to one batch size")
    p.add_argument("--force", action="store_true",
                   help="offline: refit even without a drift alarm "
                        "(the shadow gate still applies)")


def _add_loadgen(subparsers) -> None:
    p = subparsers.add_parser(
        "loadgen", help="benchmark a running prediction server")
    p.add_argument("--url", required=True,
                   help="server base URL, e.g. http://127.0.0.1:8100")
    p.add_argument("--model", required=True, help="hosted model name")
    p.add_argument("--network", action="append", dest="networks",
                   required=True, help="network name (repeatable; "
                   "requests cycle through them)")
    p.add_argument("--batch-size", type=int, required=True)
    p.add_argument("--gpu", default=None)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--rate", type=float, default=50.0,
                   help="offered load, requests per second")
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=1,
                   help="items per POST; >1 drives /predict_batch at "
                        "rate/batch posts per second (rate stays the "
                        "offered item rate)")
    p.add_argument("--procs", type=int, default=1,
                   help="forked client processes; the rate and request "
                        "count split across them and the per-process "
                        "results merge sample-exactly (a single client "
                        "process is GIL-bound and cannot saturate a "
                        "multi-worker server)")


def _add_fleet(subparsers) -> None:
    p = subparsers.add_parser(
        "fleet",
        help="simulate a heterogeneous GPU fleet under placement "
             "policies driven by predicted execution times")
    p.add_argument("--config", default=None,
                   help="fleet configuration JSON "
                        "(FleetConfig.to_dict shape); default: the "
                        "built-in study fleet at --scale")
    p.add_argument("--scale", default="small",
                   choices=["small", "medium", "large"],
                   help="built-in study fleet preset (ignored with "
                        "--config)")
    p.add_argument("--policy", default="predicted",
                   help="placement policy for a single run")
    p.add_argument("--compare", action="store_true",
                   help="run every registered policy over the "
                        "identical trace and print the comparison")
    p.add_argument("--smoke", action="store_true",
                   help="CI gate: small comparison, twice, asserting "
                        "bit-identical results and full policy coverage")
    p.add_argument("--model", default=None,
                   help="saved IGKW model JSON to price the fleet with "
                        "(default: a small in-process campaign)")
    p.add_argument("--seed", type=int, default=0,
                   help="trace and policy seed")
    p.add_argument("--arrival", default="poisson",
                   choices=["poisson", "diurnal"])
    p.add_argument("--autoscale", action="store_true",
                   help="enable the reactive autoscaler (preset "
                        "configs only; JSON configs carry their own)")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON instead of a table")
    p.add_argument("--out", default=None,
                   help="also write the JSON report to this file")


def _add_compile(subparsers) -> None:
    p = subparsers.add_parser(
        "compile",
        help="ahead-of-time compile a model directory's prediction "
             "plans into per-model bundles (plans/<name>.plan.json); "
             "the server, calibrator and fleet then load matrices "
             "instead of re-lowering on cold start")
    p.add_argument("--models", default=None,
                   help="directory of saved model JSONs (required "
                        "unless --smoke, which trains its own)")
    p.add_argument("--all", action="store_true",
                   help="compile every hosted model")
    p.add_argument("--model", action="append", dest="only_models",
                   default=None,
                   help="compile only this model (repeatable)")
    p.add_argument("--network", action="append", dest="networks",
                   default=None,
                   help="cover only this network (repeatable; default: "
                        "every named zoo network)")
    p.add_argument("--batch-size", action="append", dest="batch_sizes",
                   type=int, default=None,
                   help="batch size to cover (repeatable; default: 1)")
    p.add_argument("--verify", action="store_true",
                   help="reload every written bundle and assert its "
                        "plans evaluate bit-exactly equal to freshly "
                        "lowered ones")
    p.add_argument("--smoke", action="store_true",
                   help="CI gate: train a small model set into a temp "
                        "store, compile --all --verify over it, and "
                        "assert the serving registry preloads the "
                        "bundles")


def _add_check(subparsers) -> None:
    p = subparsers.add_parser(
        "check",
        help="run the AST lint rules, the whole-program analyzers "
             "(units/races/dead surface) and the domain contract checker")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text",
                   help="output format (json for the CI gate, sarif "
                        "for PR diff annotations)")
    p.add_argument("--paths", nargs="+", default=None,
                   help="files/directories to analyze "
                        "(default: the installed repro package)")
    p.add_argument("--include-tests", action="store_true",
                   help="also lint pytest-style files (benchmarks/); "
                        "test-scoped rules still skip them")
    p.add_argument("--only", default=None,
                   help="comma-separated rule ids across every engine "
                        "(lint, UN001/RC100/DC001, CT contracts); "
                        "everything else is skipped")
    p.add_argument("--no-lint", action="store_true",
                   help="skip the AST lint rules")
    p.add_argument("--no-program", action="store_true",
                   help="skip the whole-program analyzers "
                        "(UN001/RC100/DC001)")
    p.add_argument("--no-contracts", action="store_true",
                   help="skip the zoo domain contract checker")
    p.add_argument("--index-stats", action="store_true",
                   help="report whole-program index statistics "
                        "(modules, call graph resolution, ...)")
    p.add_argument("--baseline", default=None,
                   help="findings baseline file (default: the committed "
                        "analysis_checks/baseline.json)")
    p.add_argument("--no-baseline", action="store_true",
                   help="report every finding, ignoring the baseline")
    p.add_argument("--update-baseline", action="store_true",
                   help="pin the current findings as the accepted "
                        "baseline and exit")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on warnings too, not just errors")
    p.add_argument("--batch-size", type=int, default=1,
                   help="batch size for the contract checker's layer walk")
    p.add_argument("--network", action="append", dest="networks",
                   default=None,
                   help="contract-check only this network (repeatable; "
                        "default: every named zoo model)")


def _add_reproduce(subparsers) -> None:
    p = subparsers.add_parser(
        "reproduce",
        help="run the headline reproduction (the artifact's run.sh)")
    p.add_argument("--scale", default="full",
                   choices=["small", "medium", "full"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="report directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DNN execution time prediction (MICRO 2023 repro)")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_build(subparsers)
    _add_train(subparsers)
    _add_train_igkw(subparsers)
    _add_predict(subparsers)
    _add_evaluate(subparsers)
    _add_list(subparsers)
    _add_serve(subparsers)
    _add_loadgen(subparsers)
    _add_calibrate(subparsers)
    _add_fleet(subparsers)
    _add_compile(subparsers)
    _add_check(subparsers)
    _add_reproduce(subparsers)
    return parser


def _roster(name: str):
    if name == "text":
        return zoo.text_roster()
    return zoo.imagenet_roster(name)


def _parse_batch(value: str) -> Optional[int]:
    return None if value == "all" else int(value)


def _cmd_build(args) -> int:
    networks = _roster(args.roster)
    specs = [gpu(name) for name in args.gpus]
    data = dataset.build_dataset(networks, specs,
                                 batch_sizes=args.batch_sizes,
                                 training=args.training)
    directory = dataset.save_dataset(data, args.out)
    print(f"wrote {len(data):,} kernel executions "
          f"({len(data.network_names())} networks, "
          f"{len(data.kernel_names())} kernels) to {directory}")
    return 0


def _cmd_train(args) -> int:
    data = dataset.load_dataset(args.dataset)
    model = core.train_model(data, args.model, gpu=args.gpu,
                             batch_size=_parse_batch(args.batch_size))
    path = core.save_model(model, args.out)
    print(f"trained {args.model.upper()} on {args.gpu}; saved to {path}")
    return 0


def _cmd_train_igkw(args) -> int:
    data = dataset.load_dataset(args.dataset)
    model = core.train_inter_gpu_model(
        data, [gpu(name) for name in args.gpus],
        batch_size=_parse_batch(args.batch_size))
    path = core.save_model(model, args.out)
    print(f"trained IGKW on {', '.join(args.gpus)}; saved to {path}")
    return 0


def _parse_grid(spec: str):
    from repro.studies.bandwidth_sweep import DEFAULT_BANDWIDTHS
    if spec.strip().lower() == "default":
        return list(DEFAULT_BANDWIDTHS)
    try:
        bandwidths = [float(token) for token in spec.split(",") if token.strip()]
    except ValueError:
        raise ValueError(
            f"--grid must be comma-separated GB/s values or 'default', "
            f"got {spec!r}") from None
    if not bandwidths:
        raise ValueError("--grid bandwidths must be positive GB/s values")
    return [_check_gbs("--grid", b) for b in bandwidths]


def _check_gbs(option: str, bandwidth: float) -> float:
    """``bandwidth`` if it is a positive finite GB/s value."""
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"{option}: bandwidth must be a positive finite "
                         f"GB/s value, got {bandwidth:g}")
    return bandwidth


def _cmd_predict(args) -> int:
    try:
        if args.bandwidth is not None:
            _check_gbs("--bandwidth", args.bandwidth)
        bandwidths = None if args.grid is None else _parse_grid(args.grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    model = core.load_model(args.model)
    network = zoo.build(args.network)
    # one compile serves both the prediction and the coverage audit
    if isinstance(model, InterGPUKernelWiseModel):
        if args.gpu is None:
            print("error: igkw models need --gpu", file=sys.stderr)
            return 2
        target = gpu(args.gpu)
        if args.bandwidth is not None:
            target = target.with_bandwidth(args.bandwidth)
        if bandwidths is not None:
            # the whole grid is one vectorised evaluate_many call
            retargetable = model.compile(network, args.batch_size)
            times = retargetable.evaluate_many(
                [target.with_bandwidth(b) for b in bandwidths])
            print(f"{args.network} at batch {args.batch_size} on "
                  f"{target.name} across {len(bandwidths)} bandwidths:")
            for bandwidth, predicted in zip(bandwidths, times):
                print(f"  {bandwidth:8g} GB/s  {predicted / 1e3:10.3f} ms")
            return 0
        plan = model.compile(network, args.batch_size).bind(target)
        label = target.name
    else:
        if bandwidths is not None:
            print("error: --grid applies to igkw models only",
                  file=sys.stderr)
            return 2
        plan = model.compile(network, args.batch_size)
        label = "its training GPU"
    predicted = plan.evaluate()
    print(f"{args.network} at batch {args.batch_size} on {label}: "
          f"{predicted / 1e3:.3f} ms")
    if args.coverage:
        report = plan.coverage()
        if report is not None:
            print(report.render())
        else:
            print("(coverage audit applies to kernel-level models only)")
    return 0


def _network_index(names) -> dict:
    """name -> built Network for every resolvable dataset network."""
    wanted = set(names)
    index = {}
    for name in wanted:
        try:
            index[name] = zoo.build(name)
        except KeyError:
            continue   # variant names are reconstructed below
    # variant networks are not individually registered; rebuild rosters
    if len(index) < len(wanted):
        for scale in ("full", "text"):
            for network in _roster(scale):
                if network.name in wanted:
                    index.setdefault(network.name, network)
    return index


def _cmd_evaluate(args) -> int:
    model = core.load_model(args.model)
    data = dataset.load_dataset(args.dataset)
    _, test = dataset.train_test_split(data,
                                       test_fraction=args.test_fraction,
                                       seed=args.seed)
    index = _network_index(test.network_names())
    if isinstance(model, InterGPUKernelWiseModel):
        predictor = model.for_gpu(gpu(args.gpu))
    else:
        predictor = model
    curve = core.evaluate_model(predictor, test, index, gpu=args.gpu,
                                batch_size=args.batch_size)
    print(curve.render(f"{args.model} on {args.gpu} "
                       f"(BS {args.batch_size}, "
                       f"{len(curve.ratios)} networks)"))
    if args.breakdown:
        breakdown = core.error_breakdown(predictor, test, index,
                                         gpu=args.gpu,
                                         batch_size=args.batch_size)
        print(breakdown.render())
    return 0


def _cmd_list(args) -> int:
    if args.what == "networks":
        for name in zoo.model_names():
            print(name)
    else:
        for name in gpu_names():
            spec = gpu(name)
            print(f"{name:<14} {spec.bandwidth_gbs:>6g} GB/s  "
                  f"{spec.fp32_tflops:>5g} TFLOPS  {spec.memory_gb:g} GB")
    return 0


def _cmd_serve(args) -> int:
    if args.smoke:
        from repro.service.smoke import run_scaleout_smoke
        report = run_scaleout_smoke(workers=max(2, args.workers))
        print(report.render())
        return 0 if report.ok else 1
    if args.models is None:
        print("error: --models is required (only --smoke trains its "
              "own model set)", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.workers > 1:
        return _serve_scaled(args)
    from repro.service import (
        ModelRegistry,
        PredictionCache,
        PredictionService,
        make_server,
    )
    registry = ModelRegistry(args.models)
    calibrator = None
    loop = None
    if args.calibrate:
        from repro.calibration import CalibrationLoop, build_calibrator
        calibrator = build_calibrator(args.models,
                                      window=args.feedback_window)
        loop = CalibrationLoop(calibrator,
                               interval_s=args.calibrate_interval)
    service = PredictionService(
        registry, cache=PredictionCache(args.cache_size),
        coverage_threshold=args.coverage_threshold,
        plan_cache=PredictionCache(args.plan_cache_size),
        calibrator=calibrator, batch_cap=args.batch_cap)
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving {len(registry)} model(s) "
          f"({', '.join(registry.names())}) on http://{host}:{port}")
    if loop is not None:
        loop.start()
        print(f"calibration loop: sweeping for drift every "
              f"{args.calibrate_interval:g}s")
    for name, reason in sorted(registry.errors.items()):
        print(f"warning: skipped {name}: {reason}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if loop is not None:
            loop.stop()
        server.server_close()
    return 0


def _serve_scaled(args) -> int:
    """``repro serve --workers N>1``: the pre-fork scale-out path."""
    from repro.service.frontend import ScaledServer
    from repro.service.pool import WorkerOptions
    calibrator = None
    loop = None
    if args.calibrate:
        from repro.calibration import CalibrationLoop, build_calibrator
        # exactly one calibrator, owned by the frontend: workers only
        # validate and replay feedback, the record happens here
        calibrator = build_calibrator(args.models,
                                      window=args.feedback_window)
        loop = CalibrationLoop(calibrator,
                               interval_s=args.calibrate_interval)
    options = WorkerOptions(
        cache_size=args.cache_size,
        plan_cache_size=args.plan_cache_size,
        coverage_threshold=args.coverage_threshold,
        batch_cap=args.batch_cap,
        snapshot_interval_s=args.snapshot_interval)
    server = ScaledServer(args.models, workers=args.workers,
                          host=args.host, port=args.port,
                          max_queue_depth=args.max_queue_depth,
                          options=options, calibrator=calibrator)
    try:
        host, port = server.start()
        health = server.service.health()
        print(f"serving {health['models']} model(s) on "
              f"http://{host}:{port} with {args.workers} workers "
              f"(queue depth {args.max_queue_depth}, shed with 429 "
              "past it)")
        if loop is not None:
            loop.start()
            print(f"calibration loop: sweeping for drift every "
                  f"{args.calibrate_interval:g}s")
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if loop is not None:
            loop.stop()
        server.shutdown()
    return 0


def _cmd_loadgen(args) -> int:
    from repro.service.loadgen import run_multiprocess
    payloads = [{"model": args.model, "network": network,
                 "batch_size": args.batch_size, "gpu": args.gpu,
                 "bandwidth": args.bandwidth}
                for network in args.networks]
    report = run_multiprocess(args.url, payloads, rate_rps=args.rate,
                              n_requests=args.requests, procs=args.procs,
                              threads=args.threads, seed=args.seed,
                              batch=args.batch)
    print(report.render())
    return 0 if report.failed == 0 else 1


def _cmd_calibrate(args) -> int:
    if args.demo:
        import tempfile

        from repro.calibration.demo import run_drift_demo
        if args.store is not None:
            report = run_drift_demo(args.store, shift=args.shift)
        else:
            with tempfile.TemporaryDirectory() as scratch:
                report = run_drift_demo(scratch, shift=args.shift)
        print(report.render())
        return 0 if report.ok else 1

    if not (args.store and args.model and args.dataset):
        print("error: offline calibration needs --store, --model and "
              "--dataset (or use --demo)", file=sys.stderr)
        return 2
    from repro.calibration import build_calibrator, incremental_refit
    from repro.calibration.demo import observations_from_rows
    calibrator = build_calibrator(args.store)
    store = calibrator.store
    store.adopt(args.model)
    model = core.load_model(store.head_path(args.model))

    data = dataset.load_dataset(args.dataset)
    if args.gpu is not None:
        data = data.for_gpu(args.gpu)
    if args.batch_size is not None:
        data = data.at_batch(args.batch_size)
    if not data.network_rows:
        print("error: no dataset rows match the given filters",
              file=sys.stderr)
        return 2
    index = _network_index(data.network_names())
    observations = observations_from_rows(args.model, model, data, index)
    for observation in observations:
        calibrator.record(observation)
    print(f"replayed {len(observations)} observations; incumbent MAPE "
          f"{calibrator.feedback.mape(args.model):.4f}")

    events = calibrator.step()
    if not events and args.force:
        # no alarm fired: refit anyway, but keep the shadow gate honest
        window = calibrator.feedback.window_for(args.model)
        result = incremental_refit(store.document(args.model), window)
        decision = calibrator.gate.evaluate(model, result.model, window)
        event = {"model": args.model, "trigger": "manual",
                 "decision": decision.describe(),
                 "promoted": decision.promote}
        if decision.promote:
            event["version"] = store.publish(
                args.model, result.document, trigger="manual",
                stats=result.stats, refit_samples=result.n_new)
        events = [event]

    if not events:
        print("no drift detected; nothing to refit "
              "(use --force to refit anyway)")
        return 0
    for event in events:
        if event.get("error"):
            print(f"{event['model']}: refit failed: {event['error']}")
            continue
        decision = event["decision"]
        verdict = (f"promoted v{event['version']}" if event["promoted"]
                   else "rejected")
        print(f"{event['model']} [{event['trigger']}]: {verdict} -- "
              f"{decision['reason']}")
    return 0 if all(not e.get("error") for e in events) else 1


def _cmd_fleet(args) -> int:
    import json as json_mod
    import time as time_mod

    from repro.fleet import (
        ExecTable,
        FleetConfig,
        FleetReport,
        FleetSimulator,
        policy_names,
    )
    from repro.studies import fleet_study

    if args.smoke:
        report = fleet_study.run_fleet_study(scale="small", seed=args.seed)
        again = fleet_study.run_fleet_study(scale="small", seed=args.seed)
        for first, second in zip(report.results, again.results):
            if first != second:
                print(f"error: policy {first.policy!r} is not "
                      f"bit-reproducible across identical runs",
                      file=sys.stderr)
                return 1
        missing = set(policy_names()) - set(report.policies())
        if missing:
            print(f"error: registered policies never ran: "
                  f"{sorted(missing)}", file=sys.stderr)
            return 1
        print(report.render())
        print(f"fleet smoke: {len(report.results)} policies, "
              f"bit-reproducible, all requests served")
        return 0

    if args.config is not None:
        with open(args.config) as handle:
            config = FleetConfig.from_dict(json_mod.load(handle))
    else:
        config = fleet_study.study_config(
            args.scale, seed=args.seed, arrival=args.arrival,
            autoscale=args.autoscale)

    if args.model is not None:
        model = core.load_model(args.model)
        if not isinstance(model, InterGPUKernelWiseModel):
            print("error: the fleet needs a retargetable igkw model",
                  file=sys.stderr)
            return 2
        networks = [zoo.build(name) for name in config.workload.networks]
        specs = [gpu(name) for name in config.gpu_types]
        # a warm AOT store (repro compile) prices the fleet without
        # re-lowering; load_plans degrades to {} when absent or stale
        from repro.core.planopt import load_plans
        plans = load_plans(args.model, model)
        if plans:
            print(f"(loaded {len(plans)} AOT plan(s) from "
                  f"{args.model}'s bundle)")
        table = ExecTable.from_model(model, networks, specs,
                                     config.max_batch, plans=plans)
    elif args.config is None:
        table = fleet_study.study_table(config.max_batch)
    else:
        networks = [zoo.build(name) for name in config.workload.networks]
        specs = [gpu(name) for name in config.gpu_types]
        table = ExecTable.from_model(fleet_study.study_predictor(),
                                     networks, specs, config.max_batch)

    simulator = FleetSimulator(config, table)
    start = time_mod.perf_counter()
    if args.compare:
        report = simulator.compare(policy_names())
    else:
        result = simulator.run(args.policy)
        report = FleetReport((result,), simulator.describe(),
                             simulator.offered_rate_rps)
    elapsed = time_mod.perf_counter() - start
    report = FleetReport(report.results, report.fleet,
                         report.offered_rate_rps, elapsed_s=elapsed)

    rendered = report.to_json() if args.json else report.render()
    print(rendered)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"(JSON report written to {args.out})")
    return 0


def _compile_smoke() -> int:
    """Train a tiny model set, AOT-compile it, and serve from the store."""
    import tempfile

    from repro.core import planopt
    from repro.core.e2e import EndToEndModel
    from repro.core.kernelwise import KernelWiseModel
    from repro.core.layerwise import LayerWiseModel
    from repro.core.persistence import save_model
    from repro.service import ModelRegistry, PredictionService

    networks = ["resnet18", "mobilenet_v2"]
    roster = [zoo.build(name) for name in networks]
    specs = [gpu("A100"), gpu("TITAN RTX")]
    data = dataset.build_dataset(roster, specs, batch_sizes=[64])
    a100 = data.for_gpu("A100")
    with tempfile.TemporaryDirectory() as scratch:
        save_model(EndToEndModel().train(a100), f"{scratch}/e2e.json")
        save_model(LayerWiseModel().train(a100), f"{scratch}/lw.json")
        save_model(KernelWiseModel().train(a100), f"{scratch}/kw.json")
        save_model(InterGPUKernelWiseModel().train(data, specs),
                   f"{scratch}/igkw.json")
        report = planopt.compile_store(scratch, network_names=networks,
                                       batch_sizes=[1, 64], verify=True)
        print(report.render())
        if not report.ok:
            return 1
        # the serving registry must preload every bundle it just wrote
        registry = ModelRegistry(scratch)
        unloaded = [name for name in registry.names()
                    if len(registry.get(name).plans) != 4]
        if unloaded:
            print(f"error: registry did not preload AOT plans for "
                  f"{unloaded}", file=sys.stderr)
            return 1
        service = PredictionService(registry)
        response = service.predict({"model": "igkw", "network": networks[0],
                                    "batch_size": 64, "gpu": "V100"})
        hits = service.metrics.counter("aot_plan_hits_total")
        if response.get("cached") or not response.get("plan_cached") \
                or hits != 1:
            print("error: cold predict did not serve from the AOT store",
                  file=sys.stderr)
            return 1
        print(f"compile smoke: {len(registry)} models preloaded, cold "
              f"predict served from the store "
              f"({response['predicted_us']:.1f} us on V100)")
    return 0


def _cmd_compile(args) -> int:
    from repro.core import planopt

    if args.smoke:
        return _compile_smoke()
    if args.models is None:
        print("error: --models is required (only --smoke trains its "
              "own model set)", file=sys.stderr)
        return 2
    if not args.all and not args.only_models:
        print("error: pass --all or one or more --model names",
              file=sys.stderr)
        return 2
    report = planopt.compile_store(
        args.models, network_names=args.networks,
        batch_sizes=args.batch_sizes or [1],
        model_names=None if args.all else args.only_models,
        verify=args.verify)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_check(args) -> int:
    from pathlib import Path

    import repro
    from repro.analysis_checks import (
        CONTRACT_RULES,
        PROGRAM_RULES,
        RULES,
        Severity,
        check_contracts,
        lint_paths,
        render_json,
        render_sarif,
        render_text,
        run_program_checks,
        select_rules,
    )
    from repro.analysis_checks.baseline import (
        apply_baseline,
        load_baseline,
        normalize_path,
        repo_root,
        save_baseline,
    )

    only = None
    if args.only:
        only = [rule.strip() for rule in args.only.split(",")]
        known = set(RULES) | set(PROGRAM_RULES) | set(CONTRACT_RULES)
        for rule in only:
            if rule not in known:
                raise KeyError(f"unknown rule {rule!r}; "
                               f"known: {sorted(known)}")

    paths = args.paths or [Path(repro.__file__).parent]
    findings = []

    run_lint = not args.no_lint and (
        only is None or any(rule in RULES for rule in only))
    if run_lint:
        rules = [rule for rule in select_rules()
                 if only is None or rule.rule_id in only]
        findings.extend(lint_paths(paths, rules,
                                   skip_tests=not args.include_tests))

    program_rules = set(PROGRAM_RULES if only is None else only) \
        & set(PROGRAM_RULES)
    stats = None
    if not args.no_program and program_rules:
        root = repo_root()
        reference = [entry for entry in (root / "tests",
                                         root / "benchmarks")
                     if entry.is_dir()]
        program_findings, stats = run_program_checks(
            paths, reference_paths=reference, only=program_rules)
        findings.extend(program_findings)

    report = None
    run_contracts = not args.no_contracts and (
        only is None or any(rule in CONTRACT_RULES for rule in only))
    if run_contracts:
        report = check_contracts(network_names=args.networks,
                                 batch_size=args.batch_size)
        contract_findings = report.findings
        if only is not None:
            contract_findings = [f for f in contract_findings
                                 if f.rule in only]
        findings.extend(contract_findings)

    if args.update_baseline:
        target = save_baseline(
            findings, Path(args.baseline) if args.baseline else None)
        print(f"baseline updated: {target} ({len(findings)} finding(s))")
        return 0

    baselined = 0
    if not args.no_baseline:
        baseline = load_baseline(
            Path(args.baseline) if args.baseline else None)
        findings, baselined = apply_baseline(findings, baseline)

    extra = {}
    if baselined:
        extra["baselined"] = baselined
    if args.index_stats and stats is not None:
        extra["index"] = stats

    if args.format == "json":
        print(render_json(findings, extra=extra or None))
    elif args.format == "sarif":
        print(render_sarif(findings, uri_for=normalize_path))
    else:
        print(render_text(findings))
        if baselined:
            print(f"({baselined} baselined finding(s) suppressed)")
        if args.index_stats and stats is not None:
            print("index: " + ", ".join(f"{key}={value}" for key, value
                                        in sorted(stats.items())))
        if report is not None:
            print(report.summary())
    failing = (findings if args.strict else
               [f for f in findings if f.severity is Severity.ERROR])
    return 1 if failing else 0


def _cmd_reproduce(args) -> int:
    from repro.reproduce import main_report
    report = main_report(args.out, scale=args.scale, seed=args.seed)
    print(report)
    print(f"(saved to {args.out}/reproduction.txt)")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "train": _cmd_train,
    "train-igkw": _cmd_train_igkw,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "list": _cmd_list,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "calibrate": _cmd_calibrate,
    "fleet": _cmd_fleet,
    "compile": _cmd_compile,
    "check": _cmd_check,
    "reproduce": _cmd_reproduce,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        # missing model/dataset path: one line, not a traceback
        reason = (f"no such file or directory: {exc.filename}"
                  if exc.filename else exc)
        print(f"error: {reason}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # unknown network/GPU/model name: the message lists valid choices
        reason = exc.args[0] if exc.args else exc
        print(f"error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
