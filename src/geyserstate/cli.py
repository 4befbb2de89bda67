"""Command-line driver for the geyser-state pipeline.

Commands: synth | filter | train | classify | eval | pipeline.  Each stage
reads and writes plain text artifacts in the output directory, so a run can
be resumed or repeated stage by stage with no hidden state.  All randomness
flows from one master seed recorded in the artifact headers.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

import numpy as np

from .config import (
    dtw_params,
    forest_params,
    label_policy,
    load_config,
    resolve_out_dir,
    resolve_paths,
    synth_config,
)
from .dtw import knn_dtw_classify, load_reference, save_reference
from .errors import ConfigError, DataError, GeyserStateError, NumericError
from .evaluation import evaluate, render_report
from .features import (
    FeatureCatalog,
    build_feature_matrix,
    default_catalog,
    load_feature_mask,
    median_impute,
    save_feature_mask,
    save_feature_matrix,
    select_features,
)
from .filters import (
    apply_filter,
    ar_predict_one_step,
    design_butterworth_highpass,
    fit_ar,
    pef,
    r2_score,
    save_ar_model,
)
from .forest import Forest, load_forest, predict_forest, save_forest, train_forest
from .synth import generate, save_classes, split_train_test
from .timeseries import (
    EventLog,
    LabeledWindow,
    TimeSeries,
    label_windows,
    load_events,
    load_timeseries,
    sample_classes,
    save_events,
    save_timeseries,
    select_noise_segment,
    slice_windows,
)

_log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

CLASS_IDS = (1, 2, 3)

# plot trace span around each event, seconds before and after onset
PLOT_BEFORE_S = 240.0
PLOT_AFTER_S = 180.0


# -- small shared helpers ----------------------------------------------------------


def _seed_header(seed: int) -> list[str]:
    return [f"seed={seed}"]


def _labeled_windows(ts: TimeSeries, events: EventLog, values: dict) -> list[LabeledWindow]:
    windows = slice_windows(ts, values["window.length_s"], values["window.stride_s"])
    return label_windows(windows, events, label_policy(values))


def _class_counts(labeled: list[LabeledWindow]) -> dict[int, int]:
    counts = {c: 0 for c in CLASS_IDS}
    for w in labeled:
        counts[w.label] = counts.get(w.label, 0) + 1
    return counts


def _save_medians(medians: np.ndarray, catalog: FeatureCatalog, path: str, seed: int) -> None:
    """Training-column medians used to impute NaN cells at inference time."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in _seed_header(seed):
            fh.write(f"# {line}\n")
        fh.write(f"# catalog={catalog.version}\n")
        fh.write("feature_name,median\n")
        for name, m in zip(catalog.names, medians):
            fh.write(f"{name},{float(m)!r}\n")


def _load_medians(path: str, catalog: FeatureCatalog) -> np.ndarray:
    names: list[str] = []
    medians: list[float] = []
    version: str | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if line.startswith("# catalog="):
                    version = line.partition("=")[2]
                    continue
                if not line or line.startswith("#") or line.startswith("feature_name"):
                    continue
                name, _, value = line.partition(",")
                names.append(name)
                medians.append(float(value))
    except (OSError, ValueError) as exc:
        raise DataError(f"malformed impute file {path}: {exc}") from None
    if version != catalog.version:
        raise DataError(f"impute file built for catalog {version!r}, expected {catalog.version!r}")
    if names != catalog.names:
        raise DataError("impute file feature names do not match the catalog")
    return np.asarray(medians)


def _write_predictions(
    path: str,
    starts: np.ndarray,
    true_labels: np.ndarray,
    pred_labels: np.ndarray,
    votes: np.ndarray,
    seed: int,
) -> None:
    """`window_start_s,true_label,predicted_label,votes_1,votes_2,votes_3`."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in _seed_header(seed):
            fh.write(f"# {line}\n")
        fh.write("window_start_s,true_label,predicted_label,votes_1,votes_2,votes_3\n")
        for s, t, p, v in zip(starts, true_labels, pred_labels, votes):
            cells = ",".join(str(int(c)) for c in v)
            fh.write(f"{float(s)!r},{int(t)},{int(p)},{cells}\n")


def _load_predictions(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    starts: list[float] = []
    true_labels: list[int] = []
    pred_labels: list[int] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#") or line.startswith("window_start_s"):
                    continue
                cells = line.split(",")
                if len(cells) < 3:
                    raise DataError(f"malformed prediction row at line {lineno}")
                starts.append(float(cells[0]))
                true_labels.append(int(cells[1]))
                pred_labels.append(int(cells[2]))
    except OSError as exc:
        raise DataError(f"cannot read predictions file {path}: {exc}") from None
    except ValueError as exc:
        raise DataError(f"malformed predictions file {path}: {exc}") from None
    if not starts:
        raise DataError(f"predictions file {path} contains no rows")
    return np.asarray(starts), np.asarray(true_labels), np.asarray(pred_labels)


def _full_votes(raw_votes: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Expand a votes matrix over forest classes to fixed columns 1..3."""
    out = np.zeros((raw_votes.shape[0], len(CLASS_IDS)), dtype=np.int64)
    for j, c in enumerate(classes):
        out[:, int(c) - 1] = raw_votes[:, j]
    return out


def _load_input_series(values: dict, out_dir: str, override: str | None) -> TimeSeries:
    path = override or os.path.join(out_dir, "pef.csv")
    if not os.path.exists(path):
        raise DataError(f"input signal {path} not found; run the filter stage first")
    return load_timeseries(path, values["synth.fs_hz"])


# -- rf train/predict shared by cmd_train, cmd_classify, and the pipeline ----------


def _rf_fit(
    labeled: list[LabeledWindow],
    values: dict,
    seed: int,
    catalog: FeatureCatalog,
) -> tuple:
    """Features -> impute -> relevance selection -> forest.

    Returns (forest, selected column indices, training medians, the raw
    (matrix, labels, starts) triple for artifact export, and the mask).
    """
    matrix, labels, starts = build_feature_matrix(labeled, catalog)
    filled, medians = median_impute(matrix)
    mask = select_features(filled, labels, values["features.fdr_q"], values["features.cap"])
    cols = np.flatnonzero(mask.selected)
    names = tuple(catalog.names[j] for j in cols)
    forest = train_forest(
        filled[:, cols], labels, forest_params(values, seed), catalog.version, names
    )
    return forest, cols, medians, (matrix, labels, starts), mask


def _rf_predict(
    labeled: list[LabeledWindow],
    forest: Forest,
    cols: np.ndarray,
    medians: np.ndarray,
    catalog: FeatureCatalog,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Returns (starts, true labels, predictions, 3-column votes, mean seconds
    per forest predict call)."""
    matrix, labels, starts = build_feature_matrix(labeled, catalog)
    filled, _ = median_impute(matrix, medians)
    sub = filled[:, cols]
    preds = np.empty(len(labeled), dtype=np.int64)
    raw_votes = np.empty((len(labeled), forest.classes.size), dtype=np.int64)
    t0 = time.perf_counter()
    for i in range(sub.shape[0]):
        preds[i], raw_votes[i] = predict_forest(forest, sub[i])
    per_window = (time.perf_counter() - t0) / max(sub.shape[0], 1)
    return starts, labels, preds, _full_votes(raw_votes, forest.classes), per_window


def _dtw_predict(
    reference: list,
    labeled: list[LabeledWindow],
    params,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    starts = np.array([w.start_s for w in labeled])
    labels = np.array([w.label for w in labeled], dtype=np.int64)
    preds = np.empty(len(labeled), dtype=np.int64)
    t0 = time.perf_counter()
    for i, w in enumerate(labeled):
        preds[i] = knn_dtw_classify(reference, w.samples, params)
    per_window = (time.perf_counter() - t0) / max(len(labeled), 1)
    votes = np.zeros((len(labeled), len(CLASS_IDS)), dtype=np.int64)
    votes[np.arange(len(labeled)), preds - 1] = 1
    return starts, labels, preds, votes, per_window


# -- commands ----------------------------------------------------------------------


def cmd_synth(values: dict, seed: int, out_dir: str, args: argparse.Namespace) -> int:
    cfg = synth_config(values, seed)
    ts, events, classes = generate(cfg)
    paths = resolve_paths(values, out_dir)
    header = _seed_header(seed)
    save_timeseries(ts, paths["signal"], header)
    save_events(events, paths["events"], header)
    save_classes(ts, classes, paths["classes"], header)
    _log.info(
        "synthesized %d samples at %g Hz with %d events", len(ts), cfg.fs_hz, len(events)
    )
    print(f"wrote {paths['signal']}, {paths['events']}, {paths['classes']}")
    return EXIT_OK


def _fit_pef_chain(bh: TimeSeries, events: EventLog, values: dict) -> tuple:
    """Noise-segment AR fit plus held-out one-step R2; returns (model, r2).

    R2 is scored on the remainder after the training segment, skipping the
    first p samples of the remainder (they have no full lag history inside
    the evaluation slice).
    """
    policy = label_policy(values)
    segment = select_noise_segment(bh, events, values["ar.train_fraction"], policy)
    model = fit_ar(segment, values["ar.max_order"], values["ar.criterion"])
    seg_end = int(round((segment.t0_s - bh.t0_s) * bh.fs_hz)) + len(segment)
    held_out = bh.slice(seg_end, len(bh))
    if len(held_out) > model.order_p + 1:
        tail = held_out.slice(model.order_p, len(held_out))
        pred = ar_predict_one_step(model, held_out).slice(model.order_p, len(held_out))
        r2 = r2_score(tail, pred)
    else:
        r2 = float("nan")
    return model, r2


def cmd_filter(values: dict, seed: int, out_dir: str, args: argparse.Namespace) -> int:
    paths = resolve_paths(values, out_dir)
    if not os.path.exists(paths["signal"]):
        raise DataError(f"signal file {paths['signal']} not found; run synth or set paths.signal")
    ts = load_timeseries(paths["signal"], values["synth.fs_hz"])
    events = load_events(paths["events"])
    cascade = design_butterworth_highpass(
        values["filter.order"], values["filter.corner_hz"], ts.fs_hz
    )
    bh = apply_filter(cascade, ts)
    header = _seed_header(seed)
    save_timeseries(bh, os.path.join(out_dir, "bh.csv"), header)
    if args.skip_pef:
        _log.info("high-pass output written; prediction-error stage skipped")
        print(f"wrote {os.path.join(out_dir, 'bh.csv')}")
        return EXIT_OK
    model, r2 = _fit_pef_chain(bh, events, values)
    residual = pef(bh, model)
    save_ar_model(model, os.path.join(out_dir, "ar_model.txt"), header)
    save_timeseries(residual, os.path.join(out_dir, "pef.csv"), header)
    _log.info(
        "AR order p=%d, AIC=%.2f, held-out one-step R2=%.4f", model.order_p, model.aic, r2
    )
    print(
        f"wrote {os.path.join(out_dir, 'bh.csv')}, {os.path.join(out_dir, 'ar_model.txt')}, "
        f"{os.path.join(out_dir, 'pef.csv')} (p={model.order_p}, R2={r2:.4f})"
    )
    return EXIT_OK


def cmd_train(values: dict, seed: int, out_dir: str, args: argparse.Namespace) -> int:
    paths = resolve_paths(values, out_dir)
    ts = _load_input_series(values, out_dir, args.input)
    events = load_events(paths["events"])
    labeled = _labeled_windows(ts, events, values)
    if not labeled:
        raise DataError("no windows to train on; series shorter than one window")
    counts = _class_counts(labeled)
    if sum(1 for v in counts.values() if v > 0) < 2:
        raise DataError(f"training data has a single class (window counts {counts})")
    header = _seed_header(seed)
    if args.classifier == "dtw":
        ref_path = os.path.join(out_dir, "dtw_reference.csv")
        save_reference(labeled, ref_path, dtw_params(values), header)
        print(f"windows per class: {counts}")
        print(f"wrote {ref_path}")
        return EXIT_OK
    catalog = default_catalog(ts.fs_hz, values["features.fft_bins"])
    forest, cols, medians, (matrix, labels, starts), mask = _rf_fit(
        labeled, values, seed, catalog
    )
    save_feature_matrix(
        matrix, labels, starts, catalog, os.path.join(out_dir, "features.csv"), header
    )
    save_feature_mask(mask, catalog, os.path.join(out_dir, "feature_mask.csv"), header)
    _save_medians(medians, catalog, os.path.join(out_dir, "impute.csv"), seed)
    save_forest(forest, os.path.join(out_dir, "forest.txt"))
    print(f"windows per class: {counts}")
    print(f"selected {cols.size} of {len(catalog)} features")
    print(f"wrote {os.path.join(out_dir, 'forest.txt')}")
    return EXIT_OK


def cmd_classify(values: dict, seed: int, out_dir: str, args: argparse.Namespace) -> int:
    paths = resolve_paths(values, out_dir)
    ts = _load_input_series(values, out_dir, args.input)
    events = load_events(paths["events"])
    labeled = _labeled_windows(ts, events, values)
    if not labeled:
        raise DataError("no windows to classify; series shorter than one window")
    if args.classifier == "dtw":
        ref_path = args.model or os.path.join(out_dir, "dtw_reference.csv")
        reference, params = load_reference(ref_path)
        starts, truth, preds, votes, per_window = _dtw_predict(reference, labeled, params)
        _log.info("mean per-window warping classification latency: %.3f ms", per_window * 1e3)
    else:
        catalog = default_catalog(ts.fs_hz, values["features.fft_bins"])
        forest = load_forest(args.model or os.path.join(out_dir, "forest.txt"))
        mask = load_feature_mask(os.path.join(out_dir, "feature_mask.csv"), catalog)
        medians = _load_medians(os.path.join(out_dir, "impute.csv"), catalog)
        if forest.catalog_version != catalog.version:
            raise DataError(
                f"forest built for catalog {forest.catalog_version!r}, "
                f"expected {catalog.version!r}"
            )
        cols = np.flatnonzero(mask.selected)
        if cols.size != forest.n_features:
            raise DataError(
                f"mask selects {cols.size} features but the forest expects {forest.n_features}"
            )
        starts, truth, preds, votes, per_window = _rf_predict(
            labeled, forest, cols, medians, catalog
        )
        _log.info("mean per-window forest prediction latency: %.3f ms", per_window * 1e3)
    pred_path = os.path.join(out_dir, "predictions.csv")
    _write_predictions(pred_path, starts, truth, preds, votes, seed)
    print(f"classified {len(labeled)} windows ({per_window * 1e3:.3f} ms/window)")
    print(f"wrote {pred_path}")
    return EXIT_OK


def cmd_eval(values: dict, seed: int, out_dir: str, args: argparse.Namespace) -> int:
    paths = resolve_paths(values, out_dir)
    pred_path = args.predictions or os.path.join(out_dir, "predictions.csv")
    starts, truth, preds = _load_predictions(pred_path)
    ts = _load_input_series(values, out_dir, args.input)
    events = load_events(paths["events"])
    expected = _labeled_windows(ts, events, values)
    by_start = {round(float(s), 6): i for i, s in enumerate(starts)}
    if len(by_start) != starts.size:
        raise DataError(f"duplicate window starts in {pred_path}")
    for w in expected:
        key = round(float(w.start_s), 6)
        if key not in by_start:
            raise DataError(f"predictions missing window starting at {w.start_s!r} s")
        if truth[by_start[key]] != w.label:
            raise DataError(
                f"label mismatch at window {w.start_s!r} s: predictions file says "
                f"{truth[by_start[key]]}, ground truth is {w.label}"
            )
    if starts.size != len(expected):
        extras = set(by_start) - {round(float(w.start_s), 6) for w in expected}
        raise DataError(f"predictions contain unknown windows: {sorted(extras)[:5]}")
    cm, per_class, averages = evaluate(truth, preds)
    text, csv_text = render_report(cm, per_class, averages)
    seed_line = f"# seed={seed}\n"
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(seed_line + text)
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(seed_line + csv_text)
    print(text, end="")
    return EXIT_OK


# -- full pipeline -----------------------------------------------------------------


def _stage(name: str):
    """Context manager tagging any pipeline failure with its stage name.

    Logs `stage=<name> seconds=<t>` at INFO when the stage exits.
    """

    class _Tag:
        def __enter__(self):
            _log.debug("stage %s", name)
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            _log.info("stage=%s seconds=%.3f", name, time.perf_counter() - self.t0)
            if exc is not None and isinstance(exc, GeyserStateError):
                raise type(exc)(f"stage {name}: {exc}") from exc
            return False

    return _Tag()


def _emit_event_traces(
    out_dir: str,
    raw: TimeSeries,
    bh: TimeSeries,
    residual: TimeSeries,
    events: EventLog,
    test_events: EventLog,
    values: dict,
    seed: int,
) -> list[str]:
    """Per-event trace CSVs around each held-out event onset.

    Columns: timestamp_s, raw, bh, pef, class.  The class column carries the
    per-sample ground truth so a plotting tool can shade the precursor and
    eruption spans.
    """
    plots_dir = os.path.join(out_dir, "plots")
    os.makedirs(plots_dir, exist_ok=True)
    classes = sample_classes(raw, events, label_policy(values))
    times = raw.timestamps()
    written = []
    for k, e in enumerate(test_events.event_times_s, start=1):
        lo = max(0, int(round((e - PLOT_BEFORE_S - raw.t0_s) * raw.fs_hz)))
        hi = min(len(raw), int(round((e + PLOT_AFTER_S - raw.t0_s) * raw.fs_hz)))
        path = os.path.join(plots_dir, f"event_{k}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# seed={seed}\n")
            fh.write(f"# event_time_s={float(e)!r}\n")
            fh.write("timestamp_s,raw,bh,pef,class\n")
            for i in range(lo, hi):
                fh.write(
                    f"{float(times[i])!r},{float(raw.values[i])!r},"
                    f"{float(bh.values[i])!r},{float(residual.values[i])!r},{classes[i]}\n"
                )
        written.append(path)
    return written


def _evaluate_arm(
    name: str,
    out_dir: str,
    result: tuple,
    seed: int,
    canonical: bool,
) -> dict:
    """Persist one arm's predictions and report; returns its average metrics."""
    starts, truth, preds, votes, per_window = result
    suffix = "" if canonical else f"_{name}"
    _write_predictions(
        os.path.join(out_dir, f"predictions{suffix}.csv"), starts, truth, preds, votes, seed
    )
    cm, per_class, averages = evaluate(truth, preds)
    text, csv_text = render_report(cm, per_class, averages)
    seed_line = f"# seed={seed}\n"
    with open(os.path.join(out_dir, f"report{suffix}.txt"), "w", encoding="utf-8") as fh:
        fh.write(seed_line + text)
    with open(os.path.join(out_dir, f"report{suffix}.csv"), "w", encoding="utf-8") as fh:
        fh.write(seed_line + csv_text)
    _log.info("arm %s: %.3f ms/window", name, per_window * 1e3)
    return {
        "starts": starts,
        "macro": averages["macro"],
        "weighted": averages["support_weighted"],
    }


def cmd_pipeline(values: dict, seed: int, out_dir: str, args: argparse.Namespace) -> int:
    paths = resolve_paths(values, out_dir)
    header = _seed_header(seed)

    with _stage("synth"):
        if values["paths.signal"]:
            # caller supplied data; leave it untouched
            raw = load_timeseries(paths["signal"], values["synth.fs_hz"])
            events = load_events(paths["events"])
        else:
            cfg = synth_config(values, seed)
            raw, events, classes = generate(cfg)
            save_timeseries(raw, paths["signal"], header)
            save_events(events, paths["events"], header)
            save_classes(raw, classes, paths["classes"], header)

    with _stage("filter"):
        cascade = design_butterworth_highpass(
            values["filter.order"], values["filter.corner_hz"], raw.fs_hz
        )
        bh = apply_filter(cascade, raw)
        save_timeseries(bh, os.path.join(out_dir, "bh.csv"), header)

    with _stage("split"):
        (bh_train, ev_train), (bh_test, ev_test) = split_train_test(
            bh, events, values["split.ratio"], label_policy(values)
        )
        split_idx = len(bh_train)
        _log.info(
            "split at %g s: %d train / %d test samples, %d/%d events",
            bh_test.t0_s, len(bh_train), len(bh_test), len(ev_train), len(ev_test),
        )

    with _stage("filter"):
        # AR model is fitted on training-side noise only, then the filter is
        # run over the full series so the test side has no warm-up gap
        model, r2 = _fit_pef_chain(bh_train, ev_train, values)
        residual = pef(bh, model)
        save_ar_model(model, os.path.join(out_dir, "ar_model.txt"), header)
        save_timeseries(residual, os.path.join(out_dir, "pef.csv"), header)
        _log.info("AR order p=%d, train-side held-out R2=%.4f", model.order_p, r2)
        pef_train = residual.slice(0, split_idx)
        pef_test = residual.slice(split_idx, len(residual))

    with _stage("train"):
        catalog = default_catalog(raw.fs_hz, values["features.fft_bins"])
        train_pef = _labeled_windows(pef_train, ev_train, values)
        test_pef = _labeled_windows(pef_test, ev_test, values)
        if not train_pef or not test_pef:
            raise DataError("split leaves an empty window set on one side")
        _log.info(
            "train windows per class: %s; test: %s",
            _class_counts(train_pef), _class_counts(test_pef),
        )
        forest, cols, medians, (matrix, labels, starts), mask = _rf_fit(
            train_pef, values, seed, catalog
        )
        save_feature_matrix(
            matrix, labels, starts, catalog, os.path.join(out_dir, "features.csv"), header
        )
        save_feature_mask(mask, catalog, os.path.join(out_dir, "feature_mask.csv"), header)
        _save_medians(medians, catalog, os.path.join(out_dir, "impute.csv"), seed)
        save_forest(forest, os.path.join(out_dir, "forest.txt"))

    with _stage("classify"):
        arm_results = {
            "rf_pef": _rf_predict(test_pef, forest, cols, medians, catalog)
        }
        if args.compare:
            train_bh = _labeled_windows(bh_train, ev_train, values)
            test_bh = _labeled_windows(bh_test, ev_test, values)
            forest_b, cols_b, medians_b, _, _ = _rf_fit(train_bh, values, seed, catalog)
            arm_results["rf_nopef"] = _rf_predict(
                test_bh, forest_b, cols_b, medians_b, catalog
            )
            params = dtw_params(values)
            save_reference(
                train_pef, os.path.join(out_dir, "dtw_reference.csv"), params, header
            )
            arm_results["dtw_pef"] = _dtw_predict(train_pef, test_pef, params)

    with _stage("eval"):
        summaries = {}
        for name, result in arm_results.items():
            summaries[name] = _evaluate_arm(
                name, out_dir, result, seed, canonical=not args.compare
            )
        if args.compare:
            all_starts = [tuple(s["starts"].tolist()) for s in summaries.values()]
            if len(set(all_starts)) != 1:
                raise DataError("comparison arms disagree on window starts")
            rows = ["method,precision,recall,f1,weighted_f1"]
            for name in ("rf_pef", "rf_nopef", "dtw_pef"):
                m = summaries[name]["macro"]
                w = summaries[name]["weighted"]
                rows.append(f"{name},{m.precision:.6f},{m.recall:.6f},{m.f1:.6f},{w.f1:.6f}")
            with open(os.path.join(out_dir, "comparison.csv"), "w", encoding="utf-8") as fh:
                fh.write(f"# seed={seed}\n" + "\n".join(rows) + "\n")
            for row in rows:
                print(row)
        else:
            m = summaries["rf_pef"]["macro"]
            print(f"macro precision={m.precision:.4f} recall={m.recall:.4f} f1={m.f1:.4f}")

    with _stage("plots"):
        _emit_event_traces(out_dir, raw, bh, residual, events, ev_test, values, seed)
    return EXIT_OK


# -- argument parsing and dispatch -------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, metavar="PATH",
                        help="config file; omit to run on documented defaults")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, metavar="N",
                        help="master seed; overrides the config value")
    common.add_argument("--out", default=argparse.SUPPRESS, metavar="DIR",
                        help="output directory; overrides config and environment")
    common.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                        help="debug-level logging")
    parser = argparse.ArgumentParser(
        prog="geyserstate",
        description="noisy-signal state classification pipeline",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[common], help="generate a labeled synthetic signal")

    p_filter = sub.add_parser("filter", parents=[common],
                              help="high-pass and prediction-error filtering")
    p_filter.add_argument("--skip-pef", action="store_true",
                          help="stop after the high-pass stage")

    p_train = sub.add_parser("train", parents=[common], help="fit a classifier")
    p_train.add_argument("--classifier", choices=("rf", "dtw"), default="rf")
    p_train.add_argument("--input", metavar="PATH",
                         help="filtered signal CSV (default: <out>/pef.csv)")

    p_classify = sub.add_parser("classify", parents=[common],
                                help="predict window classes with a fitted model")
    p_classify.add_argument("--classifier", choices=("rf", "dtw"), default="rf")
    p_classify.add_argument("--model", metavar="PATH",
                            help="model file (default: <out>/forest.txt or dtw_reference.csv)")
    p_classify.add_argument("--input", metavar="PATH",
                            help="filtered signal CSV (default: <out>/pef.csv)")

    p_eval = sub.add_parser("eval", parents=[common],
                            help="score predictions against ground truth")
    p_eval.add_argument("--predictions", metavar="PATH",
                        help="predictions CSV (default: <out>/predictions.csv)")
    p_eval.add_argument("--input", metavar="PATH",
                        help="signal the predictions were made on (default: <out>/pef.csv)")

    p_pipe = sub.add_parser("pipeline", parents=[common],
                            help="run every stage end to end with a held-out split")
    p_pipe.add_argument("--compare", action="store_true",
                        help="run all three classifier arms and emit a comparison table")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "filter": cmd_filter,
    "train": cmd_train,
    "classify": cmd_classify,
    "eval": cmd_eval,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        values = load_config(getattr(args, "config", None))
        seed = getattr(args, "seed", None)
        if seed is None:
            seed = values["seed"]
        out_dir = resolve_out_dir(values, getattr(args, "out", None))
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.command](values, seed, out_dir, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
