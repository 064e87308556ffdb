//! Regeneration of every table in the paper's evaluation (Tables 1–7).
//!
//! Each function computes the table's rows, prints a fixed-width rendering,
//! and persists the raw rows as JSON under `target/results/` for reuse by
//! the figures and EXPERIMENTS.md.

use crate::methods::Method;
use crate::results::{fmt4, render_table, save, score_matrix};
use crate::runner::{evaluate_fitted, evaluate_method, pot_config, HarnessConfig, RunResult};
use tranad::{detect_aggregate, DetectorError};
use tranad_baselines::{Detector, Merlin, MerlinConfig};
use tranad_data::{generate, limited_data_subsets, Dataset, DatasetKind};
use tranad_metrics::{diagnose, evaluate};
use tranad_tensor::pool;

/// Datasets used in a run (defaults to all nine).
pub(crate) fn datasets(cfg: &HarnessConfig, filter: &[DatasetKind]) -> Vec<Dataset> {
    let kinds: Vec<DatasetKind> = if filter.is_empty() {
        DatasetKind::all().to_vec()
    } else {
        filter.to_vec()
    };
    kinds.into_iter().map(|k| generate(k, cfg.gen)).collect()
}

/// Table 1: dataset statistics — paper values alongside the generated
/// synthetic counterparts.
pub fn table1(cfg: &HarnessConfig) -> String {
    let header: Vec<String> = [
        "Dataset",
        "Train",
        "Test",
        "Dims",
        "Anom% (paper)",
        "Train*",
        "Test*",
        "Anom%*",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for kind in DatasetKind::all() {
        let stats = kind.paper_stats();
        let ds = generate(kind, cfg.gen);
        rows.push(vec![
            kind.name().to_string(),
            stats.train.to_string(),
            stats.test.to_string(),
            format!("{} ({})", stats.dims, stats.traces),
            format!("{:.2}", stats.anomaly_pct),
            ds.train.len().to_string(),
            ds.test.len().to_string(),
            format!("{:.2}", ds.labels.anomaly_rate() * 100.0),
        ]);
    }
    render_table(&header, &rows)
}

/// Runs a methods × datasets grid with full training data (no caching).
///
/// Grid cells are independent (each builds its own detector), so they run
/// on the global thread pool; `progress` is replayed serially afterwards in
/// the same deterministic (dataset, method) order as a serial run.
pub(crate) fn run_grid(
    cfg: &HarnessConfig,
    dataset_filter: &[DatasetKind],
    methods: &[Method],
    mut progress: impl FnMut(&RunResult),
) -> Vec<RunResult> {
    let dss = datasets(cfg, dataset_filter);
    let cells: Vec<(usize, Method)> = (0..dss.len())
        .flat_map(|d| methods.iter().map(move |&m| (d, m)))
        .collect();
    let mut slots: Vec<Option<RunResult>> = cells.iter().map(|_| None).collect();
    pool::parallel_chunks_mut(&mut slots, 1, |i, slot| {
        let (d, method) = cells[i];
        let mut det = method.build(cfg);
        slot[0] = Some(match evaluate_method(det.as_mut(), &dss[d]) {
            Ok(r) => r,
            Err(e) => RunResult::failed(method.name(), dss[d].kind.name(), &e),
        });
    });
    let results: Vec<RunResult> = slots.into_iter().flatten().collect();
    record_cells(&results);
    for r in &results {
        progress(r);
    }
    results
}

/// Emits one `bench.cell` event per grid result on
/// [`tranad_telemetry::current`] — serially, after the parallel region, so
/// trace order is deterministic.
fn record_cells(results: &[RunResult]) {
    let rec = tranad_telemetry::current();
    for r in results {
        rec.emit("bench.cell", |e| {
            e.str("method", r.method.clone())
                .str("dataset", r.dataset.clone())
                .bool("ok", r.is_ok())
                .f64("f1", r.f1)
                .f64("auc", r.auc)
                .f64("secs_per_epoch", r.secs_per_epoch)
                .str("error", r.error.clone());
        });
    }
}

/// Table 2: detection performance with the full training data.
pub fn table2(
    cfg: &HarnessConfig,
    dataset_filter: &[DatasetKind],
    method_filter: &[Method],
    progress: impl FnMut(&RunResult),
) -> Vec<RunResult> {
    let methods = if method_filter.is_empty() {
        Method::table2()
    } else {
        method_filter.to_vec()
    };
    let results = run_grid(cfg, dataset_filter, &methods, progress);
    crate::results::merge_and_save("table2", &results);
    results
}

/// Renders Table 2 rows in the paper's layout (one block per dataset).
pub fn render_table2(results: &[RunResult]) -> String {
    let header: Vec<String> = ["Dataset", "Method", "P", "R", "AUC", "F1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.method.clone(),
                fmt4(r.precision),
                fmt4(r.recall),
                fmt4(r.auc),
                fmt4(r.f1),
            ]
        })
        .collect();
    render_table(&header, &rows)
}

/// Table 3: AUC*/F1* with limited (20 %) training data, averaged over
/// `subsets` random subsets (the paper uses 5).
pub fn table3(
    cfg: &HarnessConfig,
    dataset_filter: &[DatasetKind],
    method_filter: &[Method],
    subsets: usize,
    progress: impl FnMut(&RunResult),
) -> Vec<RunResult> {
    let methods = if method_filter.is_empty() {
        Method::table2()
    } else {
        method_filter.to_vec()
    };
    let results = run_grid_limited(cfg, dataset_filter, &methods, subsets, progress);
    crate::results::merge_and_save("table3", &results);
    results
}

/// Runs the limited-data grid without caching. Cells run on the thread
/// pool like [`run_grid`]; the per-cell subset loop stays serial.
pub(crate) fn run_grid_limited(
    cfg: &HarnessConfig,
    dataset_filter: &[DatasetKind],
    methods: &[Method],
    subsets: usize,
    mut progress: impl FnMut(&RunResult),
) -> Vec<RunResult> {
    let dss = datasets(cfg, dataset_filter);
    let cells: Vec<(usize, Method)> = (0..dss.len())
        .flat_map(|d| methods.iter().map(move |&m| (d, m)))
        .collect();
    let mut slots: Vec<Option<RunResult>> = cells.iter().map(|_| None).collect();
    pool::parallel_chunks_mut(&mut slots, 1, |i, slot| {
        let (d, method) = cells[i];
        let ds = &dss[d];
        let subs = limited_data_subsets(&ds.train, 0.2, ds.kind as u64 + 1);
        let take = subsets.clamp(1, subs.len());
        let mut acc = RunResult {
            method: method.name().to_string(),
            dataset: ds.kind.name().to_string(),
            precision: 0.0,
            recall: 0.0,
            auc: 0.0,
            f1: 0.0,
            secs_per_epoch: 0.0,
            error: String::new(),
        };
        let cell = |acc: &mut RunResult| -> Result<(), DetectorError> {
            for subset in subs.iter().take(take) {
                let mut det = method.build(cfg);
                let fit = det.fit(subset)?;
                let r = evaluate_fitted(det.as_ref(), ds, fit.seconds_per_epoch)?;
                acc.precision += r.precision;
                acc.recall += r.recall;
                acc.auc += r.auc;
                acc.f1 += r.f1;
                acc.secs_per_epoch += r.secs_per_epoch;
            }
            Ok(())
        };
        slot[0] = Some(match cell(&mut acc) {
            Ok(()) => {
                let n = take as f64;
                acc.precision /= n;
                acc.recall /= n;
                acc.auc /= n;
                acc.f1 /= n;
                acc.secs_per_epoch /= n;
                acc
            }
            Err(e) => RunResult::failed(method.name(), ds.kind.name(), &e),
        });
    });
    let results: Vec<RunResult> = slots.into_iter().flatten().collect();
    record_cells(&results);
    for r in &results {
        progress(r);
    }
    results
}

/// Renders Table 3 (AUC*, F1*).
pub fn render_table3(results: &[RunResult]) -> String {
    let header: Vec<String> = ["Dataset", "Method", "AUC*", "F1*"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| vec![r.dataset.clone(), r.method.clone(), fmt4(r.auc), fmt4(r.f1)])
        .collect();
    render_table(&header, &rows)
}

/// One diagnosis row (Table 4).
#[derive(Debug, Clone)]
pub struct DiagnosisRow {
    /// Method name.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// HitRate@100%.
    pub hit100: f64,
    /// HitRate@150%.
    pub hit150: f64,
    /// NDCG@100%.
    pub ndcg100: f64,
    /// NDCG@150%.
    pub ndcg150: f64,
}

tranad_json::impl_json_struct!(DiagnosisRow {
    method,
    dataset,
    hit100,
    hit150,
    ndcg100,
    ndcg150,
});

/// Table 4: diagnosis performance (HitRate@P%, NDCG@P%) on the paper's two
/// multivariate diagnosis datasets, SMD and MSDS.
pub fn table4(
    cfg: &HarnessConfig,
    method_filter: &[Method],
    mut progress: impl FnMut(&DiagnosisRow),
) -> Vec<DiagnosisRow> {
    let methods = if method_filter.is_empty() {
        Method::table2()
    } else {
        method_filter.to_vec()
    };
    let mut rows = Vec::new();
    for kind in [DatasetKind::Smd, DatasetKind::Msds] {
        let ds = generate(kind, cfg.gen);
        let truth_dims: Vec<Vec<bool>> = (0..ds.labels.len())
            .map(|t| ds.labels.dim_labels(t))
            .collect();
        for &method in &methods {
            let mut det = method.build(cfg);
            let scores = det.fit(&ds.train).and_then(|_| det.score(&ds.test));
            let row = match scores {
                Ok(scores) => {
                    let d = diagnose(&scores, &truth_dims);
                    DiagnosisRow {
                        method: method.name().to_string(),
                        dataset: kind.name().to_string(),
                        hit100: d.hit100,
                        hit150: d.hit150,
                        ndcg100: d.ndcg100,
                        ndcg150: d.ndcg150,
                    }
                }
                // A failed fit becomes a NaN row ("-" in the rendering)
                // rather than aborting the remaining grid.
                Err(_) => DiagnosisRow {
                    method: method.name().to_string(),
                    dataset: kind.name().to_string(),
                    hit100: f64::NAN,
                    hit150: f64::NAN,
                    ndcg100: f64::NAN,
                    ndcg150: f64::NAN,
                },
            };
            progress(&row);
            rows.push(row);
        }
    }
    let _ = save("table4", &rows);
    rows
}

/// Renders Table 4.
pub fn render_table4(rows: &[DiagnosisRow]) -> String {
    let header: Vec<String> = ["Dataset", "Method", "H@100%", "H@150%", "N@100%", "N@150%"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.method.clone(),
                fmt4(r.hit100),
                fmt4(r.hit150),
                fmt4(r.ndcg100),
                fmt4(r.ndcg150),
            ]
        })
        .collect();
    render_table(&header, &body)
}

/// Table 5: training times in seconds per epoch, from the Table 2 run
/// (recomputing if no cached results exist).
pub fn table5(cfg: &HarnessConfig, results: &[RunResult]) -> String {
    let _ = cfg;
    let (datasets, methods, matrix) = score_matrix(results, |r| r.secs_per_epoch);
    let mut header = vec!["Method".to_string()];
    header.extend(datasets.iter().cloned());
    let mut rows = Vec::new();
    for (mi, method) in methods.iter().enumerate() {
        let mut row = vec![method.clone()];
        for col in matrix.iter().take(datasets.len()) {
            row.push(format!("{:.3}", col[mi]));
        }
        rows.push(row);
    }
    render_table(&header, &rows)
}

/// Table 6: ablation study — F1 (full data) and F1* (20 % data).
pub fn table6(
    cfg: &HarnessConfig,
    dataset_filter: &[DatasetKind],
    subsets: usize,
    mut progress: impl FnMut(&RunResult),
) -> (Vec<RunResult>, Vec<RunResult>) {
    let methods = Method::table6();
    let full = run_grid(cfg, dataset_filter, &methods, &mut progress);
    let _ = save("table6_full", &full);
    let limited = run_grid_limited(cfg, dataset_filter, &methods, subsets, &mut progress);
    let _ = save("table6_limited", &limited);
    (full, limited)
}

/// Renders Table 6 rows from the full and limited runs.
pub fn render_table6(full: &[RunResult], limited: &[RunResult]) -> String {
    let header: Vec<String> = ["Dataset", "Method", "F1", "F1*"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for f in full {
        let star = limited
            .iter()
            .find(|l| l.method == f.method && l.dataset == f.dataset)
            .map(|l| l.f1)
            .unwrap_or(f64::NAN);
        rows.push(vec![
            f.dataset.clone(),
            f.method.clone(),
            fmt4(f.f1),
            fmt4(star),
        ]);
    }
    render_table(&header, &rows)
}

/// One Table 7 row: MERLIN reference vs. optimized implementation.
#[derive(Debug, Clone)]
pub struct MerlinRow {
    /// Dataset name.
    pub dataset: String,
    /// Metric name (P/R/AUC/F1/Time).
    pub metric: String,
    /// The exhaustive "original" configuration's value.
    pub original: f64,
    /// The optimized reimplementation's value.
    pub ours: f64,
    /// Relative deviation `(ours - original) / original`.
    pub deviation: f64,
}

tranad_json::impl_json_struct!(MerlinRow {
    dataset,
    metric,
    original,
    ours,
    deviation,
});

/// Table 7: MERLIN original-vs-reimplementation comparison. The paper's
/// per-dataset (MinL, MaxL) grid-search values are reused directly.
pub fn table7(
    cfg: &HarnessConfig,
    dataset_filter: &[DatasetKind],
    mut progress: impl FnMut(&MerlinRow),
) -> Vec<MerlinRow> {
    // (MinL, MaxL) per dataset from the paper's Appendix A, scaled into our
    // shorter series where necessary.
    let paper_lengths = |kind: DatasetKind| -> (usize, usize) {
        match kind {
            DatasetKind::Nab => (10, 40),
            DatasetKind::Ucr => (50, 60),
            DatasetKind::Mba => (60, 100),
            DatasetKind::Smap => (70, 100),
            DatasetKind::Msl => (30, 60),
            DatasetKind::Swat => (10, 20),
            DatasetKind::Wadi => (60, 100),
            DatasetKind::Smd => (100, 140),
            DatasetKind::Msds => (5, 10),
        }
    };
    let mut rows = Vec::new();
    for ds in datasets(cfg, dataset_filter) {
        let (min_l, max_l) = paper_lengths(ds.kind);
        // Keep discord lengths feasible on the scaled series.
        let cap = (ds.test.len() / 4).max(8);
        let (min_l, max_l) = (min_l.min(cap).max(4), max_l.min(cap * 2).max(8));
        let truth = ds.point_labels();
        let run = |config: MerlinConfig| -> Result<(f64, f64, f64, f64, f64), DetectorError> {
            let mut det = Merlin::new(config);
            let fit = det.fit(&ds.train)?;
            let scores = det.score(&ds.test)?;
            let aggregate = tranad_baselines::aggregate_scores(&scores)?;
            let labels = detect_aggregate(det.train_scores()?, &scores, pot_config(&ds))?;
            let m = evaluate(&aggregate, &labels, &truth);
            Ok((m.precision, m.recall, m.auc, m.f1, fit.seconds_per_epoch))
        };
        let (orig, ours) = match (
            run(MerlinConfig::reference(min_l, max_l)),
            run(MerlinConfig::optimized(min_l, max_l)),
        ) {
            (Ok(o), Ok(u)) => (o, u),
            // Record the failure and move to the next dataset.
            (o, u) => {
                let err = o.err().or(u.err()).unwrap_or(DetectorError::NotFitted);
                tranad_telemetry::current().emit("bench.error", |e| {
                    e.str("table", "table7")
                        .str("dataset", ds.kind.name())
                        .str("error", err.to_string());
                });
                continue;
            }
        };
        for (metric, o, u) in [
            ("P", orig.0, ours.0),
            ("R", orig.1, ours.1),
            ("AUC", orig.2, ours.2),
            ("F1", orig.3, ours.3),
            ("Time", orig.4, ours.4),
        ] {
            let row = MerlinRow {
                dataset: ds.kind.name().to_string(),
                metric: metric.to_string(),
                original: o,
                ours: u,
                deviation: if o.abs() > 1e-12 { (u - o) / o } else { 0.0 },
            };
            progress(&row);
            rows.push(row);
        }
    }
    let _ = save("table7", &rows);
    rows
}

/// Renders Table 7.
pub fn render_table7(rows: &[MerlinRow]) -> String {
    let header: Vec<String> = ["Benchmark", "Metric", "Original", "Ours", "Deviation"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.metric.clone(),
                fmt4(r.original),
                fmt4(r.ours),
                fmt4(r.deviation),
            ]
        })
        .collect();
    render_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_datasets() {
        let out = table1(&HarnessConfig::quick());
        for kind in DatasetKind::all() {
            assert!(out.contains(kind.name()), "missing {}", kind.name());
        }
    }

    #[test]
    fn table2_single_cell() {
        let cfg = HarnessConfig::quick();
        let rows = table2(&cfg, &[DatasetKind::Nab], &[Method::Merlin], |_| {});
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].method, "MERLIN");
        let rendered = render_table2(&rows);
        assert!(rendered.contains("NAB"));
    }

    #[test]
    fn table7_merlin_deviation_small_on_scores() {
        let cfg = HarnessConfig::quick();
        let rows = table7(&cfg, &[DatasetKind::Nab], |_| {});
        assert_eq!(rows.len(), 5);
        let f1 = rows.iter().find(|r| r.metric == "F1").unwrap();
        assert!(
            f1.deviation.abs() < 0.35,
            "score deviation too large: {}",
            f1.deviation
        );
        let time = rows.iter().find(|r| r.metric == "Time").unwrap();
        assert!(time.ours < time.original, "optimized must be faster");
    }
}
