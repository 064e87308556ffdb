//! Regeneration of the paper's figures (2–7) as CSV series plus textual
//! summaries. Plot rendering is deliberately out of scope — the series are
//! the reproducible artifact (see DESIGN.md).

use crate::methods::Method;
use crate::results::{fmt4, load, save_csv};
use crate::runner::{evaluate_method, pot_config, HarnessConfig, RunResult};
use crate::tables::table2;
use tranad::Ablation;
use tranad_baselines::Detector;
use tranad_baselines::TranadDetector;
use tranad_data::{generate, random_subsequence, DatasetKind};
use tranad_metrics::critical_difference;

/// Figure 2: anomaly-prediction visualization on an MBA-like trace —
/// series value, anomaly score, threshold and predicted/true labels per
/// timestamp.
pub fn figure2(cfg: &HarnessConfig) -> String {
    let ds = generate(DatasetKind::Mba, cfg.gen);
    let mut det = TranadDetector::new(cfg.tranad);
    det.fit(&ds.train).expect("figure 2 training");
    let trained = det.trained().expect("just fitted");
    let detection = trained
        .detect(&ds.test, pot_config(&ds))
        .expect("figure 2 detection");
    let truth = ds.point_labels();
    let rows: Vec<String> = (0..ds.test.len())
        .map(|t| {
            format!(
                "{t},{:.6},{:.6},{:.6},{},{}",
                ds.test.get(t, 0),
                detection.aggregate[t],
                detection.thresholds[0],
                detection.labels[t] as u8,
                truth[t] as u8,
            )
        })
        .collect();
    let path = save_csv("figure2", "t,value,score,threshold,predicted,truth", &rows)
        .expect("write figure 2");
    let detected: usize = detection
        .labels
        .iter()
        .zip(&truth)
        .filter(|(&p, &g)| p && g)
        .count();
    format!(
        "Figure 2 series -> {}\n{} timestamps, {} true-positive points before adjustment\n",
        path.display(),
        ds.test.len(),
        detected
    )
}

/// Figure 3: attention and focus scores over the first dimensions of an
/// SMD-like trace.
pub fn figure3(cfg: &HarnessConfig) -> String {
    let ds = generate(DatasetKind::Smd, cfg.gen);
    let mut det = TranadDetector::new(cfg.tranad);
    det.fit(&ds.train).expect("figure 3 training");
    let trained = det.trained().expect("just fitted");
    let intro = trained
        .introspect(&ds.test)
        .expect("full model has attention");
    let dims = ds.dims().min(6);
    let mut header = String::from("t,attention");
    for d in 0..dims {
        header.push_str(&format!(",value{d},focus{d}"));
    }
    let rows: Vec<String> = (0..ds.test.len())
        .map(|t| {
            let mut row = format!("{t},{:.6}", intro.attention[t]);
            for d in 0..dims {
                row.push_str(&format!(
                    ",{:.6},{:.6}",
                    ds.test.get(t, d),
                    intro.focus[t][d]
                ));
            }
            row
        })
        .collect();
    let path = save_csv("figure3", &header, &rows).expect("write figure 3");
    // Correlation between focus scores and ground truth, the property the
    // paper's Figure 3 illustrates.
    let truth = ds.point_labels();
    let focus_mean: Vec<f64> = intro
        .focus
        .iter()
        .map(|f| f.iter().sum::<f64>() / f.len() as f64)
        .collect();
    let anom_focus = mean_where(&focus_mean, &truth, true);
    let norm_focus = mean_where(&focus_mean, &truth, false);
    format!(
        "Figure 3 series -> {}\nmean focus on anomalous timestamps {:.6} vs normal {:.6}\n",
        path.display(),
        anom_focus,
        norm_focus
    )
}

fn mean_where(values: &[f64], mask: &[bool], target: bool) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for (&v, &m) in values.iter().zip(mask) {
        if m == target {
            sum += v;
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

/// Figure 4: critical-difference analysis over the Table 2 results (F1 and
/// AUC). Reuses cached Table 2 rows if present; otherwise recomputes.
pub fn figure4(cfg: &HarnessConfig) -> String {
    let results: Vec<RunResult> = load("table2").unwrap_or_else(|| table2(cfg, &[], &[], |_| {}));
    let mut out = String::new();
    for (metric_name, metric) in [
        (
            "F1",
            Box::new(|r: &RunResult| r.f1) as Box<dyn Fn(&RunResult) -> f64>,
        ),
        ("AUC", Box::new(|r: &RunResult| r.auc)),
    ] {
        let (_datasets, methods, matrix) = crate::results::score_matrix(&results, &metric);
        let names: Vec<&str> = methods.iter().map(String::as_str).collect();
        let (entries, friedman, pvals) = critical_difference(&names, &matrix);
        out.push_str(&format!(
            "Critical difference on {metric_name}: Friedman chi2 = {:.3} (significant at 0.05: {})\n",
            friedman.chi_square, friedman.significant_05
        ));
        for e in &entries {
            out.push_str(&format!("  rank {:5.2}  {}\n", e.rank, e.name));
        }
        out.push_str("  Wilcoxon p-values vs the top-ranked method:\n");
        for (name, p) in &pvals {
            out.push_str(&format!("    {name}: p = {p:.4}\n"));
        }
        out.push('\n');
    }
    out
}

/// Figure 5: predicted vs. ground-truth per-dimension labels on MSDS.
pub fn figure5(cfg: &HarnessConfig) -> String {
    let ds = generate(DatasetKind::Msds, cfg.gen);
    let mut det = TranadDetector::new(cfg.tranad);
    det.fit(&ds.train).expect("figure 5 training");
    let trained = det.trained().expect("just fitted");
    let detection = trained
        .detect(&ds.test, pot_config(&ds))
        .expect("figure 5 detection");
    let dims = ds.dims();
    let mut header = String::from("t");
    for d in 0..dims {
        header.push_str(&format!(",pred{d},true{d}"));
    }
    let rows: Vec<String> = (0..ds.test.len())
        .map(|t| {
            let mut row = t.to_string();
            for d in 0..dims {
                row.push_str(&format!(
                    ",{},{}",
                    detection.dim_labels[t][d] as u8,
                    ds.labels.at(t, d) as u8
                ));
            }
            row
        })
        .collect();
    let path = save_csv("figure5", &header, &rows).expect("write figure 5");
    // Per-dimension agreement summary.
    let mut agreements = Vec::new();
    for d in 0..dims {
        let agree = (0..ds.test.len())
            .filter(|&t| detection.dim_labels[t][d] == ds.labels.at(t, d))
            .count();
        agreements.push(agree as f64 / ds.test.len() as f64);
    }
    format!(
        "Figure 5 raster -> {}\nper-dimension label agreement: {}\n",
        path.display(),
        agreements
            .iter()
            .map(|a| format!("{a:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    )
}

/// Figure 6: F1 / AUC / training time as the training-set fraction sweeps
/// 20–100 %. Sweeps TranAD plus a representative baseline set over a
/// dataset subset for tractability.
pub fn figure6(cfg: &HarnessConfig, dataset_filter: &[DatasetKind]) -> String {
    let kinds: Vec<DatasetKind> = if dataset_filter.is_empty() {
        vec![DatasetKind::Nab, DatasetKind::Smd, DatasetKind::Msds]
    } else {
        dataset_filter.to_vec()
    };
    let methods = [
        Method::Tranad,
        Method::Usad,
        Method::OmniAnomaly,
        Method::Dagmm,
    ];
    let fractions = [0.2, 0.4, 0.6, 0.8, 1.0];
    let mut rows = Vec::new();
    for kind in &kinds {
        let ds = generate(*kind, cfg.gen);
        for method in methods {
            for &frac in &fractions {
                let subset = random_subsequence(&ds.train, frac, 11);
                let mut det = method.build(cfg);
                let r = det
                    .fit(&subset)
                    .and_then(|fit| {
                        crate::runner::evaluate_fitted(det.as_ref(), &ds, fit.seconds_per_epoch)
                    })
                    .unwrap_or_else(|e| RunResult::failed(method.name(), kind.name(), &e));
                rows.push(format!(
                    "{},{},{:.2},{},{},{:.4}",
                    kind.name(),
                    method.name(),
                    frac,
                    fmt4(r.f1),
                    fmt4(r.auc),
                    r.secs_per_epoch
                ));
            }
        }
    }
    let path = save_csv(
        "figure6",
        "dataset,method,fraction,f1,auc,secs_per_epoch",
        &rows,
    )
    .expect("write figure 6");
    format!(
        "Figure 6 sweep -> {}\n{}\n",
        path.display(),
        rows.join("\n")
    )
}

/// Figure 7: F1 / AUC / training time vs. window size for TranAD and its
/// ablations.
pub fn figure7(cfg: &HarnessConfig, dataset_filter: &[DatasetKind]) -> String {
    let kinds: Vec<DatasetKind> = if dataset_filter.is_empty() {
        vec![DatasetKind::Smd]
    } else {
        dataset_filter.to_vec()
    };
    let windows = [4usize, 8, 10, 16];
    let mut rows = Vec::new();
    for kind in &kinds {
        let ds = generate(*kind, cfg.gen);
        for ablation in Ablation::all() {
            for &w in &windows {
                let mut tcfg = ablation.apply(cfg.tranad);
                tcfg.window = w;
                tcfg.context = tcfg.context.max(w);
                let mut det = TranadDetector::ablation(ablation, tcfg);
                let r = evaluate_method(&mut det, &ds)
                    .unwrap_or_else(|e| RunResult::failed(ablation.name(), kind.name(), &e));
                rows.push(format!(
                    "{},{},{},{},{},{:.4}",
                    kind.name(),
                    ablation.name(),
                    w,
                    fmt4(r.f1),
                    fmt4(r.auc),
                    r.secs_per_epoch
                ));
            }
        }
    }
    let path = save_csv(
        "figure7",
        "dataset,variant,window,f1,auc,secs_per_epoch",
        &rows,
    )
    .expect("write figure 7");
    format!(
        "Figure 7 sweep -> {}\n{}\n",
        path.display(),
        rows.join("\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranad_data::GenConfig;

    fn tiny() -> HarnessConfig {
        let mut cfg = HarnessConfig::quick();
        cfg.gen = GenConfig {
            scale: 0.0005,
            min_len: 200,
            seed: 5,
        };
        cfg.tranad.epochs = 1;
        cfg.tranad.ff_hidden = 8;
        cfg
    }

    #[test]
    fn figure2_writes_series() {
        let out = figure2(&tiny());
        assert!(out.contains("figure2"));
        assert!(std::path::Path::new("target/figures/figure2.csv").exists());
    }

    #[test]
    fn figure4_reports_ranks() {
        // Build a fake cached table 2 to avoid a full run.
        let fake: Vec<RunResult> = ["TranAD", "USAD"]
            .iter()
            .flat_map(|m| {
                ["NAB", "SMD", "MSDS"].iter().map(move |d| RunResult {
                    method: m.to_string(),
                    dataset: d.to_string(),
                    precision: 0.9,
                    recall: 0.9,
                    auc: if *m == "TranAD" { 0.95 } else { 0.85 },
                    f1: if *m == "TranAD" { 0.9 } else { 0.8 },
                    secs_per_epoch: 1.0,
                    error: String::new(),
                })
            })
            .collect();
        crate::results::save("table2", &fake).unwrap();
        let out = figure4(&tiny());
        assert!(out.contains("rank"));
        assert!(out.contains("TranAD"));
    }
}
