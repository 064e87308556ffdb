//! Result persistence: each table/figure run writes its rows as JSON under
//! `target/results/`, so later figures (e.g. the Figure 4 critical
//! difference diagram) can reuse Table 2's numbers, and EXPERIMENTS.md can
//! be regenerated from disk.

use crate::runner::RunResult;
use std::fs;
use std::path::PathBuf;
use tranad_json::{FromJson, ToJson};

/// Directory for persisted results (workspace-relative).
pub(crate) fn results_dir() -> PathBuf {
    PathBuf::from("target/results")
}

/// Writes `rows` to `target/results/<name>.json` (pretty-printed).
pub(crate) fn save<T: ToJson>(name: &str, rows: &T) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, rows.to_json().to_string_pretty())?;
    Ok(path)
}

/// Loads previously saved rows, or `None` if the file is absent or stale
/// (unparsable, or written by an incompatible schema).
pub fn load<T: FromJson>(name: &str) -> Option<T> {
    let path = results_dir().join(format!("{name}.json"));
    let text = fs::read_to_string(path).ok()?;
    T::from_json(&tranad_json::parse(&text).ok()?).ok()
}

/// Merges freshly computed rows into the cached rows for `name`: new rows
/// replace cached rows with the same (method, dataset) key, so partial
/// reruns (e.g. `--dataset SMAP`) update the cache incrementally.
pub(crate) fn merge_and_save(name: &str, fresh: &[RunResult]) -> Vec<RunResult> {
    let mut merged: Vec<RunResult> = load(name).unwrap_or_default();
    for row in fresh {
        if let Some(existing) = merged
            .iter_mut()
            .find(|r| r.method == row.method && r.dataset == row.dataset)
        {
            *existing = row.clone();
        } else {
            merged.push(row.clone());
        }
    }
    let _ = save(name, &merged);
    merged
}

/// Groups flat results into a `[dataset][method]` score matrix for the
/// ranking analyses. Returns `(dataset_names, method_names, matrix)` where
/// `matrix[d][m]` is the metric picked by `metric`.
pub(crate) fn score_matrix(
    rows: &[RunResult],
    metric: impl Fn(&RunResult) -> f64,
) -> (Vec<String>, Vec<String>, Vec<Vec<f64>>) {
    let mut datasets: Vec<String> = Vec::new();
    let mut methods: Vec<String> = Vec::new();
    for r in rows {
        if !datasets.contains(&r.dataset) {
            datasets.push(r.dataset.clone());
        }
        if !methods.contains(&r.method) {
            methods.push(r.method.clone());
        }
    }
    let mut matrix = vec![vec![f64::NAN; methods.len()]; datasets.len()];
    for r in rows {
        let d = datasets
            .iter()
            .position(|x| x == &r.dataset)
            .expect("known dataset");
        let m = methods
            .iter()
            .position(|x| x == &r.method)
            .expect("known method");
        matrix[d][m] = metric(r);
    }
    (datasets, methods, matrix)
}

/// Renders a fixed-width text table.
pub(crate) fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&line(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

/// Formats a metric to the paper's 4-decimal convention.
pub(crate) fn fmt4(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.4}")
    }
}

/// Writes figure series as CSV under `target/figures/`.
pub(crate) fn save_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/figures");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut text = String::from(header);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(method: &str, dataset: &str, f1: f64) -> RunResult {
        RunResult {
            method: method.into(),
            dataset: dataset.into(),
            precision: 0.0,
            recall: 0.0,
            auc: 0.5,
            f1,
            secs_per_epoch: 1.0,
            error: String::new(),
        }
    }

    #[test]
    fn score_matrix_layout() {
        let rows = vec![
            result("A", "ds1", 0.9),
            result("B", "ds1", 0.5),
            result("A", "ds2", 0.8),
            result("B", "ds2", 0.6),
        ];
        let (ds, ms, m) = score_matrix(&rows, |r| r.f1);
        assert_eq!(ds, vec!["ds1", "ds2"]);
        assert_eq!(ms, vec!["A", "B"]);
        assert_eq!(m[0], vec![0.9, 0.5]);
        assert_eq!(m[1], vec![0.8, 0.6]);
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["Method".into(), "F1".into()],
            &[vec!["TranAD".into(), "0.9605".into()]],
        );
        assert!(t.contains("Method"));
        assert!(t.contains("TranAD"));
        assert!(t.lines().count() == 3);
    }

    #[test]
    fn fmt4_handles_nan() {
        assert_eq!(fmt4(f64::NAN), "-");
        assert_eq!(fmt4(0.12341), "0.1234");
    }
}
