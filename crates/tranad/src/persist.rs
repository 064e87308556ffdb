//! Model persistence: save a trained detector to JSON and load it back.
//!
//! The file stores the configuration, dimensionality, normalizer state,
//! every parameter tensor and the POT calibration scores. Loading rebuilds
//! the network from the configuration (parameter registration order is
//! deterministic) and restores the weights, so a loaded detector scores
//! bit-identically to the original.
//!
//! **Crash safety.** Checkpoints are written atomically: the JSON goes to a
//! temp file in the target directory, is fsynced, and is renamed over the
//! destination. A crash mid-write leaves the previous checkpoint intact —
//! readers never observe a torn file.
//!
//! **Format.** [`TrainedTranad::save`] writes format v2; [`TrainedTranad::load`]
//! accepts v1 and v2. A model file holds the model only: stream state is
//! persisted by the serving engine's checkpoints (`tranad-serve`), one
//! [`crate::OnlineSnapshot`] per stream. Older v2 files may carry a
//! `streaming` key; loading skips it like any other unknown key.

use crate::config::TranadConfig;
use crate::model::TranadModel;
use crate::train::TrainedTranad;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use tranad_data::Normalizer;
use tranad_nn::{Init, ParamStore};
use tranad_json::{FromJson, ToJson};
use tranad_tensor::shape::MAX_RANK;
use tranad_tensor::Tensor;

/// Serializable snapshot of a trained detector.
struct SavedModel {
    format_version: u32,
    config: TranadConfig,
    dims: usize,
    normalizer_mins: Vec<f64>,
    normalizer_ranges: Vec<f64>,
    /// `(shape, data)` per parameter, in registration order.
    params: Vec<(Vec<usize>, Vec<f64>)>,
    train_scores: Vec<Vec<f64>>,
}

/// Current write version.
const FORMAT_VERSION: u32 = 2;
/// Oldest version [`TrainedTranad::load`] still accepts.
const MIN_FORMAT_VERSION: u32 = 1;

/// Errors from saving/loading a model.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON encode/decode failure.
    Json(tranad_json::JsonError),
    /// The file's structure does not match the configuration.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Json(e) => write!(f, "json error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt model file: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<tranad_json::JsonError> for PersistError {
    fn from(e: tranad_json::JsonError) -> Self {
        PersistError::Json(e)
    }
}

tranad_json::impl_json_struct!(SavedModel {
    format_version,
    config,
    dims,
    normalizer_mins,
    normalizer_ranges,
    params,
    train_scores,
});

/// Atomically replaces `path` with `contents`: writes a uniquely named
/// temp file in the same directory, fsyncs it, then renames it over the
/// destination (and best-effort fsyncs the directory so the rename itself
/// is durable). A crash at any point leaves either the old file or the new
/// one — never a torn mix. Used for model checkpoints here and for serving
/// checkpoints in `tranad-serve`.
pub fn atomic_write(path: impl AsRef<Path>, contents: &str) -> Result<(), PersistError> {
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| PersistError::Corrupt(format!("{} has no file name", path.display())))?;
    // Unique per process *and* per call, so concurrent writers (or a
    // leftover temp file from a crashed run) never collide.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        ".{}.{}.{}.tmp",
        name.to_string_lossy(),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        // Never leave temp droppings next to the checkpoint on failure.
        std::fs::remove_file(&tmp).ok();
    }
    result?;
    if let Ok(d) = std::fs::File::open(dir) {
        d.sync_all().ok();
    }
    Ok(())
}

impl TrainedTranad {
    /// Saves the detector to a JSON checkpoint, written atomically (temp
    /// file + fsync + rename): a crash mid-save leaves any previous
    /// checkpoint at `path` intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let (mins, ranges) = self.normalizer.to_parts();
        let params: Vec<(Vec<usize>, Vec<f64>)> = self
            .store
            .snapshot()
            .into_iter()
            .map(|t| (t.shape().dims().to_vec(), t.data().to_vec()))
            .collect();
        let saved = SavedModel {
            format_version: FORMAT_VERSION,
            config: *self.model.config(),
            dims: self.model.dims(),
            normalizer_mins: mins,
            normalizer_ranges: ranges,
            params,
            train_scores: self.train_scores.clone(),
        };
        atomic_write(path, &saved.to_json().to_string())
    }

    /// Loads a detector from a JSON file written by [`TrainedTranad::save`]
    /// (format v1 or v2).
    pub fn load(path: impl AsRef<Path>) -> Result<TrainedTranad, PersistError> {
        let text = std::fs::read_to_string(path)?;
        let saved = SavedModel::from_json(&tranad_json::parse(&text)?)?;
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&saved.format_version) {
            return Err(PersistError::Corrupt(format!(
                "format version {} (supported: {MIN_FORMAT_VERSION}..={FORMAT_VERSION})",
                saved.format_version
            )));
        }
        validate(&saved)?;
        // Rebuild the network: registration order is deterministic, so the
        // freshly initialized store has the same layout as the saved one.
        let mut store = ParamStore::new();
        let mut init = Init::with_seed(saved.config.seed);
        let model = TranadModel::new(&mut store, &mut init, saved.dims, saved.config);
        if store.len() != saved.params.len() {
            return Err(PersistError::Corrupt(format!(
                "{} parameters in file, model has {}",
                saved.params.len(),
                store.len()
            )));
        }
        let tensors: Result<Vec<Tensor>, PersistError> = saved
            .params
            .into_iter()
            .enumerate()
            .map(|(i, (shape, data))| {
                if shape.len() > MAX_RANK {
                    return Err(PersistError::Corrupt(format!(
                        "parameter {i}: rank {} exceeds {MAX_RANK}",
                        shape.len()
                    )));
                }
                let expected = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
                if expected != Some(data.len()) {
                    return Err(PersistError::Corrupt(format!(
                        "parameter {i}: shape {shape:?} vs {} values",
                        data.len()
                    )));
                }
                Ok(Tensor::from_vec(data, shape))
            })
            .collect();
        let tensors = tensors?;
        for (id, t) in store.ids().zip(&tensors).map(|(id, t)| (id, t.clone())).collect::<Vec<_>>() {
            if store.get(id).shape() != t.shape() {
                return Err(PersistError::Corrupt(format!(
                    "parameter {} shape mismatch",
                    id.index()
                )));
            }
            store.set(id, t);
        }
        Ok(TrainedTranad {
            store,
            model,
            normalizer: Normalizer::from_parts(saved.normalizer_mins, saved.normalizer_ranges),
            train_scores: saved.train_scores,
        })
    }
}

/// Checks what building the model and normalizer would otherwise assert:
/// a hostile checkpoint is an error, never a panic.
fn validate(saved: &SavedModel) -> Result<(), PersistError> {
    saved.config.validate().map_err(|e| PersistError::Corrupt(e.to_string()))?;
    let (mins, ranges) = (saved.normalizer_mins.len(), saved.normalizer_ranges.len());
    if mins != saved.dims || ranges != saved.dims {
        return Err(PersistError::Corrupt(format!(
            "normalizer has {mins} mins and {ranges} ranges for {} dims",
            saved.dims
        )));
    }
    if let Some(r) = saved.normalizer_ranges.iter().find(|r| !(r.is_finite() && **r > 0.0)) {
        return Err(PersistError::Corrupt(format!(
            "normalizer range {r} is not finite and positive"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::train;
    use tranad_data::{SignalRng, TimeSeries};
    use tranad_json::Json;

    fn toy() -> (TimeSeries, TranadConfig) {
        let mut rng = SignalRng::new(17);
        let cols: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..300).map(|t| (t as f64 / 8.0).sin() + 0.05 * rng.normal()).collect())
            .collect();
        let config = TranadConfig {
            epochs: 2,
            window: 6,
            context: 12,
            ff_hidden: 16,
            dropout: 0.0,
            ..TranadConfig::default()
        };
        (TimeSeries::from_columns(&cols), config)
    }

    #[test]
    fn save_load_roundtrip_scores_identically() {
        let (series, config) = toy();
        let (trained, _) = train(&series, config).unwrap();
        let dir = std::env::temp_dir().join("tranad_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        trained.save(&path).unwrap();
        let loaded = TrainedTranad::load(&path).unwrap();
        assert_eq!(trained.score_series(&series), loaded.score_series(&series));
        assert_eq!(trained.train_scores, loaded.train_scores);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_wrong_version() {
        let (series, config) = toy();
        let (trained, _) = train(&series, config).unwrap();
        let dir = std::env::temp_dir().join("tranad_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_version.json");
        trained.save(&path).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("\"format_version\":2", "\"format_version\":99");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            TrainedTranad::load(&path),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_still_load() {
        // A v1 file is structurally a v2 file with format_version 1 —
        // exactly what the pre-v2 writer produced.
        let (series, config) = toy();
        let (trained, _) = train(&series, config).unwrap();
        let dir = std::env::temp_dir().join("tranad_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1_model.json");
        trained.save(&path).unwrap();
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"format_version\":2", "\"format_version\":1");
        std::fs::write(&path, text).unwrap();
        let loaded = TrainedTranad::load(&path).unwrap();
        assert_eq!(trained.score_series(&series), loaded.score_series(&series));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_checkpoint_is_an_error_never_a_panic_or_partial_load() {
        let (series, config) = toy();
        let (trained, _) = train(&series, config).unwrap();
        let dir = std::env::temp_dir().join("tranad_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.json");
        trained.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Simulate a torn write at every interesting cut point: mid-token,
        // mid-array and just shy of the closing brace. Each truncation must
        // surface as a typed error, never a panic or a silently partial
        // model.
        for cut in [1, text.len() / 3, text.len() / 2, text.len() - 1] {
            std::fs::write(&path, &text[..cut]).unwrap();
            let err = TrainedTranad::load(&path).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, PersistError::Json(_) | PersistError::Corrupt(_)),
                "cut at {cut}: expected Json/Corrupt error, got {err:?}",
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_replaces_existing_checkpoint_atomically() {
        let (series, config) = toy();
        let (trained, _) = train(&series, config).unwrap();
        let dir = std::env::temp_dir().join("tranad_persist_test_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        // Pre-existing garbage at the destination must be replaced whole.
        std::fs::write(&path, "{not json").unwrap();
        trained.save(&path).unwrap();
        TrainedTranad::load(&path).unwrap();
        // No temp droppings left behind in the checkpoint directory.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp files left behind: {stray:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_files_with_a_streaming_key_load_and_score_as_without_it() {
        // Older v2 writers could append the stream state of one detector
        // under a `streaming` key. Loading skips the key, well-formed or
        // not, and the model scores bitwise as the same file without it.
        use crate::online::OnlineState;
        use tranad_evt::PotConfig;
        let (series, config) = toy();
        let (trained, _) = train(&series, config).unwrap();
        let mut state = OnlineState::new(&trained, PotConfig::default()).unwrap();
        for t in 0..25 {
            state.push(&trained, &[(t as f64 / 8.0).sin(), 0.1]).unwrap();
        }
        let dir = std::env::temp_dir().join("tranad_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streaming_key.json");
        trained.save(&path).unwrap();
        let plain = std::fs::read_to_string(&path).unwrap();
        let expected = TrainedTranad::load(&path).unwrap();
        let expected_scores = expected.score_series(&series);
        for streaming in [state.snapshot().to_json(), Json::Num(7.0)] {
            let mut json = tranad_json::parse(&plain).unwrap();
            let Json::Obj(pairs) = &mut json else { panic!("checkpoint is an object") };
            pairs.push(("streaming".to_string(), streaming));
            std::fs::write(&path, json.to_string()).unwrap();
            let loaded = TrainedTranad::load(&path).unwrap();
            assert_eq!(loaded.train_scores, expected.train_scores);
            let scores = loaded.score_series(&series);
            assert_eq!(scores.len(), expected_scores.len());
            for (t, (a, b)) in scores.iter().zip(&expected_scores).enumerate() {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "t={t}: scores diverged");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Saves the toy model, lets `edit` rewrite its JSON object, and loads
    /// the result.
    fn load_edited(
        name: &str,
        edit: impl FnOnce(&mut Vec<(String, Json)>),
    ) -> Result<TrainedTranad, PersistError> {
        let (series, config) = toy();
        let (trained, _) = train(&series, config).unwrap();
        let dir = std::env::temp_dir().join("tranad_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        trained.save(&path).unwrap();
        let mut json = tranad_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Json::Obj(pairs) = &mut json else { panic!("checkpoint is an object") };
        edit(pairs);
        std::fs::write(&path, json.to_string()).unwrap();
        let loaded = TrainedTranad::load(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    fn field<'a>(pairs: &'a mut [(String, Json)], key: &str) -> &'a mut Json {
        &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    fn assert_corrupt(loaded: Result<TrainedTranad, PersistError>, what: &str) {
        assert!(
            matches!(loaded, Err(PersistError::Corrupt(_))),
            "{what}: expected a Corrupt error, got {:?}",
            loaded.map(|_| ())
        );
    }

    #[test]
    fn load_rejects_invalid_config() {
        let loaded = load_edited("bad_config.json", |pairs| {
            let Json::Obj(config) = field(pairs, "config") else { panic!("config object") };
            *field(config, "window") = Json::Num(0.0);
        });
        assert_corrupt(loaded, "window 0");
    }

    #[test]
    fn load_rejects_normalizer_of_unequal_lengths() {
        let loaded = load_edited("short_ranges.json", |pairs| {
            let Json::Arr(ranges) = field(pairs, "normalizer_ranges") else { panic!("array") };
            ranges.pop();
        });
        assert_corrupt(loaded, "one range short");
    }

    #[test]
    fn load_rejects_normalizer_wider_than_dims() {
        let loaded = load_edited("wide_normalizer.json", |pairs| {
            for key in ["normalizer_mins", "normalizer_ranges"] {
                let Json::Arr(v) = field(pairs, key) else { panic!("array") };
                v.push(Json::Num(1.0));
            }
        });
        assert_corrupt(loaded, "normalizer one wider than dims");
    }

    #[test]
    fn load_rejects_zero_range() {
        let loaded = load_edited("zero_range.json", |pairs| {
            let Json::Arr(ranges) = field(pairs, "normalizer_ranges") else { panic!("array") };
            ranges[0] = Json::Num(0.0);
        });
        assert_corrupt(loaded, "zero range");
    }

    /// Replaces parameter 0 with `(shape, data)`.
    fn replace_param0(pairs: &mut [(String, Json)], shape: &[f64], data: &[f64]) {
        let Json::Arr(params) = field(pairs, "params") else { panic!("array") };
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        params[0] = Json::Arr(vec![nums(shape), nums(data)]);
    }

    #[test]
    fn load_rejects_parameter_rank_above_max() {
        let loaded =
            load_edited("rank5.json", |pairs| replace_param0(pairs, &[1.0; 5], &[0.5]));
        assert_corrupt(loaded, "rank-5 parameter");
    }

    #[test]
    fn load_rejects_parameter_shape_overflowing_usize() {
        let big = 4_294_967_296.0; // 2^32: two of them overflow a 64-bit count
        let loaded =
            load_edited("overflow.json", |pairs| replace_param0(pairs, &[big, big], &[]));
        assert_corrupt(loaded, "shape product overflow");
    }

    #[test]
    fn load_rejects_missing_file() {
        assert!(matches!(
            TrainedTranad::load("/nonexistent/model.json"),
            Err(PersistError::Io(_))
        ));
    }
}
