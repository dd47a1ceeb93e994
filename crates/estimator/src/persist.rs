//! Persisting profiled estimators.
//!
//! The paper's offline profiling is a one-time effort per LLM–machine
//! pair (§3.3.2: hours for the solo-run predictor, ~12 hours for the
//! contention grid on hardware). Production deployments cache the
//! result; this module saves/loads the fitted predictor and guard as a
//! single JSON artifact.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use crate::guard::{ContentionGuard, GuardCell};
use crate::solo::SoloPredictor;

/// On-disk form of a profiled estimator pair.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct Artifact {
    /// Format version for forward compatibility.
    version: u32,
    predictor: SoloPredictor,
    guard_cells: Vec<GuardCell>,
}

const VERSION: u32 = 1;

/// Errors from estimator persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file was not a valid estimator artifact.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "estimator artifact i/o failed: {e}"),
            PersistError::Format(m) => write!(f, "invalid estimator artifact: {m}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

/// Saves a profiled predictor + guard as a JSON artifact.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failures.
pub fn save_estimators(
    path: impl AsRef<Path>,
    predictor: &SoloPredictor,
    guard: &ContentionGuard,
) -> Result<(), PersistError> {
    let artifact = Artifact {
        version: VERSION,
        predictor: predictor.clone(),
        guard_cells: guard.export_cells(),
    };
    let w = BufWriter::new(File::create(path)?);
    serde_json::to_writer(w, &artifact).map_err(|e| PersistError::Format(e.to_string()))
}

/// Loads an artifact written by [`save_estimators`].
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failures and
/// [`PersistError::Format`] on malformed or version-mismatched files.
pub fn load_estimators(
    path: impl AsRef<Path>,
) -> Result<(SoloPredictor, ContentionGuard), PersistError> {
    let r = BufReader::new(File::open(path)?);
    let artifact: Artifact =
        serde_json::from_reader(r).map_err(|e| PersistError::Format(e.to_string()))?;
    if artifact.version != VERSION {
        return Err(PersistError::Format(format!(
            "unsupported artifact version {}",
            artifact.version
        )));
    }
    Ok((
        artifact.predictor,
        ContentionGuard::from_cells(artifact.guard_cells),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardQuery;
    use gpusim::ClusterSpec;
    use modelspec::{ModelSpec, Parallelism, SeqState};

    #[test]
    fn roundtrip_preserves_predictions() {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let par = Parallelism::tp(8, cluster.nvlink_gbs);
        let pred = SoloPredictor::profile(&model, &cluster, &par, &[16, 92]);
        let guard = ContentionGuard::profile(&model, &cluster, &par, &[16]);

        let dir = std::env::temp_dir().join("muxwise-estimator-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("estimators.json");
        save_estimators(&path, &pred, &guard).expect("save");
        let (p2, g2) = load_estimators(&path).expect("load");

        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(1.0);
        let batch = [SeqState::new(4096, 2048)];
        assert!(close(
            pred.prefill_latency(92, &batch),
            p2.prefill_latency(92, &batch)
        ));
        assert!(close(
            pred.decode_latency(16, &[1024; 32]),
            p2.decode_latency(16, &[1024; 32])
        ));
        let q = GuardQuery {
            prefill_new: 4096,
            prefill_reused: 4096,
            decode_batch: 32,
            decode_context: 4096,
            decode_sms: 16,
        };
        assert!(close(guard.factor(&q), g2.factor(&q)));
        assert!(close(guard.max_slowdown(), g2.max_slowdown()));
        assert_eq!(guard.num_cells(), g2.num_cells());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_refined_guard_loads_back_with_every_factor() {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let par = Parallelism::tp(8, cluster.nvlink_gbs);
        let pred = SoloPredictor::profile(&model, &cluster, &par, &[16, 92]);
        let mut guard = ContentionGuard::profile(&model, &cluster, &par, &[16]);
        let cell = GuardQuery {
            prefill_new: 4096,
            prefill_reused: 4096,
            decode_batch: 32,
            decode_context: 4096,
            decode_sms: 16,
        };
        guard.observe(&cell, guard.factor(&cell) + 0.25);
        guard.observe(
            &GuardQuery {
                decode_sms: 48,
                ..cell
            },
            1.5,
        );

        let dir = std::env::temp_dir().join("muxwise-estimator-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("refined.json");
        save_estimators(&path, &pred, &guard).expect("save");
        let (_, loaded) = load_estimators(&path).expect("load");
        std::fs::remove_file(path).ok();

        assert_eq!(loaded, guard);
        assert_eq!(loaded.max_slowdown(), guard.max_slowdown());
        // One query in every bucket of every dimension, on the profiled
        // partition and the refined one.
        const TOKENS: [u64; 5] = [0, 2_048, 8_192, 32_768, 131_072];
        for (&pn, &pr, &dc) in TOKENS
            .iter()
            .flat_map(|a| TOKENS.iter().map(move |b| (a, b)))
            .flat_map(|(a, b)| TOKENS.iter().map(move |c| (a, b, c)))
        {
            for bs in [1, 2, 8, 32, 128, 256] {
                for sms in [16, 48] {
                    let q = GuardQuery {
                        prefill_new: pn,
                        prefill_reused: pr,
                        decode_batch: bs,
                        decode_context: dc,
                        decode_sms: sms,
                    };
                    assert_eq!(loaded.factor(&q).to_bits(), guard.factor(&q).to_bits());
                }
            }
        }
    }

    #[test]
    fn bad_file_is_format_error() {
        let dir = std::env::temp_dir().join("muxwise-estimator-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json").expect("write");
        match load_estimators(&path) {
            Err(PersistError::Format(_)) => {}
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        match load_estimators("/definitely/not/here.json") {
            Err(PersistError::Io(_)) => {}
            other => panic!("expected io error, got {other:?}"),
        }
    }
}
