//! Model checkpointing.
//!
//! The platform persists the meta-learned initialization between the
//! meta-training phase and (possibly much later) target deployments, and
//! ships it across processes. A [`Checkpoint`] is a small, versioned,
//! self-describing JSON document: algorithm name, parameter vector and
//! free-form metadata.
//!
//! # Examples
//!
//! ```
//! use fml_core::checkpoint::Checkpoint;
//!
//! let path = std::env::temp_dir().join("fml_checkpoint_doctest.json");
//! let ck = Checkpoint::new("FedML", vec![0.1, -0.2])
//!     .with_meta("dataset", "Synthetic(0.5,0.5)");
//! ck.save_atomic(&path)?;
//! let back = Checkpoint::load(&path)?;
//! assert_eq!(back, ck);
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), fml_core::checkpoint::CheckpointError>(())
//! ```

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Current checkpoint format version.
const FORMAT_VERSION: u32 = 1;

/// Errors from reading or writing checkpoints.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed JSON.
    Parse(serde_json::Error),
    /// A format version this build does not understand.
    UnsupportedVersion {
        /// Version found in the document.
        found: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint parse error: {e}"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (supported: {FORMAT_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Parse(e) => Some(e),
            CheckpointError::UnsupportedVersion { .. } => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Parse(e)
    }
}

/// Version assumed for documents written before the `version` key
/// existed: the field layout of those documents is exactly format 1.
fn legacy_version() -> u32 {
    1
}

/// A persisted model initialization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version (for forward compatibility). Documents written
    /// before this key existed decode as version 1 — their layout is
    /// identical — so old checkpoints keep loading.
    #[serde(default = "legacy_version")]
    pub version: u32,
    /// Name of the algorithm that produced the parameters.
    pub algorithm: String,
    /// Flat parameter vector `θ`.
    pub params: Vec<f64>,
    /// Free-form metadata (dataset name, hyper-parameters, …).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub meta: BTreeMap<String, String>,
}

impl Checkpoint {
    /// Creates a checkpoint for a parameter vector.
    pub fn new(algorithm: impl Into<String>, params: Vec<f64>) -> Self {
        Checkpoint {
            version: FORMAT_VERSION,
            algorithm: algorithm.into(),
            params,
            meta: BTreeMap::new(),
        }
    }

    /// Adds a metadata entry.
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.meta.insert(key.into(), value.into());
        self
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Parse`] on serialization failure (only
    /// possible for non-finite floats under some serializers; `serde_json`
    /// encodes them as `null`, which round-trips as an error — checkpoints
    /// should contain finite parameters).
    fn to_json(&self) -> Result<String, CheckpointError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Parse`] for malformed documents and
    /// [`CheckpointError::UnsupportedVersion`] for newer formats.
    fn from_json(json: &str) -> Result<Self, CheckpointError> {
        let ck: Checkpoint = serde_json::from_str(json)?;
        if ck.version > FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: ck.version });
        }
        Ok(ck)
    }

    /// Writes to a file atomically: the JSON goes to a `.tmp` sibling
    /// first and is renamed into place, so a reader (or a platform
    /// killed mid-write) never observes a torn document.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failures.
    pub fn save_atomic(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_json()?)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads from a file.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failures,
    /// [`CheckpointError::Parse`] for malformed documents and
    /// [`CheckpointError::UnsupportedVersion`] for newer formats.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_json() {
        let ck = Checkpoint::new("FedML", vec![1.0, 2.0, 3.0]).with_meta("k", "5");
        let back = Checkpoint::from_json(&ck.to_json().unwrap()).unwrap();
        assert_eq!(ck, back);
        // A document from a build whose checkpoint carried Meta-SGD
        // rates still loads: unknown keys are skipped.
        let json = r#"{"version": 1, "algorithm": "MetaSGD", "params": [7.0], "rates": [0.5]}"#;
        assert_eq!(
            Checkpoint::from_json(json).unwrap(),
            Checkpoint::new("MetaSGD", vec![7.0])
        );
    }

    #[test]
    fn rejects_future_versions() {
        let json = r#"{"version": 99, "algorithm": "X", "params": []}"#;
        let err = Checkpoint::from_json(json).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::UnsupportedVersion { found: 99 }
        ));
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn version_less_legacy_documents_decode_as_v1() {
        // Written by a build that predates the version key; layout is
        // otherwise identical, so it must load tolerantly.
        let json = r#"{"algorithm": "FedML", "params": [1.0, 2.0]}"#;
        let ck = Checkpoint::from_json(json).unwrap();
        assert_eq!(ck.version, 1);
        assert_eq!(ck.algorithm, "FedML");
        assert_eq!(ck.params, vec![1.0, 2.0]);
        // And re-saving stamps the current version explicitly.
        let rewritten = ck.to_json().unwrap();
        assert!(rewritten.contains("\"version\""));
    }

    #[test]
    fn save_atomic_replaces_without_leaving_tmp() {
        let dir = std::env::temp_dir().join("fml_checkpoint_atomic_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("latest.json");
        Checkpoint::new("FedML", vec![1.0])
            .save_atomic(&path)
            .unwrap();
        Checkpoint::new("FedML", vec![2.0])
            .save_atomic(&path)
            .unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.params, vec![2.0]);
        assert!(!dir.join("latest.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(matches!(
            Checkpoint::from_json("{not json"),
            Err(CheckpointError::Parse(_))
        ));
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join("fml_checkpoint_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("ck.json");
        let ck = Checkpoint::new("MetaSGD", vec![7.0]).with_meta("round", "3");
        ck.save_atomic(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(ck, back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Checkpoint::load("/nonexistent/fml/ck.json").unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn optional_fields_omitted_in_json() {
        let json = Checkpoint::new("FedML", vec![]).to_json().unwrap();
        assert!(!json.contains("meta"));
    }
}
