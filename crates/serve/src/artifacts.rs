//! Content-addressed artifact store backing `GET /v1/artifacts/{hash}`.
//!
//! Artifacts are addressed by the FNV-1a 64-bit hash of their bytes —
//! the same `fnv1a:<16 hex>` scheme `impatience-exp` stamps into spec
//! manifests — and written once via [`AtomicFile`], so a byte-identical
//! document always lands at the same address and a crashed write never
//! leaves a partial artifact. Campaign result documents are the main
//! tenant: because they are deterministic (wall-clock telemetry is
//! excluded), a job that resumes after a kill produces the *same*
//! artifact hash as an uninterrupted run — which is exactly how
//! `tests/serve_api.rs` checks bit-identical recovery.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use impatience_core::hash::fnv1a64;
use impatience_obs::AtomicFile;

use crate::error::ApiError;

/// FNV-1a 64-bit, formatted like `impatience-exp` spec hashes.
pub fn fnv1a_hash(bytes: &[u8]) -> String {
    format!("fnv1a:{:016x}", fnv1a64(bytes))
}

/// A directory of write-once, hash-addressed artifacts.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Open (creating if needed) the store under `dir`.
    pub fn open(dir: &Path) -> Result<Self, ApiError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ApiError::Io(format!("cannot create artifact dir {dir:?}: {e}")))?;
        Ok(ArtifactStore {
            dir: dir.to_path_buf(),
        })
    }

    /// `fnv1a:<hex>` (or bare `<hex>`) → on-disk path.
    fn path_for(&self, hash: &str) -> Option<PathBuf> {
        let hex = hash.strip_prefix("fnv1a:").unwrap_or(hash);
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some(self.dir.join(format!("{}.json", hex.to_ascii_lowercase())))
    }

    /// Store `bytes`, returning their address. Idempotent: re-storing
    /// identical bytes is a no-op returning the same hash.
    pub fn put(&self, bytes: &[u8]) -> Result<String, ApiError> {
        let hash = fnv1a_hash(bytes);
        let path = match self.path_for(&hash) {
            Some(p) => p,
            None => return Err(ApiError::Io(format!("unrepresentable hash {hash}"))),
        };
        if path.exists() {
            return Ok(hash);
        }
        let mut file = AtomicFile::create(&path)
            .map_err(|e| ApiError::Io(format!("cannot create artifact: {e}")))?;
        file.write_all(bytes)
            .and_then(|()| file.commit())
            .map_err(|e| ApiError::Io(format!("cannot write artifact: {e}")))?;
        Ok(hash)
    }

    /// Fetch the artifact at `hash`.
    pub fn get(&self, hash: &str) -> Result<Vec<u8>, ApiError> {
        let path = self
            .path_for(hash)
            .ok_or_else(|| ApiError::BadRequest(format!("malformed artifact hash `{hash}`")))?;
        if !path.exists() {
            return Err(ApiError::NotFound(format!("no artifact {hash}")));
        }
        std::fs::read(&path).map_err(|e| ApiError::Io(format!("cannot read artifact: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_matches_exp_spec_idiom() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(fnv1a_hash(b""), "fnv1a:cbf29ce484222325");
        assert_ne!(fnv1a_hash(b"a"), fnv1a_hash(b"b"));
    }

    #[test]
    fn put_get_roundtrip_and_idempotence() {
        let dir = std::env::temp_dir().join(format!("impatience-artifacts-{}", std::process::id()));
        let store = ArtifactStore::open(&dir).unwrap();
        let h1 = store.put(b"{\"x\":1}").unwrap();
        let h2 = store.put(b"{\"x\":1}").unwrap();
        assert_eq!(h1, h2);
        assert_eq!(store.get(&h1).unwrap(), b"{\"x\":1}");
        // Bare-hex addressing works too.
        let bare = h1.strip_prefix("fnv1a:").unwrap();
        assert_eq!(store.get(bare).unwrap(), b"{\"x\":1}");
        // Unknown and malformed hashes map to the right errors.
        assert!(matches!(
            store.get("fnv1a:0000000000000000"),
            Err(ApiError::NotFound(_))
        ));
        assert!(matches!(store.get("nope"), Err(ApiError::BadRequest(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
