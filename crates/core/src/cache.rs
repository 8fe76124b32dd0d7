//! Persistent measurement cache for incremental recomputation.
//!
//! A production configurator watches its users' mobility drift and must not
//! re-measure the whole fleet when only a few users changed. This module is
//! the on-disk half of that story: it persists the per-user measurements of a
//! cached sweep ([`crate::ExperimentRunner::run_cached`]) keyed by
//!
//! * the sweep **signature** — system
//!   ([`crate::SystemDefinition::cache_key`], which pins the mechanism name,
//!   the [`geopriv_lppm::ConfigSpace::cache_token`] and every metric's
//!   `cache_key`), enumeration mode, master seed, repetition count and the
//!   ordered [`geopriv_lppm::ConfigPoint::cache_token`]s — one file per
//!   signature; and
//! * each user's **sub-fingerprint**
//!   ([`geopriv_metrics::DatasetFingerprint::per_user`]) — one entry per
//!   user inside the file, invalidated individually when her records change.
//!
//! The encoding is hand-rolled little-endian binary (the vendored `serde` is
//! a marker shim): every `f64` travels as its raw `to_bits()` word, so values
//! round-trip **bit-exactly** — the property the warm≡cold identity contract
//! rests on. A FNV-1a checksum over the entire payload guards the file;
//! any mismatch (corruption, truncation, a foreign or older format) makes the
//! cache report itself empty with a warning, and the runner falls back to the
//! cold path. A cache can therefore *never* change a result — only the time
//! it takes to produce it. I/O failures while storing are likewise warnings,
//! not errors.
//!
//! The format version in the magic covers the *meaning* of the stored values
//! as well as their layout. The signature names the mechanism and its
//! parameters but says nothing about what the mechanism outputs, so a change
//! that re-baselines a mechanism's bits under an unchanged signature must
//! bump the version: files written before it then take the older-format path
//! above (one warning, a cold run, the file overwritten) instead of serving
//! the old outputs. Version 2 marks GEO-I's Gamma(2) sampler.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! magic     8 bytes  b"GPCACHE2" (format version 2)
//! checksum  u64      FNV-1a over every byte after this field
//! sig_len   u64      length of the UTF-8 signature string
//! signature …        collision guard: must equal the requested signature
//! points    u64      design-point count
//! reps      u64      repetition count
//! metrics   u64      metric count
//! users     u64      entry count
//! per user:
//!   user id      u64
//!   fingerprint  u64
//!   per (point, repetition, metric), point-major:
//!     value      u64  f64 bits
//!     weight     u64  evaluated-trace count behind the value
//!     tag        u8   1 if a per-user breakdown value follows
//!     breakdown  u64  f64 bits (only when tag == 1)
//! ```

use geopriv_mobility::UserId;
use std::path::PathBuf;

/// One metric evaluation of one user at one `(point, repetition)` sample, as
/// the cache stores it: the aggregate over the user's own traces, the
/// evaluated-trace weight, and her breakdown value when the metric could
/// evaluate her.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CachedSample {
    pub(crate) value: f64,
    pub(crate) weight: u64,
    pub(crate) breakdown: Option<f64>,
}

/// The cached measurements of one user across a whole sweep design.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CachedUserEntry {
    pub(crate) user: UserId,
    pub(crate) fingerprint: u64,
    points: usize,
    reps: usize,
    metrics: usize,
    /// Flat `[point][repetition][metric]` storage, point-major.
    samples: Vec<CachedSample>,
}

impl CachedUserEntry {
    /// Builds an entry from per-point, per-repetition, per-metric samples.
    /// Ragged input is rejected with `None` (an engine invariant violation
    /// the caller surfaces as a typed internal error).
    pub(crate) fn new(
        user: UserId,
        fingerprint: u64,
        points: usize,
        reps: usize,
        metrics: usize,
        per_point: Vec<Vec<Vec<CachedSample>>>,
    ) -> Option<Self> {
        if per_point.len() != points
            || per_point.iter().any(|p| p.len() != reps || p.iter().any(|r| r.len() != metrics))
        {
            return None;
        }
        let samples = per_point.into_iter().flatten().flatten().collect();
        Some(Self { user, fingerprint, points, reps, metrics, samples })
    }

    /// The metric samples (suite order) at one `(point, repetition)`.
    pub(crate) fn samples_at(&self, point: usize, rep: usize) -> Option<&[CachedSample]> {
        if point >= self.points || rep >= self.reps {
            return None;
        }
        let start = (point * self.reps + rep) * self.metrics;
        self.samples.get(start..start + self.metrics)
    }
}

/// Summary of one cached sweep execution: how many users were served from the
/// cache, how many were re-measured, and any cache warnings (a corrupt file,
/// a failed store) — warnings never change the result, only the cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CacheStats {
    /// Users in the measured dataset.
    pub users: usize,
    /// Users whose measurements were decoded from the cache bit-exactly.
    pub hits: usize,
    /// Users re-measured because they were new, changed, or the cache was
    /// unusable.
    pub misses: usize,
    /// Human-readable cache warnings, in occurrence order. A corrupted,
    /// truncated or version-mismatched cache file reports exactly one
    /// warning here and behaves as if it were absent.
    pub warnings: Vec<String>,
}

impl CacheStats {
    /// `true` when every user was served from the cache.
    pub fn fully_warm(&self) -> bool {
        self.misses == 0 && self.users > 0
    }
}

/// The on-disk measurement store: a directory holding one binary file per
/// sweep signature. See the module docs for the key composition and the
/// integrity contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementCache {
    dir: PathBuf,
}

const MAGIC: &[u8; 8] = b"GPCACHE2";

impl MeasurementCache {
    /// Opens (without touching the filesystem) the cache rooted at `dir`.
    /// The directory is created lazily on the first store.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The file a signature's measurements live in: `sweep-<fnv64 hex>.bin`.
    /// The full signature is embedded in the file and re-checked on load, so
    /// a filename hash collision degrades to a cache miss, never a wrong hit.
    pub fn path_for(&self, signature: &str) -> PathBuf {
        self.dir.join(format!("sweep-{:016x}.bin", fnv1a(signature.as_bytes())))
    }

    /// Loads every cached user entry under `signature`, with any warnings.
    ///
    /// A missing file is a plain cold start (no warning). Anything
    /// undecodable — bad magic, truncation, checksum mismatch, a different
    /// signature, dimensions disagreeing with `points`/`reps`/`metrics` —
    /// returns no entries plus one warning describing why.
    pub(crate) fn load(
        &self,
        signature: &str,
        points: usize,
        reps: usize,
        metrics: usize,
    ) -> (Vec<CachedUserEntry>, Vec<String>) {
        let path = self.path_for(signature);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return (Vec::new(), Vec::new()),
            Err(e) => {
                return (
                    Vec::new(),
                    vec![format!(
                        "cache file {} is unreadable ({e}); falling back to the cold path",
                        path.display()
                    )],
                )
            }
        };
        match decode(&bytes, signature, points, reps, metrics) {
            Ok(entries) => (entries, Vec::new()),
            Err(reason) => (
                Vec::new(),
                vec![format!(
                    "cache file {} rejected ({reason}); falling back to the cold path",
                    path.display()
                )],
            ),
        }
    }

    /// Atomically stores `entries` under `signature` (temp file + rename),
    /// replacing any previous contents. Returns warnings instead of failing:
    /// a cache that cannot be written costs time, never correctness.
    pub(crate) fn store(&self, signature: &str, entries: &[CachedUserEntry]) -> Vec<String> {
        let path = self.path_for(signature);
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            return vec![format!(
                "cache directory {} could not be created ({e}); measurements were not persisted",
                self.dir.display()
            )];
        }
        let bytes = encode(signature, entries);
        let tmp = path.with_extension("bin.tmp");
        if let Err(e) = std::fs::write(&tmp, &bytes) {
            return vec![format!(
                "cache file {} could not be written ({e}); measurements were not persisted",
                tmp.display()
            )];
        }
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return vec![format!(
                "cache file {} could not be replaced ({e}); measurements were not persisted",
                path.display()
            )];
        }
        Vec::new()
    }
}

/// FNV-1a over a byte string — the fixed, platform-independent hash used for
/// both the filename and the checksum (never the standard library's
/// randomized hasher).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn encode(signature: &str, entries: &[CachedUserEntry]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, signature.len() as u64);
    payload.extend_from_slice(signature.as_bytes());
    let (points, reps, metrics) =
        entries.first().map_or((0, 0, 0), |e| (e.points as u64, e.reps as u64, e.metrics as u64));
    put_u64(&mut payload, points);
    put_u64(&mut payload, reps);
    put_u64(&mut payload, metrics);
    put_u64(&mut payload, entries.len() as u64);
    for entry in entries {
        put_u64(&mut payload, entry.user.value());
        put_u64(&mut payload, entry.fingerprint);
        for sample in &entry.samples {
            put_u64(&mut payload, sample.value.to_bits());
            put_u64(&mut payload, sample.weight);
            match sample.breakdown {
                Some(v) => {
                    payload.push(1);
                    put_u64(&mut payload, v.to_bits());
                }
                None => payload.push(0),
            }
        }
    }
    let mut bytes = Vec::with_capacity(MAGIC.len() + 8 + payload.len());
    bytes.extend_from_slice(MAGIC);
    put_u64(&mut bytes, fnv1a(&payload));
    bytes.extend_from_slice(&payload);
    bytes
}

fn decode(
    bytes: &[u8],
    signature: &str,
    points: usize,
    reps: usize,
    metrics: usize,
) -> Result<Vec<CachedUserEntry>, String> {
    let mut cursor = Cursor { bytes, at: 0 };
    let magic = cursor.take(MAGIC.len()).ok_or("file shorter than its magic")?;
    if magic != MAGIC {
        return Err("unrecognized magic — a foreign file or an older cache format".to_string());
    }
    let checksum = cursor.u64().ok_or("file truncated before its checksum")?;
    let payload = cursor.rest();
    if fnv1a(payload) != checksum {
        return Err("checksum mismatch — the file is corrupted".to_string());
    }
    let mut cursor = Cursor { bytes: payload, at: 0 };
    let sig_len = cursor.usize_field("signature length")?;
    let stored_sig = cursor.take(sig_len).ok_or("file truncated inside its signature")?;
    if stored_sig != signature.as_bytes() {
        return Err("signature mismatch — the file belongs to a different sweep".to_string());
    }
    let stored_points = cursor.usize_field("point count")?;
    let stored_reps = cursor.usize_field("repetition count")?;
    let stored_metrics = cursor.usize_field("metric count")?;
    let users = cursor.usize_field("user count")?;
    if stored_points != points || stored_reps != reps || stored_metrics != metrics {
        return Err(format!(
            "dimensions {stored_points}×{stored_reps}×{stored_metrics} do not match the \
             requested sweep ({points}×{reps}×{metrics})"
        ));
    }
    let samples_per_user = points
        .checked_mul(reps)
        .and_then(|n| n.checked_mul(metrics))
        .ok_or("sample dimensions overflow")?;
    let mut entries = Vec::new();
    for _ in 0..users {
        let user = UserId::new(cursor.u64().ok_or("file truncated inside a user id")?);
        let fingerprint = cursor.u64().ok_or("file truncated inside a fingerprint")?;
        let mut samples = Vec::with_capacity(samples_per_user);
        for _ in 0..samples_per_user {
            let value = f64::from_bits(cursor.u64().ok_or("file truncated inside a sample")?);
            let weight = cursor.u64().ok_or("file truncated inside a sample weight")?;
            let breakdown = match cursor.byte().ok_or("file truncated inside a breakdown tag")? {
                0 => None,
                1 => Some(f64::from_bits(
                    cursor.u64().ok_or("file truncated inside a breakdown value")?,
                )),
                tag => return Err(format!("invalid breakdown tag {tag}")),
            };
            samples.push(CachedSample { value, weight, breakdown });
        }
        entries.push(CachedUserEntry { user, fingerprint, points, reps, metrics, samples });
    }
    if !cursor.rest().is_empty() {
        return Err("trailing bytes after the last entry".to_string());
    }
    Ok(entries)
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// A bounds-checked byte cursor: every read is `Option`al, so a truncated
/// file can never index out of range.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(len)?;
        let slice = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(slice)
    }

    fn byte(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }

    fn u64(&mut self) -> Option<u64> {
        let slice = self.take(8)?;
        let mut word = [0u8; 8];
        word.copy_from_slice(slice);
        Some(u64::from_le_bytes(word))
    }

    fn usize_field(&mut self, what: &str) -> Result<usize, String> {
        let raw = self.u64().ok_or_else(|| format!("file truncated before its {what}"))?;
        usize::try_from(raw).map_err(|_| format!("{what} {raw} does not fit this platform"))
    }

    fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.at..).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(user: u64, fingerprint: u64) -> CachedUserEntry {
        let per_point = vec![
            vec![vec![
                CachedSample { value: 0.1 + user as f64, weight: 1, breakdown: Some(0.25) },
                CachedSample { value: f64::MIN_POSITIVE, weight: 0, breakdown: None },
            ]],
            vec![vec![
                CachedSample { value: -0.0, weight: 3, breakdown: Some(f64::EPSILON) },
                CachedSample { value: 1.0 / 3.0, weight: 2, breakdown: None },
            ]],
        ];
        CachedUserEntry::new(UserId::new(user), fingerprint, 2, 1, 2, per_point).unwrap()
    }

    #[test]
    fn round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("geopriv-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MeasurementCache::open(&dir);
        let entries = vec![entry(7, 0xAB), entry(9, 0xCD)];
        assert!(cache.store("sig-a", &entries).is_empty());
        let (loaded, warnings) = cache.load("sig-a", 2, 1, 2);
        assert!(warnings.is_empty());
        assert_eq!(loaded, entries);
        // -0.0 and subnormals survive bit-for-bit.
        let sample = loaded[0].samples_at(1, 0).unwrap()[0];
        assert_eq!(sample.value.to_bits(), (-0.0f64).to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_silent_cold_start() {
        let cache = MeasurementCache::open("/nonexistent-geopriv-cache");
        let (loaded, warnings) = cache.load("sig", 1, 1, 1);
        assert!(loaded.is_empty());
        assert!(warnings.is_empty());
    }

    #[test]
    fn corruption_truncation_and_mismatches_warn_and_fall_back() {
        let dir =
            std::env::temp_dir().join(format!("geopriv-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MeasurementCache::open(&dir);
        let entries = vec![entry(1, 2)];
        assert!(cache.store("sig-b", &entries).is_empty());
        let path = cache.path_for("sig-b");
        let pristine = std::fs::read(&path).unwrap();

        // Flipped payload byte → checksum mismatch.
        let mut corrupt = pristine.clone();
        *corrupt.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&path, &corrupt).unwrap();
        let (loaded, warnings) = cache.load("sig-b", 2, 1, 2);
        assert!(loaded.is_empty());
        assert!(warnings.len() == 1 && warnings[0].contains("checksum"), "{warnings:?}");

        // Truncation → checksum mismatch as well (never a panic).
        std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        assert!(cache.load("sig-b", 2, 1, 2).0.is_empty());
        for len in 0..MAGIC.len() + 16 {
            std::fs::write(&path, &pristine[..len]).unwrap();
            let (loaded, warnings) = cache.load("sig-b", 2, 1, 2);
            assert!(loaded.is_empty() && warnings.len() == 1);
        }

        // A different magic (older / foreign format) is rejected up front.
        let mut foreign = pristine.clone();
        foreign[..8].copy_from_slice(b"GPCACHE0");
        std::fs::write(&path, &foreign).unwrap();
        let (loaded, warnings) = cache.load("sig-b", 2, 1, 2);
        assert!(loaded.is_empty());
        assert!(warnings[0].contains("magic"), "{warnings:?}");

        // A signature collision inside the file is detected by content.
        std::fs::write(&path, &pristine).unwrap();
        std::fs::rename(&path, cache.path_for("sig-c")).unwrap();
        let (loaded, warnings) = cache.load("sig-c", 2, 1, 2);
        assert!(loaded.is_empty());
        assert!(warnings[0].contains("signature"), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_file_of_the_previous_format_version_is_not_served() {
        let dir = std::env::temp_dir().join(format!("geopriv-cache-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MeasurementCache::open(&dir);
        assert!(cache.store("sig-v", &[entry(1, 2)]).is_empty());
        // The checksum covers only the bytes after the magic, so this file
        // is intact apart from its version.
        let path = cache.path_for("sig-v");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"GPCACHE1");
        std::fs::write(&path, &bytes).unwrap();
        let (loaded, warnings) = cache.load("sig-v", 2, 1, 2);
        assert!(loaded.is_empty());
        assert!(warnings.len() == 1 && warnings[0].contains("older cache format"), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join(format!("geopriv-cache-dims-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MeasurementCache::open(&dir);
        assert!(cache.store("sig-d", &[entry(1, 2)]).is_empty());
        let (loaded, warnings) = cache.load("sig-d", 3, 1, 2);
        assert!(loaded.is_empty());
        assert!(warnings[0].contains("dimensions"), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ragged_entries_are_rejected_at_construction() {
        let ragged = vec![vec![vec![CachedSample { value: 0.0, weight: 0, breakdown: None }]]];
        assert!(CachedUserEntry::new(UserId::new(1), 0, 1, 1, 2, ragged).is_none());
        assert!(entry(1, 1).samples_at(2, 0).is_none());
        assert!(entry(1, 1).samples_at(0, 1).is_none());
    }
}
