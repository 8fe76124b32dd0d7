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
//! a marker shim) made of 64-bit words: every `f64` travels as its raw
//! `to_bits()` word, so values round-trip **bit-exactly** — the property the
//! warm≡cold identity contract rests on. A FNV-1a checksum over the
//! payload's words guards the file. Each step xors one word into the hash
//! and multiplies by an odd constant; both are bijections, so any change
//! confined to one word changes the checksum. Any mismatch (corruption,
//! truncation, a foreign or older format) makes the cache report itself
//! empty with a warning, and the runner falls back to the cold path. The
//! decoder checks the header's counts against the payload's length, with
//! checked arithmetic, before it allocates anything, so a forged count costs
//! a warning, never memory. A cache can therefore *never* change a result —
//! only the time it takes to produce it. I/O failures while storing are
//! likewise warnings, not errors.
//!
//! The format version in the magic covers the *meaning* of the stored values
//! as well as their layout. The signature names the mechanism and its
//! parameters but says nothing about what the mechanism outputs, so a change
//! that re-baselines a mechanism's bits under an unchanged signature must
//! bump the version: files written before it then take the older-format path
//! above (one warning, a cold run, the file overwritten) instead of serving
//! the old outputs. Version 2 marks GEO-I's Gamma(2) sampler. Version 3
//! changes only the layout, to the columns below, which are read and written
//! in bulk; it stores the same values as version 2.
//!
//! File layout (every field a little-endian 64-bit word; `U` users, and
//! `S = points × reps × metrics` samples per user):
//!
//! ```text
//! magic         8 bytes   b"GPCACHE3" (format version 3)
//! checksum      1 word    FNV-1a over every word after this field
//! sig_len       1 word    length of the UTF-8 signature in bytes
//! signature     …         its bytes, zero-padded to a whole word
//! points        1 word    design-point count
//! reps          1 word    repetition count
//! metrics       1 word    metric count
//! users         1 word    U
//! user ids      U words
//! fingerprints  U words
//! then one column per sample field, U·S samples each, in the order
//! [user][point][repetition][metric]:
//! values        U·S words         f64 bits
//! weights       U·S words         evaluated-trace count behind the value
//! breakdowns    U·S words         f64 bits of the user's breakdown value,
//!                                 0 when the metric could not evaluate her
//! presence      ⌈U·S / 64⌉ words  sample i has a breakdown value when bit
//!                                 i % 64 of word i / 64 is set
//! ```

use crate::error::CoreError;
use geopriv_mobility::UserId;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// The cached measurements of a whole sweep design as one flat block. Row
/// `i` is one user: her id, her sub-fingerprint and her `points × reps ×
/// metrics` samples, `[point][repetition][metric]`. Every row's samples sit
/// back to back in one user-major vector.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CacheBlock {
    points: usize,
    reps: usize,
    metrics: usize,
    /// Samples per row: `points × reps × metrics`.
    row_len: usize,
    users: Vec<UserId>,
    fingerprints: Vec<u64>,
    samples: Vec<CachedSample>,
}

impl CacheBlock {
    /// An empty block of `points × reps × metrics` samples per row, with
    /// room for `users` rows.
    pub(crate) fn with_capacity(points: usize, reps: usize, metrics: usize, users: usize) -> Self {
        let row_len = points.saturating_mul(reps).saturating_mul(metrics);
        Self {
            points,
            reps,
            metrics,
            row_len,
            users: Vec::with_capacity(users),
            fingerprints: Vec::with_capacity(users),
            samples: Vec::with_capacity(row_len.saturating_mul(users)),
        }
    }

    /// Number of rows (users).
    pub(crate) fn len(&self) -> usize {
        self.users.len()
    }

    /// Appends one user's row.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Internal`] when `samples` is not exactly one row
    /// (an engine invariant violation); the block is left as it was.
    pub(crate) fn push(
        &mut self,
        user: UserId,
        fingerprint: u64,
        samples: impl IntoIterator<Item = CachedSample>,
    ) -> Result<(), CoreError> {
        let start = self.samples.len();
        self.samples.extend(samples);
        let pushed = self.samples.len() - start;
        if pushed != self.row_len {
            self.samples.truncate(start);
            return Err(CoreError::Internal {
                reason: format!(
                    "user {user} has {pushed} samples, a cache row holds {}",
                    self.row_len
                ),
            });
        }
        self.users.push(user);
        self.fingerprints.push(fingerprint);
        Ok(())
    }

    /// Appends a row of placeholder samples for `user`, to be overwritten
    /// through [`CacheBlock::rows_mut`] once she is measured.
    pub(crate) fn push_placeholder(
        &mut self,
        user: UserId,
        fingerprint: u64,
    ) -> Result<(), CoreError> {
        let placeholder = CachedSample { value: 0.0, weight: 0, breakdown: None };
        self.push(user, fingerprint, std::iter::repeat(placeholder).take(self.row_len))
    }

    /// The samples of one row.
    fn row(&self, row: usize) -> Option<&[CachedSample]> {
        let start = row.checked_mul(self.row_len)?;
        self.samples.get(start..start.checked_add(self.row_len)?)
    }

    /// Every row's samples, in row order, each to overwrite on its own.
    pub(crate) fn rows_mut(&mut self) -> impl Iterator<Item = &mut [CachedSample]> + '_ {
        // A block of empty rows has no samples to split.
        self.samples.chunks_mut(self.row_len.max(1))
    }

    /// Every row's user and samples, in row order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (UserId, &[CachedSample])> + '_ {
        // `push` keeps one full row per user, so every row exists.
        self.users.iter().enumerate().map(|(i, &user)| (user, self.row(i).unwrap_or_default()))
    }
}

/// A cache file as loaded: checked (magic, checksum, signature, dimensions,
/// and every count against the payload's length) but not decoded. The
/// users and fingerprints are read in place, and a row's samples are
/// decoded only when a hit copies them into a refreshed [`CacheBlock`].
#[derive(Debug, Default)]
pub(crate) struct StoredRows {
    bytes: Vec<u8>,
    /// Samples per row: `points × reps × metrics`.
    row_len: usize,
    /// Byte ranges of the file's columns inside `bytes`.
    ids: Range<usize>,
    fingerprints: Range<usize>,
    values: Range<usize>,
    weights: Range<usize>,
    breakdowns: Range<usize>,
    presence: Range<usize>,
}

impl StoredRows {
    /// Every row's user and sub-fingerprint, in row order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = (UserId, u64)> + '_ {
        let column = |range: &Range<usize>| self.bytes.get(range.clone()).unwrap_or_default();
        words(column(&self.ids)).map(UserId::new).zip(words(column(&self.fingerprints)))
    }

    /// The decoded samples of one row, `[point][repetition][metric]`.
    pub(crate) fn row(&self, row: usize) -> Option<impl Iterator<Item = CachedSample> + '_> {
        let (values, weights) = (self.span(&self.values, row)?, self.span(&self.weights, row)?);
        let breakdowns = self.span(&self.breakdowns, row)?;
        let first = row * self.row_len;
        Some(words(values).zip(words(weights)).zip(words(breakdowns)).enumerate().map(
            move |(i, ((value, weight), breakdown))| CachedSample {
                value: f64::from_bits(value),
                weight,
                breakdown: self.present(first + i).then_some(f64::from_bits(breakdown)),
            },
        ))
    }

    /// The bytes of one row's words in one sample column.
    fn span(&self, column: &Range<usize>, row: usize) -> Option<&[u8]> {
        let len = self.row_len.checked_mul(8)?;
        let start = column.start.checked_add(row.checked_mul(len)?)?;
        let end = start.checked_add(len).filter(|&end| end <= column.end)?;
        self.bytes.get(start..end)
    }

    /// Whether sample `i`, counted across the rows, has a breakdown value.
    fn present(&self, i: usize) -> bool {
        let start = self.presence.start + i / 64 * 8;
        let word = self.bytes.get(start..start + 8).and_then(|word| words(word).next());
        word.is_some_and(|word| (word >> (i % 64)) & 1 == 1)
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

/// The on-disk measurement store: a directory holding one binary file per
/// sweep signature. See the module docs for the key composition and the
/// integrity contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementCache {
    dir: PathBuf,
}

const MAGIC: &[u8; 8] = b"GPCACHE3";

/// FNV-1a's 64-bit offset basis and prime.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

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

    /// Loads the rows cached under `signature`, with any warnings.
    ///
    /// A missing file is a plain cold start (no warning). Anything
    /// undecodable — bad magic, truncation, checksum mismatch, a different
    /// signature, dimensions disagreeing with `points`/`reps`/`metrics`,
    /// counts the payload cannot hold — returns no rows plus one warning
    /// describing why.
    pub(crate) fn load(
        &self,
        signature: &str,
        points: usize,
        reps: usize,
        metrics: usize,
    ) -> (StoredRows, Vec<String>) {
        let path = self.path_for(signature);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return (StoredRows::default(), Vec::new())
            }
            Err(e) => {
                return (
                    StoredRows::default(),
                    vec![format!(
                        "cache file {} is unreadable ({e}); falling back to the cold path",
                        path.display()
                    )],
                )
            }
        };
        match decode(bytes, signature, points, reps, metrics) {
            Ok(rows) => (rows, Vec::new()),
            Err(reason) => (
                StoredRows::default(),
                vec![format!(
                    "cache file {} rejected ({reason}); falling back to the cold path",
                    path.display()
                )],
            ),
        }
    }

    /// Atomically stores `block` under `signature` (temp file + rename),
    /// replacing any previous contents. Returns warnings instead of failing:
    /// a cache that cannot be written costs time, never correctness.
    ///
    /// Each call writes its own temp file, named by process id and a
    /// process-wide counter, so a concurrent writer of the same signature
    /// never writes into the file this one renames into place. A failed
    /// write or rename removes the temp file.
    pub(crate) fn store(&self, signature: &str, block: &CacheBlock) -> Vec<String> {
        static WRITERS: AtomicU64 = AtomicU64::new(0);
        let path = self.path_for(signature);
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            return vec![format!(
                "cache directory {} could not be created ({e}); measurements were not persisted",
                self.dir.display()
            )];
        }
        let bytes = encode(signature, block);
        let writer = WRITERS.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("bin.{}-{writer}.tmp", std::process::id()));
        if let Err(e) = std::fs::write(&tmp, &bytes) {
            let _ = std::fs::remove_file(&tmp);
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

/// FNV-1a over a byte string — the fixed, platform-independent hash the
/// filename uses (never the standard library's randomized hasher).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &byte| fnv1a_word(hash, u64::from(byte)))
}

/// One FNV-1a step over a whole word: the checksum's hash over the payload.
fn fnv1a_word(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// The little-endian words of `bytes`; a trailing partial word is ignored
/// (the decoder rejects a payload that has one before it reads any).
fn words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(|word| word.try_into().map_or(0, u64::from_le_bytes))
}

/// A file image under construction: each word is hashed into the checksum
/// as it is appended.
struct Writer {
    bytes: Vec<u8>,
    checksum: u64,
}

impl Writer {
    fn words(&mut self, words: impl Iterator<Item = u64>) {
        for word in words {
            self.bytes.extend_from_slice(&word.to_le_bytes());
            self.checksum = fnv1a_word(self.checksum, word);
        }
    }
}

/// The file image of `block`, in one buffer sized up front.
fn encode(signature: &str, block: &CacheBlock) -> Vec<u8> {
    let samples = block.samples.len();
    let words =
        1 + signature.len().div_ceil(8) + 4 + 2 * block.len() + 3 * samples + samples.div_ceil(64);
    let mut out =
        Writer { bytes: Vec::with_capacity(MAGIC.len() + 8 * (1 + words)), checksum: FNV_OFFSET };
    out.bytes.extend_from_slice(MAGIC);
    // The checksum's slot, filled in once every word after it is written.
    out.bytes.extend_from_slice(&[0; 8]);
    let signature_words = signature.as_bytes().chunks(8).map(|chunk| {
        let mut word = [0u8; 8];
        word.iter_mut().zip(chunk).for_each(|(into, &byte)| *into = byte);
        u64::from_le_bytes(word)
    });
    let dimensions = [block.points, block.reps, block.metrics, block.len()].map(|n| n as u64);
    out.words(std::iter::once(signature.len() as u64).chain(signature_words).chain(dimensions));
    out.words(block.users.iter().map(|user| user.value()));
    out.words(block.fingerprints.iter().copied());
    out.words(block.samples.iter().map(|sample| sample.value.to_bits()));
    out.words(block.samples.iter().map(|sample| sample.weight));
    out.words(block.samples.iter().map(|sample| sample.breakdown.map_or(0, f64::to_bits)));
    out.words(block.samples.chunks(64).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0, |bits, (i, sample)| bits | (u64::from(sample.breakdown.is_some()) << i))
    }));
    let Writer { mut bytes, checksum } = out;
    if let Some(slot) = bytes.get_mut(MAGIC.len()..MAGIC.len() + 8) {
        slot.copy_from_slice(&checksum.to_le_bytes());
    }
    bytes
}

fn decode(
    bytes: Vec<u8>,
    signature: &str,
    points: usize,
    reps: usize,
    metrics: usize,
) -> Result<StoredRows, String> {
    let mut file = Cursor { bytes: &bytes, at: 0 };
    let magic = file.word().ok_or("file shorter than its magic")?;
    if magic != u64::from_le_bytes(*MAGIC) {
        return Err("unrecognized magic — a foreign file or an older cache format".to_string());
    }
    let checksum = file.word().ok_or("file truncated before its checksum")?;
    let payload = file.rest();
    if payload.len() % 8 != 0 {
        return Err("file truncated inside a word".to_string());
    }
    if words(payload).fold(FNV_OFFSET, fnv1a_word) != checksum {
        return Err("checksum mismatch — the file is corrupted".to_string());
    }
    let sig_len = file.count("signature length")?;
    let stored_sig = file
        .take(sig_len.div_ceil(8))
        .and_then(|padded| bytes.get(padded)?.get(..sig_len))
        .ok_or("file truncated inside its signature")?;
    if stored_sig != signature.as_bytes() {
        return Err("signature mismatch — the file belongs to a different sweep".to_string());
    }
    let stored_points = file.count("point count")?;
    let stored_reps = file.count("repetition count")?;
    let stored_metrics = file.count("metric count")?;
    let users = file.count("user count")?;
    if stored_points != points || stored_reps != reps || stored_metrics != metrics {
        return Err(format!(
            "dimensions {stored_points}×{stored_reps}×{stored_metrics} do not match the \
             requested sweep ({points}×{reps}×{metrics})"
        ));
    }
    // Every count is checked against the payload's length before any row
    // is trusted.
    let row_len = points.checked_mul(reps).and_then(|n| n.checked_mul(metrics));
    let (Some(row_len), Some(samples)) = (row_len, row_len.and_then(|n| n.checked_mul(users)))
    else {
        return Err(format!("{users} users of {points}×{reps}×{metrics} samples overflow"));
    };
    let presence_words = samples.div_ceil(64);
    let needed = samples
        .checked_mul(3)
        .and_then(|n| n.checked_add(users.checked_mul(2)?))
        .and_then(|n| n.checked_add(presence_words));
    let remaining = file.rest().len() / 8;
    if needed != Some(remaining) {
        return Err(format!(
            "{users} users of {points}×{reps}×{metrics} samples do not fit the payload's \
             remaining {remaining} words"
        ));
    }
    let truncated = || "file truncated inside its columns".to_string();
    let ids = file.take(users).ok_or_else(truncated)?;
    let fingerprints = file.take(users).ok_or_else(truncated)?;
    let values = file.take(samples).ok_or_else(truncated)?;
    let weights = file.take(samples).ok_or_else(truncated)?;
    let breakdowns = file.take(samples).ok_or_else(truncated)?;
    let presence = file.take(presence_words).ok_or_else(truncated)?;
    Ok(StoredRows { row_len, ids, fingerprints, values, weights, breakdowns, presence, bytes })
}

/// Reads a file front to back; every read is bounds-checked, so a truncated
/// or forged file can never index out of range.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// The byte range of the next `count` words.
    fn take(&mut self, count: usize) -> Option<Range<usize>> {
        let end =
            self.at.checked_add(count.checked_mul(8)?).filter(|&end| end <= self.bytes.len())?;
        let range = self.at..end;
        self.at = end;
        Some(range)
    }

    /// The next word.
    fn word(&mut self) -> Option<u64> {
        let word = self.take(1)?;
        self.bytes.get(word).and_then(|word| words(word).next())
    }

    /// The next word, as a count this platform can hold.
    fn count(&mut self, what: &str) -> Result<usize, String> {
        let raw = self.word().ok_or_else(|| format!("file truncated before its {what}"))?;
        usize::try_from(raw).map_err(|_| format!("{what} {raw} does not fit this platform"))
    }

    /// Everything not read yet.
    fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.at..).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows of a 2-point, 1-repetition, 2-metric design, one per
    /// `(user, fingerprint)`.
    fn block(users: &[(u64, u64)]) -> CacheBlock {
        let mut block = CacheBlock::with_capacity(2, 1, 2, users.len());
        for &(user, fingerprint) in users {
            let row = [
                CachedSample { value: 0.1 + user as f64, weight: 1, breakdown: Some(0.25) },
                CachedSample { value: f64::MIN_POSITIVE, weight: 0, breakdown: None },
                CachedSample { value: -0.0, weight: 3, breakdown: Some(f64::EPSILON) },
                CachedSample { value: 1.0 / 3.0, weight: 2, breakdown: None },
            ];
            block.push(UserId::new(user), fingerprint, row).unwrap();
        }
        block
    }

    /// Decodes every stored row back into a block.
    fn decoded(rows: &StoredRows) -> CacheBlock {
        let mut block = CacheBlock::with_capacity(2, 1, 2, 0);
        for (row, (user, fingerprint)) in rows.keys().enumerate() {
            block.push(user, fingerprint, rows.row(row).unwrap()).unwrap();
        }
        block
    }

    #[test]
    fn round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("geopriv-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MeasurementCache::open(&dir);
        // 20 users × 4 samples: the presence bitmap spans two words.
        let stored = block(&(0..20).map(|user| (user, user ^ 0xAB)).collect::<Vec<_>>());
        assert!(cache.store("sig-a", &stored).is_empty());
        let (loaded, warnings) = cache.load("sig-a", 2, 1, 2);
        assert!(warnings.is_empty());
        let loaded = decoded(&loaded);
        assert_eq!(loaded, stored);
        // -0.0 and subnormals survive bit-for-bit.
        let sample = loaded.row(0).unwrap()[2];
        assert_eq!(sample.value.to_bits(), (-0.0f64).to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_silent_cold_start() {
        let cache = MeasurementCache::open("/nonexistent-geopriv-cache");
        let (loaded, warnings) = cache.load("sig", 1, 1, 1);
        assert_eq!(loaded.keys().count(), 0);
        assert!(warnings.is_empty());
    }

    #[test]
    fn corruption_truncation_and_mismatches_warn_and_fall_back() {
        let dir =
            std::env::temp_dir().join(format!("geopriv-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MeasurementCache::open(&dir);
        assert!(cache.store("sig-b", &block(&[(1, 2), (3, 4)])).is_empty());
        let path = cache.path_for("sig-b");
        let pristine = std::fs::read(&path).unwrap();
        let rejected = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            let (loaded, warnings) = cache.load("sig-b", 2, 1, 2);
            assert_eq!(loaded.keys().count(), 0, "{what}");
            assert_eq!(warnings.len(), 1, "{what}: {warnings:?}");
            warnings.into_iter().next().unwrap()
        };

        // Every single-byte flip: the magic is rejected as such, every other
        // byte as a checksum mismatch.
        for at in 0..pristine.len() {
            let mut flipped = pristine.clone();
            flipped[at] ^= 0xFF;
            let warning = rejected(&flipped, &format!("byte {at} flipped"));
            let expected = if at < MAGIC.len() { "magic" } else { "checksum" };
            assert!(warning.contains(expected), "byte {at}: {warning}");
        }

        // Every truncation, never a panic.
        for len in 0..pristine.len() {
            rejected(&pristine[..len], &format!("truncated to {len} bytes"));
        }

        // A forged user count with a recomputed checksum is refused before
        // anything is allocated for it.
        let users_at = MAGIC.len() + 8 * (1 + 1 + "sig-b".len().div_ceil(8) + 3);
        assert_eq!(pristine[users_at..users_at + 8], 2u64.to_le_bytes());
        let mut forged = pristine.clone();
        forged[users_at..users_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let checksum = words(&forged[MAGIC.len() + 8..]).fold(FNV_OFFSET, fnv1a_word);
        forged[MAGIC.len()..MAGIC.len() + 8].copy_from_slice(&checksum.to_le_bytes());
        let warning = rejected(&forged, "user count forged to u64::MAX");
        assert!(warning.contains("overflow"), "{warning}");

        // A different magic (older / foreign format) is rejected up front.
        let mut foreign = pristine.clone();
        foreign[..8].copy_from_slice(b"GPCACHE0");
        assert!(rejected(&foreign, "foreign magic").contains("magic"));

        // A signature collision inside the file is detected by content.
        std::fs::write(&path, &pristine).unwrap();
        std::fs::rename(&path, cache.path_for("sig-c")).unwrap();
        let (loaded, warnings) = cache.load("sig-c", 2, 1, 2);
        assert_eq!(loaded.keys().count(), 0);
        assert!(warnings[0].contains("signature"), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_file_of_the_previous_format_version_is_not_served() {
        let dir = std::env::temp_dir().join(format!("geopriv-cache-v2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MeasurementCache::open(&dir);
        assert!(cache.store("sig-v", &block(&[(1, 2)])).is_empty());
        // The checksum covers only the words after the magic, so this file
        // is intact apart from its version.
        let path = cache.path_for("sig-v");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"GPCACHE2");
        std::fs::write(&path, &bytes).unwrap();
        let (loaded, warnings) = cache.load("sig-v", 2, 1, 2);
        assert_eq!(loaded.keys().count(), 0);
        assert!(warnings.len() == 1 && warnings[0].contains("older cache format"), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join(format!("geopriv-cache-dims-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MeasurementCache::open(&dir);
        assert!(cache.store("sig-d", &block(&[(1, 2)])).is_empty());
        let (loaded, warnings) = cache.load("sig-d", 3, 1, 2);
        assert_eq!(loaded.keys().count(), 0);
        assert!(warnings[0].contains("dimensions"), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_writer_cannot_tear_a_stored_file() {
        let dir = std::env::temp_dir().join(format!("geopriv-cache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = MeasurementCache::open(&dir);
        // A writer still holding the temp file under a name every writer
        // shares would write into whatever that name was renamed to.
        let mut late = std::fs::File::create(cache.path_for("sig-r").with_extension("bin.tmp"))
            .expect("a writer's handle on a shared temp name");
        let stored = block(&[(1, 2), (3, 4)]);
        assert!(cache.store("sig-r", &stored).is_empty());
        std::io::Write::write_all(&mut late, &[0xFF; 64]).unwrap();
        drop(late);
        let (loaded, warnings) = cache.load("sig-r", 2, 1, 2);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(decoded(&loaded), stored);
        // The store left no temp file of its own behind.
        let tmp_files = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|entry| {
                let name = entry.as_ref().unwrap().file_name();
                name.to_string_lossy().ends_with(".tmp")
            })
            .count();
        assert_eq!(tmp_files, 1, "only the late writer's shared-name file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ragged_entries_are_rejected_at_construction() {
        let mut rows = block(&[(1, 1), (2, 2)]);
        let short = [CachedSample { value: 0.0, weight: 0, breakdown: None }];
        assert!(rows.push(UserId::new(3), 3, short).is_err());
        assert_eq!(rows.len(), 2);
        assert!(rows.row(1).is_some());
        assert!(rows.row(2).is_none());
    }
}
