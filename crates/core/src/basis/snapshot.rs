//! Versioned binary snapshots of a [`ShardedBasisStore`].
//!
//! Jigsaw's value proposition is amortizing black-box Monte Carlo cost
//! through basis reuse; this module extends the amortization window across
//! process boundaries. A snapshot captures every *committed* basis of every
//! shard — fingerprints and metric sample vectors, both bit-exact (`f64`
//! payloads are stored as their IEEE-754 bit patterns) — so a sweep or
//! interactive session warm-started from it resolves exactly as if the
//! producing sweep's store were still in memory.
//!
//! ## Format (version 1)
//!
//! All integers little-endian; all `f64` values stored via `to_bits()`.
//!
//! ```text
//! magic            8  bytes  "JGSWSNAP"
//! format version   u32       FORMAT_VERSION
//! config fp        u64       config_fingerprint(cfg, family name)
//! column count     u32       number of shards
//! per shard:
//!   payload len    u64       byte length of the shard payload
//!   payload        …         n_bases u32, then per basis:
//!                              fp_len u32, fp entries (u64 bits each),
//!                              n_samples u32, samples (u64 bits each)
//!   checksum       u64       FNV-1a 64 over the payload bytes
//! ```
//!
//! ## Invalidation policy
//!
//! A snapshot is only meaningful under the exact matching regime that
//! produced it, so the header carries a fingerprint of every
//! [`JigsawConfig`] knob that affects *basis identity*: fingerprint length,
//! sample count, matching tolerance, index strategy, and the mapping-family
//! name. Pure performance knobs (`threads`, `wave_size`) and the snapshot
//! paths themselves are excluded — they cannot change which bases exist or
//! how candidates are ordered. Any mismatch (or a truncated, bit-flipped, or
//! wrong-version file) refuses to load with a typed [`SnapshotError`]
//! instead of silently producing a differently-behaving store.
//!
//! ## Determinism
//!
//! Bases are serialized and re-inserted in basis-id order, which *is* the
//! index insertion order, so a loaded store reproduces the exact candidate
//! ordering (see [`crate::index::FingerprintIndex::candidates`]) of the
//! in-memory store it was saved from. Rebuilding metrics via
//! [`OutputMetrics::from_samples`] replays the same accumulation the
//! original commit performed, making save → load → save byte-identical and
//! warm-started sweeps bit-identical to their cold counterparts.

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jigsaw_pdb::{OutputMetrics, PdbError};

use crate::basis::{BasisStore, ShardedBasisStore};
use crate::config::{IndexStrategy, JigsawConfig};
use crate::fingerprint::Fingerprint;
use crate::mapping::MappingFamily;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"JGSWSNAP";

/// Current snapshot format version. Bump on any layout change; old files
/// then refuse to load with [`SnapshotError::UnsupportedVersion`] rather
/// than being misparsed.
pub const FORMAT_VERSION: u32 = 1;

/// Why a snapshot could not be saved or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a basis snapshot.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The file was written under different basis-identity configuration
    /// (fingerprint length, sample count, tolerance, index strategy, or
    /// mapping family).
    ConfigMismatch {
        /// Config fingerprint found in the file header.
        found: u64,
        /// Config fingerprint of the requesting session.
        expected: u64,
    },
    /// The file's shard count does not match the simulation's output
    /// column count.
    ColumnCountMismatch {
        /// Shard count found in the file header.
        found: usize,
        /// Output columns of the requesting simulation.
        expected: usize,
    },
    /// A shard payload's checksum does not match its contents.
    ChecksumMismatch {
        /// Index of the corrupted shard.
        shard: usize,
    },
    /// The file ended before the declared contents were read.
    Truncated,
    /// The contents are structurally invalid (bad lengths, non-finite
    /// fingerprint entries, trailing bytes, …).
    Corrupt(&'static str),
    /// The store has staged bases whose metrics are still pending; only
    /// fully committed stores (i.e. at a wave barrier) can be snapshot.
    StagedBases {
        /// Number of staged-but-uncommitted bases.
        staged: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O: {e}"),
            SnapshotError::BadMagic => write!(f, "not a basis snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, expected } => {
                write!(f, "unsupported snapshot version {found} (this build reads {expected})")
            }
            SnapshotError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot written under different basis-identity config \
                 ({found:#018x}, session expects {expected:#018x})"
            ),
            SnapshotError::ColumnCountMismatch { found, expected } => {
                write!(f, "snapshot has {found} column shard(s), simulation has {expected}")
            }
            SnapshotError::ChecksumMismatch { shard } => {
                write!(f, "checksum mismatch in shard {shard}")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::StagedBases { staged } => {
                write!(f, "cannot snapshot a store with {staged} staged (uncommitted) basis/es")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<SnapshotError> for PdbError {
    fn from(e: SnapshotError) -> Self {
        PdbError::Snapshot(e.to_string())
    }
}

/// FNV-1a 64-bit hash (dependency-free, stable across platforms).
fn fnv1a(init: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = init;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64 from the standard offset basis — the one content hash this
/// workspace uses for identity strings (snapshot payloads, config
/// fingerprints, the session server's scenario scopes), exported so no
/// caller has to re-implement the constants.
pub fn content_hash64(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Stable tag for the index strategy (part of the config fingerprint; the
/// candidate ordering a strategy produces is part of basis identity).
fn index_tag(strategy: IndexStrategy) -> u8 {
    match strategy {
        IndexStrategy::Array => 0,
        IndexStrategy::Normalization => 1,
        IndexStrategy::SortedSid => 2,
    }
}

/// Hash of every [`JigsawConfig`] knob that affects basis identity, plus
/// the mapping-family name. Two sessions whose fingerprints agree build
/// byte-compatible basis stores; anything else must refuse to share
/// snapshots ([`SnapshotError::ConfigMismatch`]).
pub fn config_fingerprint(cfg: &JigsawConfig, family_name: &str) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a(h, &(cfg.fingerprint_len as u64).to_le_bytes());
    h = fnv1a(h, &(cfg.n_samples as u64).to_le_bytes());
    h = fnv1a(h, &cfg.tolerance.to_bits().to_le_bytes());
    h = fnv1a(h, &[index_tag(cfg.index)]);
    h = fnv1a(h, family_name.as_bytes());
    h
}

/// Write a snapshot file so that a failure or crash at any instant leaves
/// either the previous file at `path` or the complete new one, never a
/// torn mix: the bytes go to a temporary file in the same directory, are
/// synced, and only then renamed over `path` (the directory is synced after
/// the rename so the new name itself survives a crash). The one writer every
/// snapshot producer — [`ShardedBasisStore::save_snapshot`], the session
/// server's `SAVE` and its shutdown re-snapshot — goes through.
///
/// The temporary is named `.tmp-<pid>-<seq>`: short and independent of the
/// target's name (so any name that could be written directly still can be),
/// and unique per write (so two concurrent `SAVE`s of one name never share
/// it). A failed write removes it; a process killed between create and
/// rename leaves it behind. Such a leftover is never read — no snapshot is
/// named `.tmp-*` — and [`remove_orphaned_temporaries`] deletes it once its
/// writer is gone (the session server runs it when it binds with a snapshot
/// directory).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".tmp-{}-{seq}", std::process::id()));
    write_through(&tmp, path, bytes)
}

/// Remove the temporaries that writers killed between create and rename
/// left in `dir`: every `.tmp-<pid>-<seq>` file (see [`write_atomic`])
/// whose writer process is gone, which on Linux means there is no
/// `/proc/<pid>` (so a writer in another pid namespace counts as gone: its
/// rename then fails, and its write reports the error). Elsewhere, or where
/// `/proc` is not mounted, no writer is known to be gone and nothing is
/// removed. Returns how many were removed.
pub fn remove_orphaned_temporaries(dir: &Path) -> std::io::Result<usize> {
    let proc = Path::new("/proc");
    if !cfg!(target_os = "linux") || !proc.join("self").exists() {
        return Ok(0);
    }
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(temporary_writer) else { continue };
        if proc.join(pid.to_string()).exists() {
            continue;
        }
        match std::fs::remove_file(entry.path()) {
            Ok(()) => removed += 1,
            // Another process swept it first.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(removed)
}

/// The writer's pid, if `name` is a [`write_atomic`] temporary's.
fn temporary_writer(name: &str) -> Option<u32> {
    let (pid, seq) = name.strip_prefix(".tmp-")?.split_once('-')?;
    seq.parse::<u64>().ok()?;
    pid.parse().ok()
}

/// [`write_atomic`] with the temporary's path chosen by the caller.
fn write_through(tmp: &Path, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let written = (|| {
        let mut file = std::fs::File::create(tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(tmp, path)?;
        #[cfg(unix)]
        {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        Ok(())
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(tmp);
    }
    written
}

/// Byte-stream writer helpers (all little-endian).
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64_bits(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Byte-stream reader with truncation checking.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64_bits(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Declared element count sanity check: `count` 8-byte values must fit
    /// in the remaining bytes *before* any allocation is sized from it, so
    /// a crafted length field yields [`SnapshotError::Truncated`] instead
    /// of a multi-gigabyte `Vec::with_capacity`.
    fn check_fits_u64s(&self, count: usize) -> Result<(), SnapshotError> {
        if count > (self.bytes.len() - self.pos) / 8 {
            return Err(SnapshotError::Truncated);
        }
        Ok(())
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Serialize one shard's committed bases (the per-shard payload, before the
/// checksum is appended).
fn encode_shard(store: &BasisStore) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, store.len() as u32);
    for basis in store.bases() {
        let fp = basis.fingerprint.entries();
        put_u32(&mut out, fp.len() as u32);
        for &x in fp {
            put_f64_bits(&mut out, x);
        }
        let samples = basis.metrics.samples();
        put_u32(&mut out, samples.len() as u32);
        for &x in samples {
            put_f64_bits(&mut out, x);
        }
    }
    out
}

/// Parse one shard payload into a fresh store, re-inserting bases in id
/// order so the rebuilt index proposes candidates in the exact order the
/// saved store would have.
fn decode_shard(
    payload: &[u8],
    cfg: &JigsawConfig,
    family: Arc<dyn MappingFamily>,
) -> Result<BasisStore, SnapshotError> {
    let mut r = Reader::new(payload);
    let n_bases = r.u32()? as usize;
    let mut store = BasisStore::new(cfg, family);
    for _ in 0..n_bases {
        let fp_len = r.u32()? as usize;
        if fp_len == 0 {
            return Err(SnapshotError::Corrupt("empty fingerprint"));
        }
        r.check_fits_u64s(fp_len)?;
        let mut entries = Vec::with_capacity(fp_len);
        for _ in 0..fp_len {
            let x = r.f64_bits()?;
            if !x.is_finite() {
                return Err(SnapshotError::Corrupt("non-finite fingerprint entry"));
            }
            entries.push(x);
        }
        let n_samples = r.u32()? as usize;
        r.check_fits_u64s(n_samples)?;
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            samples.push(r.f64_bits()?);
        }
        store.insert(Fingerprint::new(entries), OutputMetrics::from_samples(samples));
    }
    if !r.done() {
        return Err(SnapshotError::Corrupt("trailing bytes in shard payload"));
    }
    Ok(store)
}

impl ShardedBasisStore {
    /// Serialize every committed shard into the version-1 snapshot format.
    ///
    /// `family_name` names the mapping family the store was built with; it
    /// is folded into the header's config fingerprint so a session using a
    /// different family cannot load the snapshot. Fails with
    /// [`SnapshotError::StagedBases`] if any basis is staged but
    /// uncommitted (snapshots are only taken at wave barriers).
    pub fn to_snapshot_bytes(
        &self,
        cfg: &JigsawConfig,
        family_name: &str,
    ) -> Result<Vec<u8>, SnapshotError> {
        let staged = self.staged_total();
        if staged > 0 {
            return Err(SnapshotError::StagedBases { staged });
        }
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u64(&mut out, config_fingerprint(cfg, family_name));
        put_u32(&mut out, self.n_shards() as u32);
        for col in 0..self.n_shards() {
            let payload = encode_shard(self.shard(col));
            put_u64(&mut out, payload.len() as u64);
            out.extend_from_slice(&payload);
            put_u64(&mut out, fnv1a(FNV_OFFSET, &payload));
        }
        Ok(out)
    }

    /// Parse a snapshot produced by [`Self::to_snapshot_bytes`], verifying
    /// magic, version, config fingerprint, column count, and per-shard
    /// checksums before any basis is materialized.
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        cfg: &JigsawConfig,
        family: Arc<dyn MappingFamily>,
        expected_cols: usize,
    ) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let found_fp = r.u64()?;
        let expected_fp = config_fingerprint(cfg, family.name());
        if found_fp != expected_fp {
            return Err(SnapshotError::ConfigMismatch { found: found_fp, expected: expected_fp });
        }
        let n_cols = r.u32()? as usize;
        if n_cols != expected_cols {
            return Err(SnapshotError::ColumnCountMismatch {
                found: n_cols,
                expected: expected_cols,
            });
        }
        let mut shards = Vec::with_capacity(n_cols);
        for col in 0..n_cols {
            let payload_len = r.u64()? as usize;
            let payload = r.take(payload_len)?;
            let checksum = r.u64()?;
            if fnv1a(FNV_OFFSET, payload) != checksum {
                return Err(SnapshotError::ChecksumMismatch { shard: col });
            }
            shards.push(decode_shard(payload, cfg, family.clone())?);
        }
        if !r.done() {
            return Err(SnapshotError::Corrupt("trailing bytes after last shard"));
        }
        Ok(ShardedBasisStore::from_shards(shards))
    }

    /// Save the store to `path` (see [`Self::to_snapshot_bytes`]).
    pub fn save_snapshot(
        &self,
        cfg: &JigsawConfig,
        family_name: &str,
        path: &Path,
    ) -> Result<(), SnapshotError> {
        let bytes = self.to_snapshot_bytes(cfg, family_name)?;
        write_atomic(path, &bytes)?;
        Ok(())
    }

    /// Load a store from `path` (see [`Self::from_snapshot_bytes`]).
    pub fn load_snapshot(
        path: &Path,
        cfg: &JigsawConfig,
        family: Arc<dyn MappingFamily>,
        expected_cols: usize,
    ) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::from_snapshot_bytes(&bytes, cfg, family, expected_cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{AffineFamily, PureScaleFamily};

    fn cfg() -> JigsawConfig {
        JigsawConfig::paper().with_fingerprint_len(4).with_n_samples(8)
    }

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::new(v.to_vec())
    }

    fn metrics(v: &[f64]) -> OutputMetrics {
        OutputMetrics::from_samples(v.to_vec())
    }

    fn populated() -> ShardedBasisStore {
        let c = cfg();
        let mut s = ShardedBasisStore::new(2, &c, Arc::new(AffineFamily));
        s.shard_mut(0).insert(fp(&[0.5, 1.5, -2.0, 7.25]), metrics(&[0.5, 1.5, -2.0, 7.25, 3.0]));
        s.shard_mut(0).insert(fp(&[1.0, 1.0, 4.0, 9.0]), metrics(&[1.0, 1.0, 4.0, 9.0]));
        s.shard_mut(1).insert(fp(&[3.0, 3.0, 3.0, 3.0]), metrics(&[3.0; 6]));
        s
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let c = cfg();
        let s = populated();
        let bytes = s.to_snapshot_bytes(&c, "affine").unwrap();
        let loaded =
            ShardedBasisStore::from_snapshot_bytes(&bytes, &c, Arc::new(AffineFamily), 2).unwrap();
        assert_eq!(loaded.bases_per_column(), s.bases_per_column());
        for col in 0..2 {
            for (a, b) in s.shard(col).bases().iter().zip(loaded.shard(col).bases()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.fingerprint.entries(), b.fingerprint.entries());
                assert_eq!(a.metrics.samples(), b.metrics.samples());
                assert_eq!(a.metrics.expectation().to_bits(), b.metrics.expectation().to_bits());
            }
        }
        // Save → load → save is byte-identical.
        assert_eq!(loaded.to_snapshot_bytes(&c, "affine").unwrap(), bytes);
    }

    #[test]
    fn loaded_store_matches_like_the_original() {
        let c = cfg();
        let s = populated();
        let bytes = s.to_snapshot_bytes(&c, "affine").unwrap();
        let mut loaded =
            ShardedBasisStore::from_snapshot_bytes(&bytes, &c, Arc::new(AffineFamily), 2).unwrap();
        // An affine image of shard 0's first basis must resolve to it.
        let probe = fp(&[2.0, 4.0, -3.0, 15.5]); // 2x + 1
        let (id, m) = loaded.shard_mut(0).find_match(&probe).expect("hit");
        assert_eq!(id.0, 0);
        assert!((m.alpha - 2.0).abs() < 1e-9);
        assert!((m.beta - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_store_roundtrips() {
        let c = cfg();
        let s = ShardedBasisStore::new(3, &c, Arc::new(AffineFamily));
        let bytes = s.to_snapshot_bytes(&c, "affine").unwrap();
        let loaded =
            ShardedBasisStore::from_snapshot_bytes(&bytes, &c, Arc::new(AffineFamily), 3).unwrap();
        assert_eq!(loaded.bases_per_column(), vec![0, 0, 0]);
    }

    #[test]
    fn staged_store_refuses_to_save() {
        let c = cfg();
        let mut s = ShardedBasisStore::new(1, &c, Arc::new(AffineFamily));
        s.shard_mut(0).stage(fp(&[1.0, 2.0, 3.0, 4.0]));
        assert!(matches!(
            s.to_snapshot_bytes(&c, "affine"),
            Err(SnapshotError::StagedBases { staged: 1 })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let c = cfg();
        let mut bytes = populated().to_snapshot_bytes(&c, "affine").unwrap();
        bytes[0] ^= 0xFF;
        let r = ShardedBasisStore::from_snapshot_bytes(&bytes, &c, Arc::new(AffineFamily), 2);
        assert!(matches!(r, Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn wrong_version_rejected() {
        let c = cfg();
        let mut bytes = populated().to_snapshot_bytes(&c, "affine").unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let r = ShardedBasisStore::from_snapshot_bytes(&bytes, &c, Arc::new(AffineFamily), 2);
        assert!(matches!(r, Err(SnapshotError::UnsupportedVersion { found: 99, expected: 1 })));
    }

    #[test]
    fn config_and_family_changes_invalidate() {
        let c = cfg();
        let bytes = populated().to_snapshot_bytes(&c, "affine").unwrap();
        // Different tolerance.
        let other = c.clone().with_tolerance(1e-6);
        let r = ShardedBasisStore::from_snapshot_bytes(&bytes, &other, Arc::new(AffineFamily), 2);
        assert!(matches!(r, Err(SnapshotError::ConfigMismatch { .. })));
        // Different mapping family (name differs).
        let r = ShardedBasisStore::from_snapshot_bytes(&bytes, &c, Arc::new(PureScaleFamily), 2);
        assert!(matches!(r, Err(SnapshotError::ConfigMismatch { .. })));
        // Different index strategy.
        let other = c.clone().with_index(IndexStrategy::SortedSid);
        let r = ShardedBasisStore::from_snapshot_bytes(&bytes, &other, Arc::new(AffineFamily), 2);
        assert!(matches!(r, Err(SnapshotError::ConfigMismatch { .. })));
        // Performance knobs do NOT invalidate.
        let same = c.clone().with_threads(8).with_wave_size(64);
        assert!(ShardedBasisStore::from_snapshot_bytes(&bytes, &same, Arc::new(AffineFamily), 2)
            .is_ok());
    }

    #[test]
    fn column_count_mismatch_rejected() {
        let c = cfg();
        let bytes = populated().to_snapshot_bytes(&c, "affine").unwrap();
        let r = ShardedBasisStore::from_snapshot_bytes(&bytes, &c, Arc::new(AffineFamily), 3);
        assert!(matches!(r, Err(SnapshotError::ColumnCountMismatch { found: 2, expected: 3 })));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let c = cfg();
        let bytes = populated().to_snapshot_bytes(&c, "affine").unwrap();
        for cut in 0..bytes.len() {
            let r = ShardedBasisStore::from_snapshot_bytes(
                &bytes[..cut],
                &c,
                Arc::new(AffineFamily),
                2,
            );
            assert!(r.is_err(), "prefix of {cut} bytes must not load");
        }
    }

    #[test]
    fn payload_bit_flip_fails_checksum() {
        let c = cfg();
        let bytes = populated().to_snapshot_bytes(&c, "affine").unwrap();
        // Flip one bit inside the first shard's payload (header is 24 bytes,
        // then 8 bytes of payload length).
        let mut corrupted = bytes.clone();
        corrupted[24 + 8 + 6] ^= 0x10;
        let r = ShardedBasisStore::from_snapshot_bytes(&corrupted, &c, Arc::new(AffineFamily), 2);
        assert!(matches!(r, Err(SnapshotError::ChecksumMismatch { shard: 0 })));
    }

    #[test]
    fn crafted_huge_length_rejected_before_allocation() {
        // A forged snapshot (valid magic/version/config/checksum) declaring
        // a u32::MAX-element fingerprint must fail as Truncated, not size a
        // multi-gigabyte Vec from the untrusted length field.
        let c = cfg();
        let mut payload = Vec::new();
        put_u32(&mut payload, 1); // one basis
        put_u32(&mut payload, u32::MAX); // fp_len far beyond the payload
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_u32(&mut bytes, FORMAT_VERSION);
        put_u64(&mut bytes, config_fingerprint(&c, "affine"));
        put_u32(&mut bytes, 1);
        put_u64(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        put_u64(&mut bytes, fnv1a(FNV_OFFSET, &payload));
        let r = ShardedBasisStore::from_snapshot_bytes(&bytes, &c, Arc::new(AffineFamily), 1);
        assert!(matches!(r, Err(SnapshotError::Truncated)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let c = cfg();
        let mut bytes = populated().to_snapshot_bytes(&c, "affine").unwrap();
        bytes.push(0);
        let r = ShardedBasisStore::from_snapshot_bytes(&bytes, &c, Arc::new(AffineFamily), 2);
        assert!(matches!(r, Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn file_save_load_roundtrip() {
        let c = cfg();
        let s = populated();
        let path =
            std::env::temp_dir().join(format!("jigsaw-snap-test-{}.bin", std::process::id()));
        s.save_snapshot(&c, "affine", &path).unwrap();
        let loaded =
            ShardedBasisStore::load_snapshot(&path, &c, Arc::new(AffineFamily), 2).unwrap();
        assert_eq!(loaded.bases_per_column(), s.bases_per_column());
        std::fs::remove_file(&path).ok();
    }

    /// A fresh directory per test (tests run on parallel threads).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("jigsaw-snap-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temporary() {
        let dir = scratch_dir("atomic");
        let path = dir.join("store.snap");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        assert_eq!(file_names(&dir), vec!["store.snap"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_takes_any_name_a_direct_write_takes() {
        let dir = scratch_dir("longname");
        let path = dir.join("s".repeat(255)); // the platform's limit
        write_atomic(&path, b"fits").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"fits");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_leaves_the_previous_snapshot_loadable() {
        let c = cfg();
        let dir = scratch_dir("torn");
        let path = dir.join("store.snap");
        populated().save_snapshot(&c, "affine", &path).unwrap();
        let newer = ShardedBasisStore::new(2, &c, Arc::new(AffineFamily))
            .to_snapshot_bytes(&c, "affine")
            .unwrap();
        let loads_populated = || {
            let kept =
                ShardedBasisStore::load_snapshot(&path, &c, Arc::new(AffineFamily), 2).unwrap();
            assert_eq!(kept.bases_per_column(), populated().bases_per_column());
        };
        // The temporary cannot be created (its name is taken by a
        // directory; a read-only directory would not stop a test running as
        // root): the write fails before it touches the good file.
        let blocked = dir.join(".tmp-blocked");
        std::fs::create_dir(&blocked).unwrap();
        assert!(write_through(&blocked, &path, &newer).is_err());
        loads_populated();
        // The rename fails (the target's directory is gone from under it):
        // the written temporary is removed again.
        let tmp = dir.join(".tmp-orphan");
        assert!(write_through(&tmp, &dir.join("missing/store.snap"), &newer).is_err());
        loads_populated();
        assert_eq!(file_names(&dir), vec![".tmp-blocked", "store.snap"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let c = cfg();
        let r = ShardedBasisStore::load_snapshot(
            Path::new("/nonexistent/jigsaw.snap"),
            &c,
            Arc::new(AffineFamily),
            1,
        );
        assert!(matches!(r, Err(SnapshotError::Io(_))));
    }

    #[test]
    fn config_fingerprint_sensitivity() {
        let c = cfg();
        let base = config_fingerprint(&c, "affine");
        assert_eq!(base, config_fingerprint(&c.clone().with_threads(8), "affine"));
        assert_eq!(base, config_fingerprint(&c.clone().with_wave_size(512), "affine"));
        assert_ne!(base, config_fingerprint(&c.clone().with_fingerprint_len(3), "affine"));
        assert_ne!(base, config_fingerprint(&c.clone().with_n_samples(16), "affine"));
        assert_ne!(base, config_fingerprint(&c.clone().with_tolerance(1e-5), "affine"));
        assert_ne!(base, config_fingerprint(&c.clone().with_index(IndexStrategy::Array), "affine"));
        assert_ne!(base, config_fingerprint(&c, "identity"));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::Truncated.to_string().contains("truncated"));
        assert!(SnapshotError::UnsupportedVersion { found: 9, expected: 1 }
            .to_string()
            .contains("version 9"));
        assert!(SnapshotError::ChecksumMismatch { shard: 3 }.to_string().contains("shard 3"));
        assert!(SnapshotError::StagedBases { staged: 2 }.to_string().contains("staged"));
    }
}
