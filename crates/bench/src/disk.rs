//! Content-addressed on-disk artifact cache.
//!
//! The in-process [`ArtifactStore`](crate::store::ArtifactStore)
//! memoizes traces, simulations and profiles for the lifetime of one
//! process; a long-running daemon (or repeated CLI invocations) wants
//! the profiles, from which the model re-evaluates any machine, to
//! survive restarts. [`DiskCache`] is the persistence layer: each
//! artifact is written to `<root>/<kind>/<hash>.art`, where
//! `<hash>` is the FNV-1a 64 digest of the artifact's full logical key
//! string (the same exact `Debug`-rendered key the in-memory store
//! uses, so distinct configurations can never alias).
//!
//! Entry container format (all integers little-endian):
//!
//! ```text
//! magic    8 bytes   b"FOSMART1"
//! key_len  u32       length of the logical key string
//! body_len u64       length of the serialized payload
//! checksum u64       FNV-1a 64 of the payload bytes
//! key      key_len bytes (UTF-8, for exact verification + debugging)
//! payload  body_len bytes (serde_json of the artifact)
//! ```
//!
//! Every load re-verifies the magic, the lengths against the file
//! size, the stored key against the requested key, and the payload
//! checksum; any mismatch means the entry is **corrupt** (truncated
//! write, torn disk, bit rot): it is deleted on the spot and the
//! caller recomputes — a poisoned cache can only cost time, never
//! correctness. Writes are atomic (temp file + rename), so a crashed
//! writer leaves at worst an unreferenced temp file, not a torn entry.
//!
//! The cache is **eviction-aware**: after each insert the total size
//! of the cache directory is compared against a byte budget, and
//! oldest-modified entries are deleted until the budget holds. The
//! entry just written is never evicted by its own insert: "newest by
//! mtime" is not enough on coarse-timestamp filesystems (rapid writes
//! land on identical mtimes, and the path tie-break could then delete
//! the fresh entry), so eviction explicitly skips it.
//!
//! Traffic is counted both in local atomics ([`DiskCache::stats`],
//! served verbatim by `fosm client stats`) and as `store.disk_*`
//! observability counters.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fosm_trace::fnv1a64;
use serde::{Deserialize, Serialize};

/// Entry container magic, bumped with any layout change.
const MAGIC: &[u8; 8] = b"FOSMART1";
/// Fixed header size: magic + key_len + body_len + checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;
/// Default byte budget when `FOSM_CACHE_MAX_BYTES` is not set (1 GiB).
const DEFAULT_MAX_BYTES: u64 = 1 << 30;

/// A snapshot of the cache's traffic, for diagnostics output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no (usable) entry.
    pub misses: u64,
    /// Entries written.
    pub inserts: u64,
    /// Entries deleted to hold the byte budget.
    pub evictions: u64,
    /// Entries deleted because verification failed (truncated blob,
    /// checksum mismatch, malformed payload).
    pub corruptions: u64,
}

/// The on-disk artifact cache. See the module docs for the format.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    max_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    corruptions: AtomicU64,
    /// Distinguishes concurrent writers' temp files.
    tmp_seq: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `root` with the
    /// given byte budget.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the root directory.
    pub fn new(root: impl Into<PathBuf>, max_bytes: u64) -> std::io::Result<DiskCache> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskCache {
            root,
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// Resolves the cache from `FOSM_CACHE_DIR` (root) and
    /// `FOSM_CACHE_MAX_BYTES` (budget, default 1 GiB). Returns `None`
    /// when the variable is unset or empty; an unusable directory is
    /// reported on stderr and disables the cache rather than failing
    /// the run, and a malformed budget is reported on stderr and
    /// replaced by the default.
    pub fn from_env() -> Option<DiskCache> {
        let root = std::env::var("FOSM_CACHE_DIR").ok()?;
        if root.is_empty() {
            return None;
        }
        let max_bytes = parse_max_bytes(std::env::var("FOSM_CACHE_MAX_BYTES").ok().as_deref())
            .unwrap_or_else(|why| {
                eprintln!(
                    "warning: ignoring FOSM_CACHE_MAX_BYTES ({why}); \
                     using the default budget of {DEFAULT_MAX_BYTES} bytes"
                );
                DEFAULT_MAX_BYTES
            });
        match DiskCache::new(&root, max_bytes) {
            Ok(cache) => Some(cache),
            Err(e) => {
                eprintln!("warning: FOSM_CACHE_DIR {root} unusable ({e}); disk cache disabled");
                None
            }
        }
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured byte budget.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Loads the artifact stored under `(kind, key)`, verifying the
    /// entry end to end. A corrupt entry is deleted and reads as a
    /// miss, so the caller transparently recomputes.
    pub fn load<T: Deserialize>(&self, kind: &str, key: &str) -> Option<T> {
        let path = self.entry_path(kind, key);
        let Ok(bytes) = std::fs::read(&path) else {
            self.miss();
            return None;
        };
        let payload = match verify_entry(&bytes, key) {
            Verified::Payload(payload) => payload,
            Verified::ForeignKey => {
                // A different key hashed to the same file name: not
                // corruption — just not our entry.
                self.miss();
                return None;
            }
            Verified::Corrupt(why) => {
                self.discard_corrupt(&path, key, why);
                return None;
            }
        };
        // A payload whose checksum held but which does not parse is a
        // format drift or a foreign writer: same remedy as corruption.
        let parsed = std::str::from_utf8(payload)
            .map_err(|_| "payload is not UTF-8")
            .and_then(|text| {
                serde_json::from_str::<T>(text).map_err(|_| "payload does not deserialize")
            });
        match parsed {
            Ok(value) => {
                self.hit();
                Some(value)
            }
            Err(why) => {
                self.discard_corrupt(&path, key, why);
                None
            }
        }
    }

    /// Writes the artifact under `(kind, key)` (atomically, replacing
    /// any previous entry) and then enforces the byte budget.
    /// Write failures are reported on stderr, never fatal: the cache
    /// is an accelerator, not a source of truth.
    pub fn store<T: Serialize>(&self, kind: &str, key: &str, value: &T) {
        let payload = match serde_json::to_string(value) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("warning: disk cache cannot serialize {kind} entry: {e}");
                return;
            }
        };
        let payload = payload.as_bytes();
        let mut entry = Vec::with_capacity(HEADER_LEN + key.len() + payload.len());
        entry.extend_from_slice(MAGIC);
        entry.extend_from_slice(&(key.len() as u32).to_le_bytes());
        entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        entry.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        entry.extend_from_slice(key.as_bytes());
        entry.extend_from_slice(payload);

        let path = self.entry_path(kind, key);
        let dir = path.parent().expect("entry paths have a kind directory");
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&tmp, &entry))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("warning: disk cache cannot write {}: {e}", path.display());
            return;
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
        fosm_obs::counter_add("store.disk_insert", 1);
        self.enforce_budget(&path);
    }

    /// Current traffic counts.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, kind: &str, key: &str) -> PathBuf {
        self.root
            .join(kind)
            .join(format!("{:016x}.art", fnv1a64(key.as_bytes())))
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        fosm_obs::counter_add("store.disk_hit", 1);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        fosm_obs::counter_add("store.disk_miss", 1);
    }

    fn discard_corrupt(&self, path: &Path, key: &str, why: &str) {
        eprintln!(
            "warning: disk cache entry {} for key `{key}` is corrupt ({why}); \
             evicting and recomputing",
            path.display()
        );
        let _ = std::fs::remove_file(path);
        self.corruptions.fetch_add(1, Ordering::Relaxed);
        fosm_obs::counter_add("store.disk_corrupt", 1);
        self.miss();
    }

    /// Deletes oldest-modified entries until the cache fits the byte
    /// budget, never touching `just_written` (the entry whose insert
    /// triggered this pass). Without that exclusion, filesystems with
    /// coarse mtime granularity can stamp the fresh entry with the
    /// same mtime as existing ones, and the deterministic path
    /// tie-break may then evict the very entry the caller just paid to
    /// compute. Runs after each insert; the scan is a directory walk,
    /// cheap at artifact granularity.
    fn enforce_budget(&self, just_written: &Path) {
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        let mut total: u64 = 0;
        let Ok(kinds) = std::fs::read_dir(&self.root) else {
            return;
        };
        for kind in kinds.flatten() {
            let Ok(files) = std::fs::read_dir(kind.path()) else {
                continue;
            };
            for file in files.flatten() {
                let Ok(meta) = file.metadata() else { continue };
                if !meta.is_file() {
                    continue;
                }
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                total += meta.len();
                entries.push((mtime, file.path(), meta.len()));
            }
        }
        if total <= self.max_bytes {
            return;
        }
        // Oldest first; path as a deterministic tie-break.
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (_, path, len) in entries {
            if total <= self.max_bytes {
                break;
            }
            if path == just_written {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                fosm_obs::counter_add("store.disk_evict", 1);
            }
        }
    }
}

/// Parses a `FOSM_CACHE_MAX_BYTES` value: `None` or an empty string
/// means "not set" ([`DEFAULT_MAX_BYTES`]); a plain byte count is the
/// budget; anything else — a unit suffix such as `512M`, a sign, a
/// value that overflows `u64` — is an error naming the value, so the
/// caller warns instead of silently falling back to the default.
fn parse_max_bytes(raw: Option<&str>) -> Result<u64, String> {
    let raw = raw.map(str::trim).unwrap_or_default();
    if raw.is_empty() {
        return Ok(DEFAULT_MAX_BYTES);
    }
    raw.parse::<u64>()
        .map_err(|e| format!("`{raw}` is not a byte count: {e}"))
}

/// Outcome of structural verification of an entry file.
enum Verified<'a> {
    /// The entry is intact and belongs to the requested key.
    Payload(&'a [u8]),
    /// The entry is intact but stores a different key (hash alias).
    ForeignKey,
    /// The entry fails verification and must be discarded.
    Corrupt(&'static str),
}

fn verify_entry<'a>(bytes: &'a [u8], key: &str) -> Verified<'a> {
    if bytes.len() < HEADER_LEN {
        return Verified::Corrupt("shorter than the fixed header");
    }
    if &bytes[..8] != MAGIC {
        return Verified::Corrupt("bad magic");
    }
    let key_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let body_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let expect_total = HEADER_LEN
        .checked_add(key_len)
        .and_then(|n| n.checked_add(body_len));
    if expect_total != Some(bytes.len()) {
        return Verified::Corrupt("length fields disagree with the file size");
    }
    let stored_key = &bytes[HEADER_LEN..HEADER_LEN + key_len];
    if stored_key != key.as_bytes() {
        return Verified::ForeignKey;
    }
    let payload = &bytes[HEADER_LEN + key_len..];
    if fnv1a64(payload) != checksum {
        return Verified::Corrupt("payload checksum mismatch");
    }
    Verified::Payload(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(name: &str, max_bytes: u64) -> DiskCache {
        let root =
            std::env::temp_dir().join(format!("fosm-disk-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        DiskCache::new(root, max_bytes).expect("temp cache")
    }

    fn cleanup(cache: &DiskCache) {
        let _ = std::fs::remove_dir_all(cache.root());
    }

    fn entry_file(cache: &DiskCache, kind: &str) -> PathBuf {
        let dir = cache.root().join(kind);
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("kind dir exists")
            .flatten()
            .map(|e| e.path())
            .collect();
        files.sort();
        assert_eq!(files.len(), 1, "expected exactly one entry");
        files.remove(0)
    }

    #[test]
    fn max_bytes_parses_strictly() {
        assert_eq!(parse_max_bytes(None), Ok(DEFAULT_MAX_BYTES));
        assert_eq!(parse_max_bytes(Some("")), Ok(DEFAULT_MAX_BYTES));
        assert_eq!(parse_max_bytes(Some(" 4096 ")), Ok(4096));
        assert_eq!(parse_max_bytes(Some("0")), Ok(0));
        for bad in ["512M", "1e9", "-1", "18446744073709551616", "1 GiB"] {
            let why = parse_max_bytes(Some(bad)).expect_err(bad);
            assert!(why.contains(bad), "error `{why}` must name `{bad}`");
        }
    }

    #[test]
    fn round_trips_an_artifact() {
        let cache = temp_cache("roundtrip", u64::MAX);
        let value: Vec<u64> = (0..100).collect();
        assert_eq!(cache.load::<Vec<u64>>("trace", "k1"), None);
        cache.store("trace", "k1", &value);
        assert_eq!(cache.load::<Vec<u64>>("trace", "k1"), Some(value));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!((s.evictions, s.corruptions), (0, 0));
        cleanup(&cache);
    }

    #[test]
    fn distinct_keys_and_kinds_do_not_alias() {
        let cache = temp_cache("alias", u64::MAX);
        cache.store("trace", "a", &1u32);
        cache.store("trace", "b", &2u32);
        cache.store("profile", "a", &3u32);
        assert_eq!(cache.load::<u32>("trace", "a"), Some(1));
        assert_eq!(cache.load::<u32>("trace", "b"), Some(2));
        assert_eq!(cache.load::<u32>("profile", "a"), Some(3));
        cleanup(&cache);
    }

    #[test]
    fn truncated_entry_is_detected_evicted_and_recomputable() {
        let cache = temp_cache("truncate", u64::MAX);
        let value: Vec<u64> = (0..500).collect();
        cache.store("trace", "k", &value);
        let path = entry_file(&cache, "trace");
        let full = std::fs::read(&path).expect("entry readable");
        // Chop the blob mid-payload: simulates a torn write.
        std::fs::write(&path, &full[..full.len() / 2]).expect("truncate");
        assert_eq!(cache.load::<Vec<u64>>("trace", "k"), None);
        assert!(!path.exists(), "corrupt entry must be deleted");
        assert_eq!(cache.stats().corruptions, 1);
        // The caller recomputes and re-stores; the entry is healthy again.
        cache.store("trace", "k", &value);
        assert_eq!(cache.load::<Vec<u64>>("trace", "k"), Some(value));
        cleanup(&cache);
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let cache = temp_cache("flip", u64::MAX);
        cache.store("profile", "k", &vec![7u8; 64]);
        let path = entry_file(&cache, "profile");
        let mut bytes = std::fs::read(&path).expect("entry readable");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).expect("tamper");
        assert_eq!(cache.load::<Vec<u8>>("profile", "k"), None);
        assert_eq!(cache.stats().corruptions, 1);
        assert!(!path.exists());
        cleanup(&cache);
    }

    #[test]
    fn byte_budget_evicts_oldest_entries_first() {
        let cache = temp_cache("evict", 600);
        // ~260 bytes each once the header + key are counted.
        let blob: Vec<u8> = vec![1; 200];
        cache.store("trace", "old", &blob);
        // Ensure a strictly newer mtime even on coarse filesystems.
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store("trace", "new", &blob);
        assert_eq!(
            cache.load::<Vec<u8>>("trace", "old"),
            None,
            "oldest entry must be evicted once the budget overflows"
        );
        assert_eq!(cache.load::<Vec<u8>>("trace", "new"), Some(blob));
        assert!(cache.stats().evictions >= 1);
        cleanup(&cache);
    }

    /// Forces every pre-existing entry to a *newer* mtime than the
    /// next insert can possibly get: without the just-written
    /// exclusion, the budget pass would pick the fresh entry as
    /// "oldest" and evict it — the exact failure mode of coarse
    /// (tied) timestamps, made deterministic.
    #[test]
    fn eviction_never_removes_the_entry_just_written() {
        // ~230 bytes per entry once the header, key, and JSON quotes
        // are counted: the budget fits three entries, not four.
        let blob = "x".repeat(200);
        let cache = temp_cache("protect", 750);
        for key in ["a", "b", "c"] {
            cache.store("trace", key, &blob);
        }
        assert_eq!(cache.stats().evictions, 0, "three entries fit");
        let future = std::time::SystemTime::now() + std::time::Duration::from_secs(3600);
        for file in std::fs::read_dir(cache.root().join("trace"))
            .expect("kind dir")
            .flatten()
        {
            std::fs::File::options()
                .write(true)
                .open(file.path())
                .expect("open entry")
                .set_modified(future)
                .expect("set mtime");
        }
        cache.store("trace", "d", &blob);
        assert_eq!(
            cache.load::<String>("trace", "d"),
            Some(blob),
            "the entry whose insert triggered eviction must survive it"
        );
        assert!(cache.stats().evictions >= 1, "budget still enforced");
        cleanup(&cache);
    }

    /// Writes a burst of entries far faster than any filesystem mtime
    /// granularity: after every store, the entry just written must be
    /// loadable (the module-docs guarantee that used to fail when the
    /// burst landed on tied mtimes).
    #[test]
    fn rapid_writes_always_keep_the_latest_entry() {
        let blob = "y".repeat(200);
        let cache = temp_cache("burst", 750);
        for i in 0..24 {
            let key = format!("k{i}");
            cache.store("trace", &key, &blob);
            assert_eq!(
                cache.load::<String>("trace", &key),
                Some(blob.clone()),
                "entry {key} evicted by its own insert"
            );
        }
        assert!(cache.stats().evictions >= 20, "budget held the whole burst");
        cleanup(&cache);
    }
}
