//! The persistent on-disk TG artifact store.
//!
//! The in-memory [`ArtifactCache`](crate::ArtifactCache) amortises
//! trace/translate cost *within* one campaign; this store amortises it
//! *across* campaigns and processes. The paper's speedup (§6, Table 2)
//! is precisely this economics — the expensive cycle-true reference run
//! is a one-time cost — so a second `ntg-sweep` over the same grid
//! should re-trace nothing, and campaigns in several processes sharing
//! one store should build each artifact at most once between them.
//!
//! # Layout
//!
//! ```text
//! <base>/v<STORE_FORMAT_VERSION>/
//!   traces/<sanitised-key>-<fnv64(key)>.trace     trace-level entries
//!   images/<sanitised-key>-<fnv64(key)>.img       image-level entries
//!   .../<entry>.used                              LRU recency marker
//!   .../<entry>.lock                              cross-process build lock
//!   .../<entry>.tmp.<pid>                         in-flight writes
//! ```
//!
//! `<base>` defaults to `~/.cache/ntg`, overridable with the
//! `NTG_STORE` environment variable or `--store`. The directory level
//! carries the format version, and every image key additionally folds
//! [`STORE_FORMAT_VERSION`](ntg_core::STORE_FORMAT_VERSION) in via
//! `TranslatorConfig::cache_key` — codec evolution retires stale
//! entries instead of misreading them.
//!
//! # Atomicity and write-once across processes
//!
//! Entries are immutable once published. A writer builds into
//! `<entry>.tmp.<pid>` and publishes with an atomic `rename`, so a
//! reader never observes a half-written entry; every entry additionally
//! carries a magic/version/key header and an FNV-1a checksum trailer,
//! so torn or bit-rotted files degrade to a rebuild, never to a wrong
//! simulation. Concurrent builders of one key are serialised with an
//! `O_EXCL` lock file: losers poll for the winner's entry. A lock older
//! than [`LOCK_STALE_SECS`] is presumed orphaned (builder crashed) and
//! is broken; if two processes do end up building the same key, both
//! produce identical bytes (the whole pipeline is deterministic) and
//! the second rename is a harmless overwrite.
//!
//! # Eviction
//!
//! [`DiskStore::gc`] prunes least-recently-*used* entries (reads touch
//! a sidecar `.used` marker; plain mtime would make the store
//! insertion-ordered) until the store fits a byte budget.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use ntg_core::{StochasticConfig, TgImage, STORE_FORMAT_VERSION};
use ntg_trace::{BinCodecError, ByteReader, ByteWriter, MasterTrace};

use crate::cache::TraceArtifact;

/// Magic number at the start of every store entry (`"NTGS"`).
pub const STORE_ENTRY_MAGIC: [u8; 4] = *b"NTGS";

/// Age after which a build lock is presumed orphaned and broken.
pub const LOCK_STALE_SECS: u64 = 120;

/// Poll interval while waiting for another process's build.
const WAIT_POLL_MS: u64 = 20;

/// The two artifact levels the store holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Traced-reference artifacts ([`TraceArtifact`]).
    Trace,
    /// Assembled TG image sets (`Vec<TgImage>`).
    Image,
}

impl StoreKind {
    /// The store subdirectory (and remote URL segment) of this level.
    pub fn dir(self) -> &'static str {
        match self {
            StoreKind::Trace => "traces",
            StoreKind::Image => "images",
        }
    }

    fn ext(self) -> &'static str {
        match self {
            StoreKind::Trace => "trace",
            StoreKind::Image => "img",
        }
    }

    /// Parses the URL segment back into a kind (inverse of
    /// [`Self::dir`]).
    pub fn from_dir(dir: &str) -> Option<Self> {
        match dir {
            "traces" => Some(StoreKind::Trace),
            "images" => Some(StoreKind::Image),
            _ => None,
        }
    }
}

/// A remote artifact tier behind the local [`DiskStore`]: write-once,
/// content-addressed PUT/GET of *framed* store entries (the exact bytes
/// [`encode_entry`] produces — magic, version, embedded key, FNV-1a
/// checksum), keyed by [`entry_file_name`]. S3-style semantics: objects
/// are immutable once published; a PUT of an existing object is a
/// no-op. Implementations must be infallibility-agnostic — any error is
/// treated by the store as a miss (local rebuild), never a failure.
pub trait RemoteTier: std::fmt::Debug + Send + Sync {
    /// Fetches the framed entry named `name`, `Ok(None)` on a miss.
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure (degrades to a miss).
    fn fetch(&self, kind: StoreKind, name: &str) -> Result<Option<Vec<u8>>, String>;

    /// Publishes the framed entry named `name` (write-once: publishing
    /// an existing name is a no-op, not an error).
    ///
    /// # Errors
    ///
    /// Returns a message on transport failure (publish is best-effort).
    fn publish(&self, kind: StoreKind, name: &str, bytes: &[u8]) -> Result<(), String>;
}

/// Counters of the remote tier's traffic, shared by all clones of a
/// [`DiskStore`].
#[derive(Debug, Default)]
struct RemoteCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    publishes: AtomicU64,
    errors: AtomicU64,
}

/// A point-in-time copy of a store's remote-tier counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoteSnapshot {
    /// Entries fetched from the remote tier (verified frames only).
    pub hits: u64,
    /// Remote lookups that found nothing (local build follows).
    pub misses: u64,
    /// Entries published upward after a local build.
    pub publishes: u64,
    /// Transport or corruption failures, each degraded to a local
    /// rebuild.
    pub errors: u64,
}

/// Per-kind entry counts and byte totals of a [`DiskStore`] — the
/// `ntg-sweep store stats` view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Published trace-level entries.
    pub trace_entries: usize,
    /// Bytes held by trace-level entries.
    pub trace_bytes: u64,
    /// Published image-level entries.
    pub image_entries: usize,
    /// Bytes held by image-level entries.
    pub image_bytes: u64,
}

impl StoreStats {
    /// Total published entry bytes across both levels.
    pub fn total_bytes(&self) -> u64 {
        self.trace_bytes + self.image_bytes
    }

    /// Total published entries across both levels.
    pub fn total_entries(&self) -> usize {
        self.trace_entries + self.image_entries
    }
}

/// What [`DiskStore::gc`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Entries removed.
    pub removed: usize,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Entry bytes remaining after the sweep.
    pub remaining_bytes: u64,
}

/// A content-addressed, write-once, cross-process artifact store —
/// optionally tiered over a [`RemoteTier`] (local miss fetches from
/// remote and populates disk; local build publishes upward; remote
/// failures and corruption degrade to a local rebuild).
#[derive(Debug, Clone)]
pub struct DiskStore {
    root: PathBuf,
    remote: Option<Arc<dyn RemoteTier>>,
    remote_counters: Arc<RemoteCounters>,
}

impl DiskStore {
    /// Opens (creating if needed) a store under `base`. The versioned
    /// subdirectory `v<STORE_FORMAT_VERSION>` is appended here, so
    /// different format generations coexist without interference.
    ///
    /// # Errors
    ///
    /// Returns a message if the directories cannot be created.
    pub fn open(base: impl Into<PathBuf>) -> Result<Self, String> {
        let root = base.into().join(format!("v{STORE_FORMAT_VERSION}"));
        for kind in [StoreKind::Trace, StoreKind::Image] {
            let dir = root.join(kind.dir());
            fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        Ok(Self {
            root,
            remote: None,
            remote_counters: Arc::new(RemoteCounters::default()),
        })
    }

    /// Attaches a remote tier behind this store's disk level.
    #[must_use]
    pub fn with_remote(mut self, remote: Arc<dyn RemoteTier>) -> Self {
        self.remote = Some(remote);
        self
    }

    /// Whether a remote tier is attached.
    pub fn has_remote(&self) -> bool {
        self.remote.is_some()
    }

    /// Current remote-tier counters (all zero without a remote).
    pub fn remote_snapshot(&self) -> RemoteSnapshot {
        RemoteSnapshot {
            hits: self.remote_counters.hits.load(Ordering::Relaxed),
            misses: self.remote_counters.misses.load(Ordering::Relaxed),
            publishes: self.remote_counters.publishes.load(Ordering::Relaxed),
            errors: self.remote_counters.errors.load(Ordering::Relaxed),
        }
    }

    /// The default store base: `$NTG_STORE`, else `$HOME/.cache/ntg`.
    /// `None` when neither variable is set (no home directory).
    pub fn default_base() -> Option<PathBuf> {
        if let Some(p) = std::env::var_os("NTG_STORE") {
            if !p.is_empty() {
                return Some(PathBuf::from(p));
            }
        }
        std::env::var_os("HOME")
            .filter(|h| !h.is_empty())
            .map(|h| PathBuf::from(h).join(".cache").join("ntg"))
    }

    /// The versioned root directory of this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, kind: StoreKind, key: &str) -> PathBuf {
        self.root.join(kind.dir()).join(entry_file_name(kind, key))
    }

    /// Loads an entry's payload, verifying the frame (magic, version,
    /// key, checksum). Any malformed file is deleted and reported as a
    /// miss — a corrupt store entry costs a rebuild, never an error.
    /// A successful load touches the entry's `.used` marker (LRU).
    pub fn load(&self, kind: StoreKind, key: &str) -> Option<Vec<u8>> {
        let path = self.entry_path(kind, key);
        let bytes = fs::read(&path).ok()?;
        match decode_entry(&bytes, key) {
            Some(payload) => {
                // Recency marker for gc(); best-effort.
                let _ = fs::write(used_marker(&path), b"");
                Some(payload)
            }
            None => {
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Publishes an entry: frame + payload to a temp file, then atomic
    /// rename.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure (the temp file is cleaned up).
    pub fn save(&self, kind: StoreKind, key: &str, payload: &[u8]) -> Result<(), String> {
        let path = self.entry_path(kind, key);
        let tmp = path.with_extension(format!("{}.tmp.{}", kind.ext(), std::process::id()));
        let bytes = encode_entry(key, payload);
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        };
        write().map_err(|e| {
            let _ = fs::remove_file(&tmp);
            format!("store write {}: {e}", path.display())
        })
    }

    /// Write-once lookup that is safe across processes: returns the
    /// stored artifact (`from_disk = true`) or runs `build`, publishes
    /// its byte form and returns it (`from_disk = false`). Concurrent
    /// builders of the same key serialise on a lock file; waiters adopt
    /// the winner's entry. Stale locks (holder crashed) are broken
    /// after [`LOCK_STALE_SECS`]. An entry whose frame verifies but
    /// whose payload no longer decodes (inner-codec drift) is deleted
    /// and rebuilt.
    ///
    /// # Errors
    ///
    /// Propagates `build` errors and store I/O failures.
    pub fn get_or_build_typed<V>(
        &self,
        kind: StoreKind,
        key: &str,
        decode: impl Fn(&[u8]) -> Result<V, String>,
        build: impl FnOnce() -> Result<(V, Vec<u8>), String>,
    ) -> Result<(V, bool), String> {
        let mut build = Some(build);
        loop {
            if let Some(payload) = self.load(kind, key) {
                match decode(&payload) {
                    Ok(v) => return Ok((v, true)),
                    Err(_) => {
                        let _ = fs::remove_file(self.entry_path(kind, key));
                    }
                }
            }
            match self.try_lock(kind, key)? {
                Some(lock) => {
                    // Double-check under the lock: the previous holder
                    // may have published between our load and lock.
                    if let Some(payload) = self.load(kind, key) {
                        if let Ok(v) = decode(&payload) {
                            drop(lock);
                            return Ok((v, true));
                        }
                        let _ = fs::remove_file(self.entry_path(kind, key));
                    }
                    // Remote tier: a verified fetch populates the disk
                    // level and counts as a hit; any failure (transport,
                    // corruption, inner-codec drift) degrades to a local
                    // build exactly like a corrupt disk entry.
                    if let Some(payload) = self.fetch_remote(kind, key) {
                        if let Ok(v) = decode(&payload) {
                            self.save(kind, key, &payload)?;
                            drop(lock);
                            return Ok((v, true));
                        }
                    }
                    let (v, payload) = (build.take().expect("build consumed once"))()?;
                    self.save(kind, key, &payload)?;
                    self.publish_remote(kind, key, &payload);
                    drop(lock);
                    return Ok((v, false));
                }
                None => std::thread::sleep(Duration::from_millis(WAIT_POLL_MS)),
            }
        }
    }

    /// Byte-level [`Self::get_or_build_typed`] — the payload itself is
    /// the artifact.
    ///
    /// # Errors
    ///
    /// Propagates `build` errors and store I/O failures.
    pub fn get_or_build(
        &self,
        kind: StoreKind,
        key: &str,
        build: impl FnOnce() -> Result<Vec<u8>, String>,
    ) -> Result<(Vec<u8>, bool), String> {
        self.get_or_build_typed(
            kind,
            key,
            |payload| Ok(payload.to_vec()),
            || build().map(|payload| (payload.clone(), payload)),
        )
    }

    /// Fetches `key` from the remote tier, returning the verified
    /// payload. Every failure mode — no remote, transport error, miss,
    /// bad frame — returns `None`; the caller falls back to a local
    /// build.
    fn fetch_remote(&self, kind: StoreKind, key: &str) -> Option<Vec<u8>> {
        let remote = self.remote.as_ref()?;
        let name = entry_file_name(kind, key);
        match remote.fetch(kind, &name) {
            Ok(Some(bytes)) => match decode_entry(&bytes, key) {
                Some(payload) => {
                    self.remote_counters.hits.fetch_add(1, Ordering::Relaxed);
                    Some(payload)
                }
                None => {
                    // A corrupt (or colliding) remote object is the
                    // network edition of a bit-rotted disk entry.
                    self.remote_counters.errors.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
            Ok(None) => {
                self.remote_counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(_) => {
                self.remote_counters.errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes a freshly built entry upward, best-effort: a remote
    /// failure costs the fleet a future rebuild, never this run.
    fn publish_remote(&self, kind: StoreKind, key: &str, payload: &[u8]) {
        let Some(remote) = self.remote.as_ref() else {
            return;
        };
        let name = entry_file_name(kind, key);
        let counter = match remote.publish(kind, &name, &encode_entry(key, payload)) {
            Ok(()) => &self.remote_counters.publishes,
            Err(_) => &self.remote_counters.errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Tries to take the key's build lock. `Ok(None)` means another
    /// live process holds it (caller should wait and re-poll).
    fn try_lock(&self, kind: StoreKind, key: &str) -> Result<Option<LockGuard>, String> {
        let path = lock_path(&self.entry_path(kind, key));
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = writeln!(f, "{}", std::process::id());
                    return Ok(Some(LockGuard { path }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    // Stale-lock recovery: a lock whose file is old
                    // belongs to a crashed builder.
                    let age = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| SystemTime::now().duration_since(t).ok());
                    match age {
                        Some(a) if a.as_secs() >= LOCK_STALE_SECS => {
                            let _ = fs::remove_file(&path);
                            continue; // retry the O_EXCL create
                        }
                        // Metadata raced with the holder's unlock —
                        // treat as busy and re-poll.
                        _ => return Ok(None),
                    }
                }
                Err(e) => return Err(format!("store lock {}: {e}", path.display())),
            }
        }
    }

    /// Total bytes of published entries (markers/locks/temps excluded).
    pub fn size_bytes(&self) -> u64 {
        self.entries().iter().map(|e| e.size).sum()
    }

    /// Prunes least-recently-used entries until the store's entry bytes
    /// fit `budget_bytes`. With `dry_run` the same walk runs and the
    /// same [`GcStats`] come back, but nothing is removed — operators
    /// preview what a budget would evict before committing.
    pub fn gc(&self, budget_bytes: u64, dry_run: bool) -> GcStats {
        let mut entries = self.entries();
        // Most recently used last; evict from the front.
        entries.sort_by_key(|e| e.last_used);
        let mut total: u64 = entries.iter().map(|e| e.size).sum();
        let mut stats = GcStats::default();
        for e in &entries {
            if total <= budget_bytes {
                break;
            }
            if dry_run || fs::remove_file(&e.path).is_ok() {
                if !dry_run {
                    let _ = fs::remove_file(used_marker(&e.path));
                }
                total -= e.size;
                stats.removed += 1;
                stats.freed_bytes += e.size;
            }
        }
        stats.remaining_bytes = total;
        stats
    }

    /// Per-kind entry counts and byte totals, for `ntg-sweep store
    /// stats`.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats::default();
        for kind in [StoreKind::Trace, StoreKind::Image] {
            for e in self.entries_of(kind) {
                match kind {
                    StoreKind::Trace => {
                        s.trace_entries += 1;
                        s.trace_bytes += e.size;
                    }
                    StoreKind::Image => {
                        s.image_entries += 1;
                        s.image_bytes += e.size;
                    }
                }
            }
        }
        s
    }

    fn entries(&self) -> Vec<Entry> {
        let mut out = self.entries_of(StoreKind::Trace);
        out.extend(self.entries_of(StoreKind::Image));
        out
    }

    fn entries_of(&self, kind: StoreKind) -> Vec<Entry> {
        let mut out = Vec::new();
        let dir = self.root.join(kind.dir());
        let Ok(rd) = fs::read_dir(&dir) else {
            return out;
        };
        for entry in rd.flatten() {
            let path = entry.path();
            let is_entry = path.extension().is_some_and(|e| e == kind.ext());
            if !is_entry {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let published = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            let used = fs::metadata(used_marker(&path))
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            out.push(Entry {
                path,
                size: meta.len(),
                last_used: published.max(used),
            });
        }
        out
    }
}

struct Entry {
    path: PathBuf,
    size: u64,
    last_used: SystemTime,
}

/// Removes the lock file when the builder finishes (or its closure
/// errors and unwinds the call).
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

fn lock_path(entry: &Path) -> PathBuf {
    let mut s = entry.as_os_str().to_os_string();
    s.push(".lock");
    PathBuf::from(s)
}

fn used_marker(entry: &Path) -> PathBuf {
    let mut s = entry.as_os_str().to_os_string();
    s.push(".used");
    PathBuf::from(s)
}

fn sanitise(key: &str) -> String {
    let mut out: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    out.truncate(48);
    out
}

/// The canonical file (and remote object) name of an entry: a
/// sanitised key prefix for human grepping plus the FNV-64 of the full
/// key for uniqueness. Local disk and the remote tier share this
/// naming, so a warm remote hit lands in the same slot a local build
/// would have filled.
pub fn entry_file_name(kind: StoreKind, key: &str) -> String {
    format!(
        "{}-{:016x}.{}",
        sanitise(key),
        ntg_trace::fnv64(key.as_bytes()),
        kind.ext()
    )
}

/// Validates a framed store entry without knowing its key in advance
/// and returns `(embedded_key, payload)`. Servers use this to vet
/// uploads: the frame must decode, and the caller can then check the
/// embedded key hashes to the object name it was PUT under.
///
/// # Errors
///
/// Returns a description of the first malformation found (short frame,
/// bad magic/version, checksum mismatch, trailing bytes).
pub fn verify_entry(bytes: &[u8]) -> Result<(String, Vec<u8>), String> {
    let mut r = ByteReader::new_checksummed(bytes).map_err(|e| format!("checksum: {e}"))?;
    let magic = r.take(4).map_err(|e| format!("magic: {e}"))?;
    if magic != STORE_ENTRY_MAGIC {
        return Err("bad entry magic".to_string());
    }
    let version = r.u32().map_err(|e| format!("version: {e}"))?;
    if version != STORE_FORMAT_VERSION {
        return Err(format!(
            "entry format v{version}, expected v{STORE_FORMAT_VERSION}"
        ));
    }
    let key = String::from_utf8(r.lp_bytes().map_err(|e| format!("key: {e}"))?.to_vec())
        .map_err(|_| "entry key is not UTF-8".to_string())?;
    let payload = r.lp_bytes().map_err(|e| format!("payload: {e}"))?.to_vec();
    r.expect_end().map_err(|e| format!("trailing bytes: {e}"))?;
    Ok((key, payload))
}

fn encode_entry(key: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(&STORE_ENTRY_MAGIC);
    w.u32(STORE_FORMAT_VERSION);
    w.lp_bytes(key.as_bytes());
    w.lp_bytes(payload);
    w.finish_checksummed()
}

/// `None` on any malformation: wrong magic/version, checksum mismatch,
/// or a key that differs from the requested one (an FNV-64 filename
/// collision — the colliding entry is treated as absent).
fn decode_entry(bytes: &[u8], key: &str) -> Option<Vec<u8>> {
    let mut r = ByteReader::new_checksummed(bytes).ok()?;
    if r.take(4).ok()? != STORE_ENTRY_MAGIC || r.u32().ok()? != STORE_FORMAT_VERSION {
        return None;
    }
    if r.lp_bytes().ok()? != key.as_bytes() {
        return None;
    }
    let payload = r.lp_bytes().ok()?.to_vec();
    r.expect_end().ok()?;
    Some(payload)
}

/// The store key string of a trace-level artifact: `(workload, cores,
/// trace fabric)` plus the trace binary codec version, so a codec bump
/// retires stale entries at the key level.
pub fn trace_store_key(key: &crate::cache::TraceKey) -> String {
    let (workload, cores, fabric) = key;
    format!(
        "trace|{workload}|{cores}P|{fabric}|trc{}",
        ntg_trace::TRACE_BIN_VERSION
    )
}

/// The store key string of an image-level artifact: the trace key plus
/// `TranslatorConfig::cache_key()` (itself salted with
/// [`STORE_FORMAT_VERSION`]).
pub fn image_store_key(key: &crate::cache::ImageKey) -> String {
    let (workload, cores, fabric, cache_key) = key;
    format!("image|{workload}|{cores}P|{fabric}|{cache_key:016x}")
}

/// Serialises a [`TraceArtifact`] for the store (entry framing and
/// checksumming happen in [`DiskStore::save`]; each contained trace
/// additionally carries its own versioned frame).
pub fn encode_trace_artifact(artifact: &TraceArtifact) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(artifact.traces.len() as u32);
    for t in &artifact.traces {
        w.lp_bytes(&t.to_bin());
    }
    w.u32(artifact.pollable.len() as u32);
    for &(base, size) in &artifact.pollable {
        w.u32(base);
        w.u32(size);
    }
    w.u32(artifact.calibration.len() as u32);
    for cfg in &artifact.calibration {
        cfg.encode(&mut w);
    }
    w.u64(artifact.ref_cycles);
    w.into_bytes()
}

/// Deserialises a [`TraceArtifact`] written by
/// [`encode_trace_artifact`].
///
/// # Errors
///
/// Returns the underlying codec error.
pub fn decode_trace_artifact(bytes: &[u8]) -> Result<TraceArtifact, BinCodecError> {
    let mut r = ByteReader::new(bytes);
    let n_traces = r.u32()? as usize;
    let mut traces = Vec::with_capacity(n_traces.min(1 << 10));
    for _ in 0..n_traces {
        traces.push(MasterTrace::from_bin(r.lp_bytes()?)?);
    }
    let n_pollable = r.u32()? as usize;
    let mut pollable = Vec::with_capacity(n_pollable.min(1 << 10));
    for _ in 0..n_pollable {
        let base = r.u32()?;
        let size = r.u32()?;
        pollable.push((base, size));
    }
    let n_calib = r.u32()? as usize;
    let mut calibration = Vec::with_capacity(n_calib.min(1 << 10));
    for _ in 0..n_calib {
        calibration.push(StochasticConfig::decode(&mut r)?);
    }
    let ref_cycles = r.u64()?;
    r.expect_end()?;
    Ok(TraceArtifact {
        traces,
        pollable,
        calibration,
        ref_cycles,
    })
}

/// Serialises an assembled TG image set for the store.
pub fn encode_images(images: &[TgImage]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(images.len() as u32);
    for img in images {
        w.lp_bytes(&img.to_bytes());
    }
    w.into_bytes()
}

/// Deserialises a TG image set written by [`encode_images`].
///
/// # Errors
///
/// Returns a description of the first malformed image.
pub fn decode_images(bytes: &[u8]) -> Result<Vec<TgImage>, String> {
    let mut r = ByteReader::new(bytes);
    let n = r.u32().map_err(|e| e.to_string())? as usize;
    let mut images = Vec::with_capacity(n.min(1 << 10));
    for i in 0..n {
        let img_bytes = r.lp_bytes().map_err(|e| e.to_string())?;
        images.push(TgImage::from_bytes(img_bytes).map_err(|e| format!("image {i}: {e}"))?);
    }
    r.expect_end().map_err(|e| e.to_string())?;
    Ok(images)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntg_core::{GapDistribution, TgInstr, TgReg};
    use ntg_trace::TraceEvent;

    fn tmp_store(name: &str) -> DiskStore {
        let base = std::env::temp_dir()
            .join("ntg-store-unit")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        DiskStore::open(base).unwrap()
    }

    fn sample_artifact() -> TraceArtifact {
        let mut trace = MasterTrace::new(0, 5);
        trace.events = vec![
            TraceEvent::Request {
                cmd: ntg_ocp::OcpCmd::Read,
                addr: 0x104,
                data: vec![].into(),
                burst: 1,
                at: 10,
            },
            TraceEvent::Accept { at: 15 },
            TraceEvent::Response {
                data: vec![7].into(),
                at: 30,
            },
        ];
        trace.halt_at = Some(100);
        TraceArtifact {
            traces: vec![trace],
            pollable: vec![(0x1b00_0000, 0x100)],
            calibration: vec![StochasticConfig {
                seed: 0,
                ranges: vec![(0x1000, 0x100)],
                write_fraction: 0.25,
                burst_fraction: 0.5,
                gap: GapDistribution::Geometric { mean: 9 },
                transactions: 3,
            }],
            ref_cycles: 4321,
        }
    }

    fn artifacts_equal(a: &TraceArtifact, b: &TraceArtifact) -> bool {
        a.traces == b.traces
            && a.pollable == b.pollable
            && a.calibration == b.calibration
            && a.ref_cycles == b.ref_cycles
    }

    #[test]
    fn trace_artifact_round_trips() {
        let a = sample_artifact();
        let back = decode_trace_artifact(&encode_trace_artifact(&a)).unwrap();
        assert!(artifacts_equal(&a, &back));
    }

    #[test]
    fn images_round_trip() {
        let images = vec![
            TgImage {
                master: 0,
                thread: 0,
                inits: vec![(TgReg::new(2), 0x104)],
                instrs: vec![TgInstr::Idle { cycles: 3 }, TgInstr::Halt],
            },
            TgImage::default(),
        ];
        assert_eq!(decode_images(&encode_images(&images)).unwrap(), images);
    }

    /// Every possible truncation of a valid payload must come back as
    /// an error — the decoders sit behind the corruption firewall and
    /// can never be allowed to panic on hostile bytes.
    #[test]
    fn truncated_payloads_error_and_never_panic() {
        let trace_bytes = encode_trace_artifact(&sample_artifact());
        for len in 0..trace_bytes.len() {
            assert!(
                decode_trace_artifact(&trace_bytes[..len]).is_err(),
                "truncation at {len}/{} must not decode",
                trace_bytes.len()
            );
        }
        let image_bytes = encode_images(&[TgImage {
            master: 1,
            thread: 0,
            inits: vec![(TgReg::new(2), 0x104)],
            instrs: vec![TgInstr::Idle { cycles: 3 }, TgInstr::Halt],
        }]);
        for len in 0..image_bytes.len() {
            assert!(
                decode_images(&image_bytes[..len]).is_err(),
                "truncation at {len}/{} must not decode",
                image_bytes.len()
            );
        }
    }

    /// A flipped byte anywhere in a framed entry (including the
    /// FNV-1a trailer itself) fails checksum verification.
    #[test]
    fn flipped_entry_bytes_fail_verification() {
        let entry = encode_entry("trace|wk|2P|amba|trc1", b"payload-bytes");
        assert!(verify_entry(&entry).is_ok());
        for pos in [0, entry.len() / 2, entry.len() - 1] {
            let mut bad = entry.clone();
            bad[pos] ^= 0x40;
            let err = verify_entry(&bad).unwrap_err();
            assert!(
                err.contains("checksum") || err.contains("magic"),
                "flip at {pos}: unexpected error `{err}`"
            );
        }
        // decode_entry treats the same malformations as a miss, not an
        // error — the store rebuilds instead of failing the campaign.
        let mut bad = entry;
        let len = bad.len();
        bad[len - 1] ^= 0x40;
        assert_eq!(decode_entry(&bad, "trace|wk|2P|amba|trc1"), None);
    }

    /// An entry from a future (or past) store format version is
    /// rejected even when its checksum is intact.
    #[test]
    fn wrong_format_version_is_rejected() {
        let mut w = ByteWriter::new();
        w.bytes(&STORE_ENTRY_MAGIC);
        w.u32(STORE_FORMAT_VERSION + 1);
        w.lp_bytes(b"some-key");
        w.lp_bytes(b"payload");
        let entry = w.finish_checksummed();
        let err = verify_entry(&entry).unwrap_err();
        assert!(err.contains("format"), "{err}");
        assert_eq!(decode_entry(&entry, "some-key"), None);
    }

    /// A checksummed frame whose embedded key differs from the
    /// requested one (an FNV-64 filename collision) reads as absent,
    /// while `verify_entry` surfaces the embedded key to the caller.
    #[test]
    fn key_mismatch_is_a_miss_not_a_hit() {
        let entry = encode_entry("key-a", b"payload");
        assert_eq!(decode_entry(&entry, "key-b"), None);
        let (key, payload) = verify_entry(&entry).unwrap();
        assert_eq!(key, "key-a");
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn save_load_round_trips_and_touches_marker() {
        let store = tmp_store("roundtrip");
        assert_eq!(store.load(StoreKind::Trace, "k1"), None);
        store.save(StoreKind::Trace, "k1", b"payload").unwrap();
        assert_eq!(store.load(StoreKind::Trace, "k1").unwrap(), b"payload");
        assert!(store.size_bytes() > 0);
    }

    #[test]
    fn distinct_kinds_and_keys_do_not_collide() {
        let store = tmp_store("kinds");
        store.save(StoreKind::Trace, "k", b"t").unwrap();
        store.save(StoreKind::Image, "k", b"i").unwrap();
        assert_eq!(store.load(StoreKind::Trace, "k").unwrap(), b"t");
        assert_eq!(store.load(StoreKind::Image, "k").unwrap(), b"i");
        assert_eq!(store.load(StoreKind::Trace, "other"), None);
    }

    #[test]
    fn corrupt_entry_degrades_to_miss_and_is_deleted() {
        let store = tmp_store("corrupt");
        store.save(StoreKind::Image, "k", b"payload").unwrap();
        let path = store.entry_path(StoreKind::Image, "k");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(StoreKind::Image, "k"), None);
        assert!(!path.exists(), "corrupt entry is removed");
        // And a truncated file likewise.
        store.save(StoreKind::Image, "k", b"payload").unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.load(StoreKind::Image, "k"), None);
    }

    #[test]
    fn get_or_build_builds_once_then_hits() {
        let store = tmp_store("buildonce");
        let mut builds = 0;
        let (payload, from_disk) = store
            .get_or_build(StoreKind::Trace, "k", || {
                builds += 1;
                Ok(b"abc".to_vec())
            })
            .unwrap();
        assert_eq!(
            (payload.as_slice(), from_disk, builds),
            (&b"abc"[..], false, 1)
        );
        let (payload, from_disk) = store
            .get_or_build(StoreKind::Trace, "k", || {
                unreachable!("second lookup must hit")
            })
            .unwrap();
        assert_eq!((payload.as_slice(), from_disk), (&b"abc"[..], true));
    }

    #[test]
    fn build_errors_release_the_lock() {
        let store = tmp_store("builderr");
        let err = store
            .get_or_build(StoreKind::Trace, "k", || Err("boom".into()))
            .unwrap_err();
        assert_eq!(err, "boom");
        // The key is buildable again (lock was released, nothing
        // published).
        let (_, from_disk) = store
            .get_or_build(StoreKind::Trace, "k", || Ok(vec![1]))
            .unwrap();
        assert!(!from_disk);
    }

    #[test]
    fn fresh_foreign_lock_reports_busy_until_released() {
        // std cannot backdate an mtime, so the stale horizon itself is
        // not unit-testable here; this pins the two reachable answers —
        // a fresh foreign lock parks the caller, a released lock is
        // takable.
        let store = tmp_store("lockbusy");
        let lock = lock_path(&store.entry_path(StoreKind::Trace, "k"));
        fs::write(&lock, b"dead\n").unwrap();
        assert!(store.try_lock(StoreKind::Trace, "k").unwrap().is_none());
        let _ = fs::remove_file(&lock);
        assert!(store.try_lock(StoreKind::Trace, "k").unwrap().is_some());
    }

    #[test]
    fn concurrent_get_or_build_publishes_exactly_one_entry() {
        let store = tmp_store("concurrent");
        let store = std::sync::Arc::new(store);
        let built = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let store = store.clone();
                let built = built.clone();
                s.spawn(move || {
                    let (payload, _) = store
                        .get_or_build(StoreKind::Image, "k", || {
                            built.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(30));
                            Ok(b"same-bytes".to_vec())
                        })
                        .unwrap();
                    assert_eq!(payload, b"same-bytes");
                });
            }
        });
        assert_eq!(built.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn gc_prunes_least_recently_used_first() {
        let store = tmp_store("gc");
        store.save(StoreKind::Trace, "old", &[0u8; 100]).unwrap();
        store.save(StoreKind::Trace, "mid", &[0u8; 100]).unwrap();
        store.save(StoreKind::Trace, "hot", &[0u8; 100]).unwrap();
        // Space the markers out: filesystem mtime granularity can be
        // coarse, so make the "hot" touch unambiguously newest.
        std::thread::sleep(Duration::from_millis(30));
        assert!(store.load(StoreKind::Trace, "hot").is_some());
        let total = store.size_bytes();
        // A dry run reports the same eviction plan without removing
        // anything.
        let preview = store.gc(total - 1, true);
        assert!(preview.removed >= 1);
        assert_eq!(store.size_bytes(), total, "dry run must not delete");
        let stats = store.gc(total - 1, false); // force at least one eviction
        assert_eq!(stats, preview, "dry run predicts the real gc exactly");
        assert!(stats.removed >= 1);
        assert_eq!(stats.remaining_bytes, store.size_bytes());
        assert!(
            store.load(StoreKind::Trace, "hot").is_some(),
            "most recently used entry survives"
        );
        // A zero budget clears everything.
        let stats = store.gc(0, false);
        assert_eq!(stats.remaining_bytes, 0);
        assert_eq!(store.size_bytes(), 0);
    }
}
