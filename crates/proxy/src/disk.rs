//! The proxy's crash-safe persistent disk tier (DESIGN.md §10).
//!
//! A path-per-document store beneath the sharded memory LRU: every
//! origin-fetched document is written through to
//! `<root>/<md5(url)>.doc`, and a restarted proxy re-opens the same root
//! and comes back *warm*. The design trades write-time ceremony for
//! read-time verification:
//!
//! * **No fsync, no temp-file rename.** A write goes straight to the
//!   final path. A crash mid-write leaves a torn file — and that is fine,
//!   because…
//! * **…every disk read is verified** before a byte is served: magic,
//!   lengths, the stored URL, the MD5 digest, and the §6.1 watermark
//!   signature must all check out. A torn, truncated, or bit-flipped file
//!   fails verification, is deleted on the spot (self-heal), and the
//!   request falls through to the origin path — wrong bytes are never
//!   served, exactly the browser-side `410 Gone` discipline.
//! * **TTL freshness + revalidation** replaces the memory tier's implicit
//!   fresh-until-invalidated model: a disk entry older than its TTL is
//!   not served directly; the proxy revalidates it against the origin
//!   with a conditional `If-Digest` GET (`304 Not Modified` refreshes the
//!   stamp for the cost of a header exchange).
//!
//! Lock discipline matches the rest of the proxy: the in-memory index
//! (one byte-budgeted LRU keyed by URL, each entry carrying its metadata)
//! lives behind one mutex, and **no file I/O ever happens while it is
//! held** — lookups copy the metadata out, writes prepare the full file
//! image first.
//! Concurrent writers to the same URL can interleave (the OS gives no
//! atomicity promise for overlapping writes); a torn result is caught by
//! the same read-time verification and self-heals.

use crate::protocol::read_body;
use crate::store::CachedDoc;
use baps_cache::ByteLru;
use baps_crypto::{md5, verify_hashed, Digest, PublicKey, Watermark};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// File-format magic: "BAPS DisK v01". Bump the trailing digits on any
/// layout change; old files then fail verification and self-heal.
const MAGIC: &[u8; 8] = b"BAPSDK01";
/// Fixed header: magic(8) + url_len(4) + body_len(8) + stored_at(8) +
/// ttl_secs(8) + md5(16) + watermark(32).
const HEADER_LEN: usize = 84;
/// Byte offset of the `stored_at` stamp, re-written in place on
/// revalidation.
const STORED_AT_OFFSET: u64 = 20;

/// Disk-tier configuration.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Directory holding the document files (created if absent). Point a
    /// restarted proxy at the same root to come back warm.
    pub root: PathBuf,
    /// Capacity in body bytes (LRU-evicted beyond this).
    pub capacity: u64,
    /// Freshness lifetime of a disk entry. Entries older than this are
    /// revalidated against the origin before being served.
    pub default_ttl: Duration,
}

/// A verified document read from the disk tier.
pub struct DiskHit {
    /// The document, watermark included (verified against the proxy key).
    pub doc: CachedDoc,
    /// MD5 of the body, from the one hash the read made — what a
    /// revalidation sends (as hex) in `If-Digest`.
    pub digest: Digest,
    /// Whether the entry is within its TTL. Stale entries must be
    /// revalidated before serving.
    pub fresh: bool,
}

/// Point-in-time snapshot of the disk tier's counters and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Documents currently stored.
    pub entries: u64,
    /// Body bytes currently stored (header overhead excluded, matching
    /// [`CachedDoc::byte_size`] so memory and disk gauges are comparable).
    pub bytes: u64,
    /// Reads that returned a verified, fresh document.
    pub hits: u64,
    /// Reads that returned a verified but TTL-expired document (the
    /// caller revalidates).
    pub stale: u64,
    /// Reads that found nothing under the URL.
    pub misses: u64,
    /// Documents written through to disk.
    pub writes: u64,
    /// Body bytes written through to disk.
    pub write_bytes: u64,
    /// Corrupt or torn files detected by read-time verification and
    /// deleted (self-heals). Also counts unreadable files dropped at
    /// [`DiskTier::open`].
    pub heals: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Write or delete attempts that failed at the filesystem level
    /// (the tier degrades to a smaller cache, never to an error).
    pub io_errors: u64,
}

#[derive(Debug, Clone, Copy)]
struct Meta {
    size: u64,
    stored_at: u64,
    ttl_secs: u64,
}

/// What [`DiskTier::find`] found for a URL, for [`DiskTier::read`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry(Meta);

/// In-memory picture of what is on disk: one byte-budgeted LRU keyed by
/// URL, each entry carrying its metadata. File I/O never happens under
/// its lock.
type DiskIndex = ByteLru<Arc<str>, Meta>;

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    stale: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    heals: AtomicU64,
    evictions: AtomicU64,
    io_errors: AtomicU64,
}

/// The persistent disk tier. See the module docs for the design.
pub struct DiskTier {
    root: PathBuf,
    key: PublicKey,
    default_ttl: Duration,
    inner: Mutex<DiskIndex>,
    counters: Counters,
}

impl DiskTier {
    /// Opens (or creates) the tier rooted at `config.root`, scanning any
    /// existing document files so a restarted proxy starts warm. Files
    /// whose headers do not parse are deleted during the scan; body
    /// verification is deferred to first read, so opening stays cheap.
    /// Surviving entries enter the LRU oldest-first, so the byte budget
    /// evicts the oldest documents if the capacity shrank.
    pub fn open(config: DiskConfig, key: PublicKey) -> io::Result<DiskTier> {
        fs::create_dir_all(&config.root)?;
        let tier = DiskTier {
            root: config.root,
            key,
            default_ttl: config.default_ttl,
            inner: Mutex::new(DiskIndex::new(config.capacity)),
            counters: Counters::default(),
        };
        let mut found: Vec<(String, Meta)> = Vec::new();
        for entry in fs::read_dir(&tier.root)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("doc") {
                continue;
            }
            match read_header(&path) {
                Ok((url, meta)) => found.push((url, meta)),
                Err(_) => {
                    // Unparseable header (torn write mid-crash, stray
                    // file): drop it now rather than on first read.
                    tier.counters.heals.fetch_add(1, Ordering::Relaxed);
                    let _ = fs::remove_file(&path);
                }
            }
        }
        found.sort_by_key(|(_, m)| m.stored_at);
        // Deleting under the lock would break the discipline, so the files
        // of entries the budget evicted or rejected (rare: only on a
        // shrunk capacity) go in a second pass: whatever the index does
        // not name.
        let keep: HashSet<PathBuf> = {
            let mut index = tier.inner.lock();
            for (url, meta) in found {
                index.insert(url.into(), meta.size, meta);
            }
            index
                .iter_mru()
                .map(|(url, _)| entry_path(&tier.root, url))
                .collect()
        };
        for entry in fs::read_dir(&tier.root)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("doc") && !keep.contains(&path) {
                tier.counters.evictions.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
            }
        }
        Ok(tier)
    }

    /// Looks up `url`, verifying the file end to end (magic, lengths,
    /// URL, MD5 digest, watermark signature). Returns `None` on a miss
    /// *or* on any verification failure — in the latter case the file is
    /// deleted and the entry dropped, so a torn write self-heals to the
    /// origin path instead of ever serving wrong bytes.
    pub fn load(&self, url: &str) -> Option<DiskHit> {
        self.read(url, self.find(url)?)
    }

    /// The first half of [`load`](Self::load): the tier's entry for `url`
    /// from the in-memory index (touched in the LRU; a miss is counted).
    /// No file is touched, so an event loop may call this and keep a miss
    /// to itself; the entry goes to [`read`](Self::read), on a thread that
    /// may block.
    pub(crate) fn find(&self, url: &str) -> Option<Entry> {
        let found = self.inner.lock().get(url).copied();
        if found.is_none() {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
        }
        found.map(Entry)
    }

    /// The second half of [`load`](Self::load): reads and verifies the
    /// file behind an entry [`find`](Self::find) returned for `url`.
    pub(crate) fn read(&self, url: &str, Entry(meta): Entry) -> Option<DiskHit> {
        // File I/O strictly outside the lock.
        let path = entry_path(&self.root, url);
        match read_verified(&path, url, &self.key) {
            Ok((doc, digest)) => {
                let fresh = now_unix() < meta.stored_at.saturating_add(meta.ttl_secs);
                if fresh {
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.counters.stale.fetch_add(1, Ordering::Relaxed);
                }
                Some(DiskHit { doc, digest, fresh })
            }
            Err(_) => {
                // Verification failed: self-heal by dropping the entry.
                self.counters.heals.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                if fs::remove_file(&path).is_err() {
                    self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                }
                self.inner.lock().remove(url);
                None
            }
        }
    }

    /// Writes `doc` through to disk under `url` with the default TTL.
    /// Best-effort: a filesystem error shrinks the tier (counted in
    /// [`DiskStats::io_errors`]) but never fails the request.
    pub fn store(&self, url: &str, doc: &CachedDoc) {
        self.store_hashed(url, doc, &md5(&doc.body));
    }

    /// [`DiskTier::store`] for a caller that already hashed the body on
    /// this hop; `digest` must be `md5(&doc.body)`.
    pub(crate) fn store_hashed(&self, url: &str, doc: &CachedDoc, digest: &Digest) {
        let size = doc.byte_size();
        let meta = Meta {
            size,
            stored_at: now_unix(),
            ttl_secs: self.default_ttl.as_secs(),
        };
        // Prepare the complete file image, then write it outside the
        // lock. No fsync and no rename: a crash mid-write leaves a file
        // that fails read-time verification and self-heals.
        let path = entry_path(&self.root, url);
        if fs::write(&path, encode_entry(url, doc, digest, &meta)).is_err() {
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            let _ = fs::remove_file(&path);
            return;
        }
        let key: Arc<str> = url.into();
        let out = self.inner.lock().insert(key, size, meta);
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.counters.write_bytes.fetch_add(size, Ordering::Relaxed);
        self.counters
            .evictions
            .fetch_add(out.evicted.len() as u64, Ordering::Relaxed);
        // Victim files are deleted after the lock is released.
        for (victim, _) in &out.evicted {
            if fs::remove_file(entry_path(&self.root, victim)).is_err() {
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !out.admitted {
            // Too large for the budget: drop the file we just wrote.
            let _ = fs::remove_file(&path);
        }
    }

    /// Re-stamps `url` as freshly validated (after a `304 Not Modified`
    /// from the origin): the `stored_at` field is rewritten in place, so
    /// a revalidation costs eight bytes of I/O, not a full rewrite.
    pub fn refresh(&self, url: &str) {
        self.stamp(url, now_unix());
    }

    /// Expires `url` in place: the entry is kept (bytes, digest and
    /// watermark stay valid) but its `stored_at` is stamped to zero, so
    /// the next read sees it stale and must revalidate against the origin
    /// with `If-Digest` before serving. This is the invalidation-storm
    /// path: a publisher update must force a revalidation, but an
    /// unchanged document should still come back as a cheap `304` rather
    /// than a refetch. Returns whether an entry was expired.
    pub fn expire(&self, url: &str) -> bool {
        self.stamp(url, 0)
    }

    /// Sets the `stored_at` of `url`'s entry, in the index and then (lock
    /// released) in the file's header. Returns whether the tier holds
    /// `url`.
    fn stamp(&self, url: &str, stored_at: u64) -> bool {
        match self.inner.lock().peek_mut(url) {
            Some(meta) => meta.stored_at = stored_at,
            None => return false,
        }
        let restamp = || -> io::Result<()> {
            let mut file = fs::OpenOptions::new()
                .write(true)
                .open(entry_path(&self.root, url))?;
            file.seek(SeekFrom::Start(STORED_AT_OFFSET))?;
            file.write_all(&stored_at.to_le_bytes())
        };
        if restamp().is_err() {
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Drops `url` from the tier (e.g. the origin 404'd a revalidation:
    /// the document is gone and the stale copy must not outlive it).
    /// Returns whether an entry was removed.
    pub fn remove(&self, url: &str) -> bool {
        let removed = self.inner.lock().remove(url).is_some();
        if removed {
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            if fs::remove_file(entry_path(&self.root, url)).is_err() {
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        removed
    }

    /// Documents currently stored.
    pub fn entries(&self) -> u64 {
        self.inner.lock().len() as u64
    }

    /// Body bytes currently stored.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().used()
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> DiskStats {
        let (entries, bytes) = {
            let inner = self.inner.lock();
            (inner.len() as u64, inner.used())
        };
        DiskStats {
            entries,
            bytes,
            hits: self.counters.hits.load(Ordering::Relaxed),
            stale: self.counters.stale.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
            write_bytes: self.counters.write_bytes.load(Ordering::Relaxed),
            heals: self.counters.heals.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            io_errors: self.counters.io_errors.load(Ordering::Relaxed),
        }
    }

    /// The directory this tier stores documents under.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

/// The file a document is stored under: `<root>/<md5(url)>.doc`. Exposed
/// so crash tests can corrupt a specific entry the way a torn write
/// would.
pub fn entry_path(root: &Path, url: &str) -> PathBuf {
    root.join(format!("{}.doc", md5(url.as_bytes()).to_hex()))
}

fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Serializes one document file: fixed header, then URL, then body.
fn encode_entry(url: &str, doc: &CachedDoc, digest: &Digest, meta: &Meta) -> Vec<u8> {
    let url_bytes = url.as_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + url_bytes.len() + doc.body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(url_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&(doc.body.len() as u64).to_le_bytes());
    out.extend_from_slice(&meta.stored_at.to_le_bytes());
    out.extend_from_slice(&meta.ttl_secs.to_le_bytes());
    out.extend_from_slice(&digest.0);
    out.extend_from_slice(&doc.watermark.to_bytes());
    out.extend_from_slice(url_bytes);
    out.extend_from_slice(&doc.body);
    out
}

/// Opens a document file and reads its fixed header and URL, leaving the
/// file positioned at the body. Checks the magic and that the file length
/// matches the recorded lengths exactly — a truncated (torn) file fails
/// here, before anything is allocated for either length.
fn open_entry(path: &Path) -> io::Result<(fs::File, [u8; HEADER_LEN], Vec<u8>, Meta)> {
    let mut file = fs::File::open(path)?;
    let actual_len = file.metadata()?.len();
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header)?;
    let (url_len, meta) = parse_header(&header)?;
    if actual_len != (HEADER_LEN + url_len) as u64 + meta.size {
        return Err(bad("file length does not match header"));
    }
    let mut url = vec![0u8; url_len];
    file.read_exact(&mut url)?;
    Ok((file, header, url, meta))
}

/// Parses only the fixed header and URL of a document file (the cheap
/// open-time scan).
fn read_header(path: &Path) -> io::Result<(String, Meta)> {
    let (_, _, url, meta) = open_entry(path)?;
    let url = String::from_utf8(url).map_err(|_| bad("URL is not UTF-8"))?;
    Ok((url, meta))
}

fn parse_header(header: &[u8; HEADER_LEN]) -> io::Result<(usize, Meta)> {
    if &header[..8] != MAGIC {
        return Err(bad("bad magic"));
    }
    let url_len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    let body_len = u64::from_le_bytes(header[12..20].try_into().unwrap());
    let stored_at = u64::from_le_bytes(header[20..28].try_into().unwrap());
    let ttl_secs = u64::from_le_bytes(header[28..36].try_into().unwrap());
    if body_len > crate::protocol::MAX_BODY as u64 {
        return Err(bad("body length exceeds protocol maximum"));
    }
    Ok((
        url_len,
        Meta {
            size: body_len,
            stored_at,
            ttl_secs,
        },
    ))
}

/// Reads and fully verifies one document file. Every failure mode — short
/// file, wrong magic, URL mismatch (hash collision or renamed file),
/// digest mismatch, bad watermark signature — comes back as an error so
/// the caller can self-heal.
///
/// The body is read once, straight into the allocation the returned
/// document shares with every later holder, and hashed once: that one
/// digest is compared with the header's (catches a torn or bit-rotted
/// body), checked against the watermark signature (catches anything the
/// proxy's key did not sign, a rewritten header digest included), and
/// handed back for `If-Digest`.
fn read_verified(path: &Path, url: &str, key: &PublicKey) -> io::Result<(CachedDoc, Digest)> {
    let (mut file, header, stored_url, meta) = open_entry(path)?;
    if stored_url != url.as_bytes() {
        return Err(bad("stored URL does not match"));
    }
    let watermark =
        Watermark::from_bytes(&header[52..84]).map_err(|_| bad("unparseable watermark"))?;
    let body = read_body(&mut file, meta.size as usize)?;
    let digest = md5(&body);
    if digest.0 != header[36..52] {
        return Err(bad("digest mismatch"));
    }
    // The watermark signature binds the body to the proxy's key — the
    // same end-to-end check browsers run, applied at the disk boundary.
    verify_hashed(key, &digest, &watermark).map_err(|_| bad("watermark verification failed"))?;
    Ok((CachedDoc { body, watermark }, digest))
}

fn bad(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baps_crypto::ProxySigner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn signer() -> ProxySigner {
        ProxySigner::generate(&mut StdRng::seed_from_u64(0xd15c))
    }

    fn doc(signer: &ProxySigner, body: &[u8]) -> CachedDoc {
        CachedDoc {
            body: body.into(),
            watermark: signer.watermark(body),
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("baps-disk-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    fn tier(root: &Path, capacity: u64, ttl: Duration, key: PublicKey) -> DiskTier {
        DiskTier::open(
            DiskConfig {
                root: root.to_path_buf(),
                capacity,
                default_ttl: ttl,
            },
            key,
        )
        .unwrap()
    }

    #[test]
    fn store_load_roundtrip_fresh() {
        let sg = signer();
        let root = temp_root("roundtrip");
        let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
        let d = doc(&sg, b"persistent body");
        t.store("http://origin/doc/1", &d);
        let hit = t.load("http://origin/doc/1").expect("stored entry loads");
        assert_eq!(&hit.doc.body[..], b"persistent body");
        assert_eq!(hit.doc.watermark, d.watermark);
        assert!(hit.fresh);
        assert_eq!(hit.digest, md5(b"persistent body"));
        let s = t.stats();
        assert_eq!((s.entries, s.bytes), (1, 15));
        assert_eq!((s.hits, s.misses, s.writes), (1, 0, 1));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_url_is_a_miss() {
        let sg = signer();
        let root = temp_root("miss");
        let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
        assert!(t.load("http://origin/doc/none").is_none());
        assert_eq!(t.stats().misses, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_is_warm() {
        let sg = signer();
        let root = temp_root("reopen");
        {
            let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
            t.store("http://origin/doc/1", &doc(&sg, b"survives restart"));
        }
        let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
        assert_eq!(t.entries(), 1);
        assert_eq!(t.bytes(), 16);
        let hit = t.load("http://origin/doc/1").expect("warm after reopen");
        assert_eq!(&hit.doc.body[..], b"survives restart");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn ttl_expiry_marks_stale() {
        let sg = signer();
        let root = temp_root("ttl");
        let t = tier(&root, 1 << 20, Duration::ZERO, sg.public_key());
        t.store("u", &doc(&sg, b"expires instantly"));
        let hit = t.load("u").expect("stale entries still load");
        assert!(!hit.fresh);
        assert_eq!(t.stats().stale, 1);
        // Refresh re-stamps it fresh (with the tier's TTL — still zero
        // here, so use a tier with a real TTL to see it flip).
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn refresh_restamps_fresh_and_survives_reopen() {
        let sg = signer();
        let root = temp_root("refresh");
        {
            let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
            t.store("u", &doc(&sg, b"revalidated"));
            // Age the entry on disk by rewriting its stamp to the epoch.
            let path = entry_path(&root, "u");
            let mut file = fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.seek(SeekFrom::Start(STORED_AT_OFFSET)).unwrap();
            file.write_all(&0u64.to_le_bytes()).unwrap();
        }
        let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
        assert!(!t.load("u").unwrap().fresh, "aged entry reads stale");
        t.refresh("u");
        assert!(t.load("u").unwrap().fresh, "refresh re-stamps in memory");
        drop(t);
        let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
        assert!(
            t.load("u").unwrap().fresh,
            "refresh re-stamped the file too"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_file_self_heals() {
        let sg = signer();
        let root = temp_root("torn");
        let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
        t.store("u", &doc(&sg, b"this write will be torn apart"));
        let path = entry_path(&root, "u");
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        assert!(t.load("u").is_none(), "torn file must not serve");
        assert!(!path.exists(), "torn file is deleted");
        assert_eq!(t.stats().heals, 1);
        assert_eq!(t.entries(), 0);
        // The next store works normally.
        t.store("u", &doc(&sg, b"rewritten"));
        assert_eq!(&t.load("u").unwrap().doc.body[..], b"rewritten");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bitflip_fails_watermark_and_self_heals() {
        let sg = signer();
        let root = temp_root("bitflip");
        let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
        t.store("u", &doc(&sg, b"integrity protected"));
        let path = entry_path(&root, "u");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one body bit
        fs::write(&path, &bytes).unwrap();
        assert!(t.load("u").is_none(), "corrupted body must not serve");
        assert!(!path.exists());
        assert_eq!(t.stats().heals, 1);
        let _ = fs::remove_dir_all(&root);
    }

    /// A *consistent* forgery: the body is replaced and the header's
    /// digest field rewritten to match it, with the old watermark kept.
    /// The digest comparison passes, so only the signature check stands
    /// between the forged bytes and a client — a read path that hashed
    /// once and dropped either check would serve them.
    #[test]
    fn consistent_forgery_fails_signature_and_self_heals() {
        let sg = signer();
        let root = temp_root("forgery");
        let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
        t.store("u", &doc(&sg, b"what the proxy signed"));
        let path = entry_path(&root, "u");
        let mut bytes = fs::read(&path).unwrap();
        let body_at = bytes.len() - b"what the proxy signed".len();
        bytes[body_at..].copy_from_slice(b"what an attacker put!");
        let forged_digest = md5(&bytes[body_at..]);
        bytes[36..52].copy_from_slice(&forged_digest.0);
        fs::write(&path, &bytes).unwrap();

        let err = read_verified(&path, "u", &sg.public_key()).expect_err("forgery must not verify");
        assert_eq!(err.to_string(), "watermark verification failed");
        assert!(t.load("u").is_none(), "forged body must not serve");
        assert!(!path.exists(), "forged file is deleted");
        let s = t.stats();
        assert_eq!((s.heals, s.misses, s.hits, s.entries), (1, 1, 0, 0));
        let _ = fs::remove_dir_all(&root);
    }

    /// `store` is `md5` + `store_hashed`: both leave the same file.
    #[test]
    fn store_equals_hash_then_store_hashed() {
        let sg = signer();
        let root = temp_root("storehashed");
        let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
        let d = doc(&sg, b"hashed by the caller");
        t.store("a", &d);
        t.store_hashed("b", &d, &md5(&d.body));
        let (a, b) = (t.load("a").unwrap(), t.load("b").unwrap());
        assert_eq!(a.doc, b.doc);
        assert_eq!(a.digest, b.digest);
        assert_eq!(
            Arc::strong_count(&a.doc.body),
            1,
            "the read is the only holder"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_key_fails_verification() {
        let sg = signer();
        let other = ProxySigner::generate(&mut StdRng::seed_from_u64(999));
        let root = temp_root("wrongkey");
        {
            let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
            t.store("u", &doc(&sg, b"signed by sg"));
        }
        // Reopened under a different proxy key: the watermark no longer
        // verifies, so the entry self-heals instead of serving.
        let t = tier(
            &root,
            1 << 20,
            Duration::from_secs(3600),
            other.public_key(),
        );
        assert!(t.load("u").is_none());
        assert_eq!(t.stats().heals, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn capacity_evicts_lru_and_deletes_files() {
        let sg = signer();
        let root = temp_root("evict");
        let t = tier(&root, 25, Duration::from_secs(3600), sg.public_key());
        t.store("u1", &doc(&sg, &[1u8; 10]));
        t.store("u2", &doc(&sg, &[2u8; 10]));
        t.load("u1"); // promote
        t.store("u3", &doc(&sg, &[3u8; 10])); // evicts u2
        assert!(t.load("u2").is_none());
        assert!(!entry_path(&root, "u2").exists(), "victim file deleted");
        assert!(t.load("u1").is_some());
        assert!(t.load("u3").is_some());
        let s = t.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (2, 20, 1));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn oversize_document_never_admitted() {
        let sg = signer();
        let root = temp_root("oversize");
        let t = tier(&root, 5, Duration::from_secs(3600), sg.public_key());
        t.store("big", &doc(&sg, &[0u8; 10]));
        assert_eq!(t.entries(), 0);
        assert!(!entry_path(&root, "big").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_scan_drops_unparseable_files() {
        let sg = signer();
        let root = temp_root("scan");
        {
            let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
            t.store("good", &doc(&sg, b"valid entry"));
        }
        // A torn write that died inside the header.
        fs::write(root.join("deadbeef.doc"), b"BAPSDK01 trunc").unwrap();
        // A stray non-entry file is left alone.
        fs::write(root.join("counters.baseline"), b"requests=0\n").unwrap();
        let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
        assert_eq!(t.entries(), 1);
        assert_eq!(t.stats().heals, 1);
        assert!(!root.join("deadbeef.doc").exists());
        assert!(root.join("counters.baseline").exists());
        assert!(t.load("good").is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn byte_accounting_matches_file_bodies() {
        let sg = signer();
        let root = temp_root("bytes");
        let t = tier(&root, 1 << 20, Duration::from_secs(3600), sg.public_key());
        let docs = [("a", 100usize), ("b", 333), ("c", 7)];
        for (url, n) in docs {
            t.store(url, &doc(&sg, &vec![0xabu8; n]));
        }
        let expect: u64 = docs.iter().map(|&(_, n)| n as u64).sum();
        assert_eq!(t.bytes(), expect);
        // The gauge equals the sum of byte_size over loaded entries.
        let loaded: u64 = docs
            .iter()
            .map(|&(url, _)| t.load(url).unwrap().doc.byte_size())
            .sum();
        assert_eq!(t.bytes(), loaded);
        let _ = fs::remove_dir_all(&root);
    }
}
