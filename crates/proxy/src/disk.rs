//! The proxy's crash-safe persistent disk tier (DESIGN.md §10).
//!
//! An append-only segment log beneath the sharded memory LRU: every
//! origin-fetched document is appended — an 84-byte self-describing
//! header, the URL, the body — to the head of a few always-open
//! `<root>/NNNNNNNN.seg` files, and a restarted proxy re-opens the same
//! root and comes back *warm*. The design trades write-time ceremony for
//! read-time verification:
//!
//! * **No fsync, no rename.** An append goes straight to the head
//!   segment. A crash mid-append leaves a torn tail — and that is fine,
//!   because…
//! * **…every disk read is verified** before a byte is served: magic,
//!   lengths, the stored URL, the MD5 digest, and the §6.1 watermark
//!   signature must all check out. A torn, truncated, or bit-flipped entry
//!   fails verification, is tombstoned on the spot (self-heal), and the
//!   request falls through to the origin path — wrong bytes are never
//!   served, exactly the browser-side `410 Gone` discipline.
//! * **TTL freshness + revalidation** replaces the memory tier's implicit
//!   fresh-until-invalidated model: a disk entry older than its TTL is
//!   not served directly; the proxy revalidates it against the origin
//!   with a conditional `If-Digest` GET (`304 Not Modified` refreshes the
//!   stamp for the cost of a header exchange).
//!
//! **What the tier holds** is decided by one byte-budgeted LRU keyed by
//! URL, exact per document over body bytes; each entry carries where its
//! bytes lie (segment, offset). An entry that leaves the index — evicted,
//! replaced, removed, healed — has its magic overwritten in place (a
//! *tombstone*: the lengths stay, so a scan steps over it and it cannot
//! come back after a restart); a sealed segment with nothing live left is
//! unlinked; and when dead bytes pass `capacity + 2 × segment` the sealed
//! segment with the fewest live bytes has them re-appended at the head and
//! is unlinked, which bounds the log's file bytes by `2 × capacity +
//! 2 × segment` plus the headers and URLs of what is live.
//!
//! **A read is one positional vectored read** of an already-open file, so
//! an event loop can make it with `RWF_NOWAIT`: bytes in the page cache
//! are verified and served in the same loop turn, anything else (cold
//! pages, a file system without `RWF_NOWAIT`, a large body, a failed
//! check) is the executor's, which repeats the same read allowed to block.
//! A loop never writes a file.
//!
//! Lock discipline: the index and the segment table live behind one
//! mutex, and **no file I/O ever happens while it is held** — lookups
//! copy the location and the open file out, writes prepare the full entry
//! image first. Every write to a file (append, tombstone, re-stamp, clean)
//! is made by the holder of a second mutex, the head segment's, taken
//! before the index's and never under it, so writers are serialized and
//! the cleaner moves entries nobody else is changing.

use crate::protocol::{zeroed_body, MAX_BODY};
use crate::store::CachedDoc;
use crate::sys::read_two_at;
use baps_cache::ByteLru;
use baps_crypto::{md5, verify_hashed, Digest, PublicKey, Watermark};
use parking_lot::Mutex;
use std::collections::{hash_map, BTreeMap, HashMap};
use std::fs::{self, File};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Entry magic: "BAPS DisK v01". Bump the trailing digits on any layout
/// change; old entries then end their segment's scan and self-heal.
const MAGIC: &[u8; 8] = b"BAPSDK01";
/// What replaces the magic of an entry that left the index.
const TOMBSTONE: &[u8; 8] = b"BAPSDEAD";
/// Fixed header: magic(8) + url_len(4) + body_len(8) + stored_at(8) +
/// ttl_secs(8) + md5(16) + watermark(32).
const HEADER_LEN: usize = 84;
/// Byte offset of the `stored_at` stamp within an entry, re-written in
/// place on revalidation.
const STORED_AT_OFFSET: usize = 20;
/// Nominal size of a segment file: the head is sealed before an append
/// would take it past this (an entry larger than this gets a segment to
/// itself).
const SEGMENT_BYTES: u64 = 4 << 20;
/// Longest URL an entry may carry: what a scan will allocate for a
/// `url_len` it has only checked against the file's length.
const MAX_URL_LEN: usize = 64 << 10;
/// Largest body an event loop reads and verifies itself: about 0.1 ms of
/// MD5, the longest a loop turn should spend on one request.
pub(crate) const INLINE_READ_MAX: u64 = 64 << 10;

/// Disk-tier configuration.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Directory holding the segment files (created if absent). Point a
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
    /// Bytes of the segment files: live entries with their headers and
    /// URLs, plus dead space not yet cleaned.
    pub file_bytes: u64,
    /// Segment files, the head included.
    pub segments: u64,
    /// Reads that returned a verified, fresh document.
    pub hits: u64,
    /// Reads that returned a verified but TTL-expired document (the
    /// caller revalidates).
    pub stale: u64,
    /// Reads that found nothing under the URL.
    pub misses: u64,
    /// Reads an event loop left to the executor: pages not in memory, a
    /// file system without `RWF_NOWAIT`, a body above the inline limit, or
    /// an entry that failed a check.
    pub reads_offloaded: u64,
    /// Documents written through to disk.
    pub writes: u64,
    /// Body bytes written through to disk.
    pub write_bytes: u64,
    /// Entry bytes the cleaner re-appended to free a segment.
    pub cleaned_bytes: u64,
    /// Corrupt or torn entries detected by read-time verification and
    /// tombstoned (self-heals). Also counts segments whose scan ended at
    /// an unreadable header at [`DiskTier::open`].
    pub heals: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Write or unlink attempts that failed at the filesystem level
    /// (the tier degrades to a smaller cache, never to an error).
    pub io_errors: u64,
}

/// Where an entry's bytes lie and how fresh they are; its size is the
/// LRU entry's own.
#[derive(Debug, Clone, Copy)]
struct Meta {
    segment: u32,
    offset: u64,
    stored_at: u64,
    ttl_secs: u64,
}

/// What [`DiskTier::find`] found for a URL, for [`DiskTier::read`].
#[derive(Debug)]
pub(crate) struct Entry {
    file: Arc<File>,
    size: u64,
    meta: Meta,
}

/// Who is reading: an event loop must not wait for the disk, an executor
/// thread may.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadVia {
    Loop,
    Executor,
}

impl ReadVia {
    pub(crate) fn name(self) -> &'static str {
        match self {
            ReadVia::Loop => "loop",
            ReadVia::Executor => "executor",
        }
    }
}

/// What [`DiskTier::read`] made of an entry.
pub(crate) enum ReadOutcome {
    /// Verified end to end.
    Hit(DiskHit),
    /// It failed a check and is tombstoned: a miss.
    Healed,
    /// Not for an event loop ([`ReadVia::Loop`] only): repeat the read on
    /// the executor.
    Deferred,
}

struct Segment {
    file: Arc<File>,
    /// Bytes appended so far (fixed once sealed).
    len: u64,
    /// Of those, bytes of entries the index names.
    live: u64,
}

/// In-memory picture of what is on disk: the LRU that decides what the
/// tier holds, and the open segment files its entries point into. File
/// I/O never happens under its lock.
struct Index {
    lru: ByteLru<Arc<str>, Meta>,
    segments: BTreeMap<u32, Segment>,
}

/// The segment being appended to. Its mutex is the write lock of the
/// whole log.
struct Head {
    id: u32,
    file: Arc<File>,
    len: u64,
}

/// An entry that left the index, for [`Index::retire`].
struct Dead {
    segment: u32,
    offset: u64,
    len: u64,
}

impl Dead {
    fn of(url: &str, size: u64, meta: &Meta) -> Dead {
        Dead {
            segment: meta.segment,
            offset: meta.offset,
            len: entry_len(url.len(), size),
        }
    }
}

/// The file work [`Index::retire`] leaves for when the lock is released.
struct Burial {
    tombstones: Vec<(Arc<File>, u64)>,
    emptied: Vec<u32>,
}

impl Index {
    fn file_bytes(&self) -> u64 {
        self.segments.values().map(|s| s.len).sum()
    }

    fn dead_bytes(&self) -> u64 {
        self.segments.values().map(|s| s.len - s.live).sum()
    }

    /// The open file of `segment`, which an indexed entry or the head
    /// names: such a segment is always in the table.
    fn file_of(&self, segment: u32) -> Arc<File> {
        Arc::clone(&self.segments[&segment].file)
    }

    /// Counts an entry of `len` bytes just appended to `head`.
    fn landed(&mut self, head: &Head, len: u64) {
        let segment = self.segments.get_mut(&head.id);
        let segment = segment.expect("the head segment is in the table");
        segment.len = head.len;
        segment.live += len;
    }

    /// Takes `dead` out of the live accounting and every sealed segment
    /// left with nothing live out of the table.
    fn retire(&mut self, head: u32, dead: &[Dead]) -> Burial {
        for d in dead {
            if let Some(segment) = self.segments.get_mut(&d.segment) {
                segment.live -= d.len;
            }
        }
        let emptied: Vec<u32> = self
            .segments
            .iter()
            .filter(|&(&id, s)| id != head && s.live == 0)
            .map(|(&id, _)| id)
            .collect();
        for id in &emptied {
            self.segments.remove(id);
        }
        let tombstones = dead
            .iter()
            .filter_map(|d| Some((Arc::clone(&self.segments.get(&d.segment)?.file), d.offset)))
            .collect();
        Burial {
            tombstones,
            emptied,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    stale: AtomicU64,
    misses: AtomicU64,
    reads_offloaded: AtomicU64,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    cleaned_bytes: AtomicU64,
    heals: AtomicU64,
    evictions: AtomicU64,
    io_errors: AtomicU64,
}

/// The persistent disk tier. See the module docs for the design.
pub struct DiskTier {
    root: PathBuf,
    key: PublicKey,
    default_ttl: Duration,
    capacity: u64,
    segment_bytes: u64,
    /// Taken before `index`, never under it.
    head: Mutex<Head>,
    index: Mutex<Index>,
    counters: Counters,
}

impl DiskTier {
    /// Opens (or creates) the tier rooted at `config.root`, scanning any
    /// existing segments header to header so a restarted proxy starts
    /// warm: of two entries for one URL the later wins, a header that does
    /// not parse or overruns its file ends that segment's scan (a heal),
    /// and body verification is deferred to first read, so opening stays
    /// cheap. Surviving entries enter the LRU oldest-first, so the byte
    /// budget evicts the oldest documents if the capacity shrank. Appends
    /// go to a fresh head segment, never behind a torn tail. Document
    /// files of the path-per-document layout are deleted.
    pub fn open(config: DiskConfig, key: PublicKey) -> io::Result<DiskTier> {
        DiskTier::open_with_segment_bytes(config, key, SEGMENT_BYTES)
    }

    /// [`open`](Self::open) with the nominal segment size a test wants.
    pub(crate) fn open_with_segment_bytes(
        config: DiskConfig,
        key: PublicKey,
        segment_bytes: u64,
    ) -> io::Result<DiskTier> {
        fs::create_dir_all(&config.root)?;
        let (ids, strays) = list_root(&config.root)?;
        for stray in strays {
            let _ = fs::remove_file(stray);
        }
        let counters = Counters::default();
        let mut segments = BTreeMap::new();
        let mut found: HashMap<String, (u64, Meta)> = HashMap::new();
        let mut dead = Vec::new();
        for &id in &ids {
            let file = open_segment(&config.root, id, false)?;
            let len = file.metadata()?.len();
            let mut scan = SegmentScan::new(&file, len);
            let mut live = 0;
            for entry in scan.by_ref().filter(|e| !e.header.dead) {
                live += entry.len();
                let latest = (
                    entry.header.body_len,
                    Meta {
                        segment: id,
                        offset: entry.offset,
                        stored_at: entry.header.stored_at,
                        ttl_secs: entry.header.ttl_secs,
                    },
                );
                match found.entry(entry.url) {
                    hash_map::Entry::Vacant(slot) => {
                        slot.insert(latest);
                    }
                    hash_map::Entry::Occupied(mut slot) => {
                        let (size, earlier) = slot.insert(latest);
                        dead.push(Dead::of(slot.key(), size, &earlier));
                    }
                }
            }
            if scan.torn {
                counters.heals.fetch_add(1, Ordering::Relaxed);
            }
            let file = Arc::new(file);
            segments.insert(id, Segment { file, len, live });
        }
        let head = Head::create(&config.root, ids.last().copied().unwrap_or(0))?;
        segments.insert(head.id, head.segment());

        let mut found: Vec<(String, (u64, Meta))> = found.into_iter().collect();
        found.sort_by_key(|(_, (_, m))| (m.stored_at, m.segment, m.offset));
        let mut lru = ByteLru::new(config.capacity);
        for (url, (size, meta)) in found {
            let url: Arc<str> = url.into();
            let out = lru.insert_with(Arc::clone(&url), size, meta, |url, size, meta| {
                dead.push(Dead::of(url, size, &meta));
            });
            let mut dropped = out.evicted.len() as u64;
            if !out.admitted {
                dead.push(Dead::of(&url, size, &meta));
                dropped += 1;
            }
            counters.evictions.fetch_add(dropped, Ordering::Relaxed);
        }
        let mut index = Index { lru, segments };
        let burial = index.retire(head.id, &dead);
        let tier = DiskTier {
            root: config.root,
            key,
            default_ttl: config.default_ttl,
            capacity: config.capacity,
            segment_bytes,
            head: Mutex::new(head),
            index: Mutex::new(index),
            counters,
        };
        tier.settle(&mut tier.head.lock(), burial);
        Ok(tier)
    }

    /// Looks up `url`, verifying the entry end to end (magic, lengths,
    /// URL, MD5 digest, watermark signature). Returns `None` on a miss
    /// *or* on any verification failure — in the latter case the entry is
    /// tombstoned and dropped, so a torn write self-heals to the origin
    /// path instead of ever serving wrong bytes.
    pub fn load(&self, url: &str) -> Option<DiskHit> {
        match self.read(url, &self.find(url)?, ReadVia::Executor) {
            ReadOutcome::Hit(hit) => Some(hit),
            ReadOutcome::Healed => None,
            ReadOutcome::Deferred => unreachable!("only a read for a loop defers"),
        }
    }

    /// The first half of [`load`](Self::load): the tier's entry for `url`
    /// from the in-memory index (touched in the LRU; a miss is counted).
    /// No file is touched, so an event loop keeps a miss to itself; the
    /// entry goes to [`read`](Self::read).
    pub(crate) fn find(&self, url: &str) -> Option<Entry> {
        let found = {
            let mut index = self.index.lock();
            let found = index.lru.get_entry(url).map(|(size, &meta)| (size, meta));
            found.map(|(size, meta)| Entry {
                file: index.file_of(meta.segment),
                size,
                meta,
            })
        };
        if found.is_none() {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// The second half of [`load`](Self::load): reads and verifies the
    /// bytes behind an entry [`find`](Self::find) returned for `url`. For
    /// [`ReadVia::Loop`] the read never waits for the disk and never
    /// writes: whatever is not a verified hit at once is
    /// [`ReadOutcome::Deferred`] to the executor, which makes the same
    /// call and heals what fails.
    pub(crate) fn read(&self, url: &str, entry: &Entry, via: ReadVia) -> ReadOutcome {
        let on_loop = via == ReadVia::Loop;
        let read = if on_loop && entry.size > INLINE_READ_MAX {
            Err(bad("too large to verify on an event loop"))
        } else {
            read_verified(entry, url, &self.key, on_loop)
        };
        match read {
            Ok((doc, digest)) => {
                let meta = &entry.meta;
                let fresh = now_unix() < meta.stored_at.saturating_add(meta.ttl_secs);
                let counter = if fresh {
                    &self.counters.hits
                } else {
                    &self.counters.stale
                };
                counter.fetch_add(1, Ordering::Relaxed);
                ReadOutcome::Hit(DiskHit { doc, digest, fresh })
            }
            Err(_) if on_loop => {
                self.counters
                    .reads_offloaded
                    .fetch_add(1, Ordering::Relaxed);
                ReadOutcome::Deferred
            }
            Err(_) => {
                // Verification failed: self-heal by dropping the entry —
                // unless the index has moved on from the bytes this read
                // was given (replaced or cleaned meanwhile).
                self.counters.heals.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                let at = (entry.meta.segment, entry.meta.offset);
                self.discard_if(url, |meta| (meta.segment, meta.offset) == at);
                ReadOutcome::Healed
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
        if size > self.capacity || url.len() > MAX_URL_LEN {
            // Never admitted; a copy it outgrew is purged, as the LRU
            // would have.
            self.discard_if(url, |_| true);
            return;
        }
        let meta = Meta {
            segment: 0,
            offset: 0,
            stored_at: now_unix(),
            ttl_secs: self.default_ttl.as_secs(),
        };
        // Prepare the complete entry image, then append it outside the
        // index lock. No fsync: a crash mid-append leaves a tail that ends
        // its segment's scan, or fails read-time verification, and
        // self-heals.
        let image = encode_entry(url, doc, digest, &meta);
        let mut head = self.head.lock();
        let Ok(offset) = self.append(&mut head, &image) else {
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let meta = Meta {
            segment: head.id,
            offset,
            ..meta
        };
        let mut dead = Vec::new();
        let (evicted, burial) = {
            let mut index = self.index.lock();
            let out = index
                .lru
                .insert_with(url.into(), size, meta, |url, size, meta| {
                    dead.push(Dead::of(url, size, &meta));
                });
            index.landed(&head, image.len() as u64);
            (out.evicted.len() as u64, index.retire(head.id, &dead))
        };
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.counters.write_bytes.fetch_add(size, Ordering::Relaxed);
        self.counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
        self.settle(&mut head, burial);
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
    /// released) in the entry's header. Returns whether the tier holds
    /// `url`.
    fn stamp(&self, url: &str, stored_at: u64) -> bool {
        let _head = self.head.lock();
        let (file, offset) = {
            let mut index = self.index.lock();
            let Some(meta) = index.lru.peek_mut(url) else {
                return false;
            };
            meta.stored_at = stored_at;
            let (segment, offset) = (meta.segment, meta.offset);
            (index.file_of(segment), offset)
        };
        let at = offset + STORED_AT_OFFSET as u64;
        if file.write_all_at(&stored_at.to_le_bytes(), at).is_err() {
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Drops `url` from the tier (e.g. the origin 404'd a revalidation:
    /// the document is gone and the stale copy must not outlive it — the
    /// tombstone keeps it from coming back after a restart). Returns
    /// whether an entry was removed.
    pub fn remove(&self, url: &str) -> bool {
        let removed = self.discard_if(url, |_| true);
        if removed {
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Takes `url`'s entry out of the index and tombstones it, if there is
    /// one and `doomed` says so. Returns whether it did.
    fn discard_if(&self, url: &str, doomed: impl FnOnce(&Meta) -> bool) -> bool {
        let mut head = self.head.lock();
        let burial = {
            let mut index = self.index.lock();
            if !index.lru.peek_mut(url).is_some_and(|meta| doomed(meta)) {
                return false;
            }
            let (size, meta) = index.lru.take(url).expect("peeked under this lock");
            index.retire(head.id, &[Dead::of(url, size, &meta)])
        };
        self.settle(&mut head, burial);
        true
    }

    /// Appends one entry image at the head, sealing the head first if the
    /// image would take it past the nominal segment size. Returns the
    /// offset it landed at.
    fn append(&self, head: &mut Head, image: &[u8]) -> io::Result<u64> {
        let len = image.len() as u64;
        if head.len > 0 && head.len + len > self.segment_bytes {
            let next = Head::create(&self.root, head.id)?;
            let burial = {
                let mut index = self.index.lock();
                index.segments.insert(next.id, next.segment());
                // The sealed head may hold nothing live already.
                index.retire(next.id, &[])
            };
            *head = next;
            self.bury(burial);
        }
        head.file.write_all_at(image, head.len)?;
        let offset = head.len;
        head.len += len;
        Ok(offset)
    }

    /// Ends a mutation, its index update done: the file work that update
    /// left, then the cleaner if dead space has passed its bound.
    fn settle(&self, head: &mut Head, burial: Burial) {
        self.bury(burial);
        self.compact(head);
    }

    /// Tombstones and unlinks: what keeps an entry that left the index
    /// from coming back after a restart.
    fn bury(&self, burial: Burial) {
        let mut failed = 0;
        for (file, offset) in burial.tombstones {
            failed += file.write_all_at(TOMBSTONE, offset).is_err() as u64;
        }
        for id in burial.emptied {
            failed += fs::remove_file(segment_path(&self.root, id)).is_err() as u64;
        }
        self.counters.io_errors.fetch_add(failed, Ordering::Relaxed);
    }

    /// The cleaner: while dead bytes exceed `capacity + 2 × segment`, the
    /// sealed segment with the fewest live bytes (and some dead) is
    /// cleaned. With live entry bytes at most the capacity plus their
    /// headers and URLs, that bounds the log's file bytes.
    fn compact(&self, head: &mut Head) {
        loop {
            let victim = {
                let index = self.index.lock();
                if index.dead_bytes() <= self.capacity + 2 * self.segment_bytes {
                    return;
                }
                index
                    .segments
                    .iter()
                    .filter(|&(&id, s)| id != head.id && s.len > s.live)
                    .min_by_key(|(_, s)| s.live)
                    .map(|(&id, s)| (id, Arc::clone(&s.file), s.len))
            };
            let Some((id, file, len)) = victim else {
                return;
            };
            if self.clean(head, id, &file, len).is_err() {
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Re-appends what the index still names in sealed segment `id` at the
    /// head — raw, `stored_at` and LRU position untouched — and unlinks
    /// the segment. The caller holds the head mutex, so no entry is
    /// stamped, replaced or removed while it moves.
    fn clean(&self, head: &mut Head, id: u32, file: &File, len: u64) -> io::Result<()> {
        for entry in SegmentScan::new(file, len).filter(|e| !e.header.dead) {
            let named_here = |meta: &Meta| (meta.segment, meta.offset) == (id, entry.offset);
            let stamp = self.index.lock().lru.peek_mut(entry.url.as_str()).copied();
            let Some(stamp) = stamp.filter(named_here).map(|meta| meta.stored_at) else {
                continue;
            };
            let mut image = vec![0u8; entry.len() as usize];
            file.read_exact_at(&mut image, entry.offset)?;
            // The index's stamp is the authority (a re-stamp of the file
            // may have failed).
            image[STORED_AT_OFFSET..STORED_AT_OFFSET + 8].copy_from_slice(&stamp.to_le_bytes());
            let offset = self.append(head, &image)?;
            let mut index = self.index.lock();
            let meta = index.lru.peek_mut(entry.url.as_str());
            let meta = meta.expect("nothing leaves the index while the head is held");
            (meta.segment, meta.offset) = (head.id, offset);
            index.landed(head, entry.len());
            if let Some(segment) = index.segments.get_mut(&id) {
                segment.live -= entry.len();
            }
            self.counters
                .cleaned_bytes
                .fetch_add(entry.len(), Ordering::Relaxed);
        }
        // A header that no longer parses hides the entries behind it from
        // the pass, as it would from a reopen: they are lost with the
        // segment.
        let unlink = {
            let mut index = self.index.lock();
            if index.segments.get(&id).is_some_and(|s| s.live > 0) {
                let urls: Vec<Arc<str>> = index.lru.iter_mru().map(|(u, _)| u.clone()).collect();
                for url in urls {
                    if index.lru.peek_mut(&*url).is_some_and(|m| m.segment == id) {
                        index.lru.remove(&*url);
                        self.counters.heals.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            index.segments.remove(&id).is_some()
        };
        if unlink {
            fs::remove_file(segment_path(&self.root, id))?;
        }
        Ok(())
    }

    /// Documents currently stored.
    pub fn entries(&self) -> u64 {
        self.index.lock().lru.len() as u64
    }

    /// Body bytes currently stored.
    pub fn bytes(&self) -> u64 {
        self.index.lock().lru.used()
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> DiskStats {
        let (entries, bytes, file_bytes, segments) = {
            let index = self.index.lock();
            (
                index.lru.len() as u64,
                index.lru.used(),
                index.file_bytes(),
                index.segments.len() as u64,
            )
        };
        let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        DiskStats {
            entries,
            bytes,
            file_bytes,
            segments,
            hits: count(&self.counters.hits),
            stale: count(&self.counters.stale),
            misses: count(&self.counters.misses),
            reads_offloaded: count(&self.counters.reads_offloaded),
            writes: count(&self.counters.writes),
            write_bytes: count(&self.counters.write_bytes),
            cleaned_bytes: count(&self.counters.cleaned_bytes),
            heals: count(&self.counters.heals),
            evictions: count(&self.counters.evictions),
            io_errors: count(&self.counters.io_errors),
        }
    }

    /// The directory this tier stores its segments under.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Head {
    /// Creates the segment after `last` as the new, empty head.
    fn create(root: &Path, last: u32) -> io::Result<Head> {
        let id = last
            .checked_add(1)
            .ok_or_else(|| bad("segment ids exhausted"))?;
        Ok(Head {
            id,
            file: Arc::new(open_segment(root, id, true)?),
            len: 0,
        })
    }

    fn segment(&self) -> Segment {
        Segment {
            file: Arc::clone(&self.file),
            len: self.len,
            live: 0,
        }
    }
}

fn segment_path(root: &Path, id: u32) -> PathBuf {
    root.join(format!("{id:08}.seg"))
}

fn open_segment(root: &Path, id: u32, create: bool) -> io::Result<File> {
    File::options()
        .read(true)
        .write(true)
        .create_new(create)
        .open(segment_path(root, id))
}

/// The segment ids under `root`, ascending, and the document files the
/// path-per-document layout left there.
fn list_root(root: &Path) -> io::Result<(Vec<u32>, Vec<PathBuf>)> {
    let (mut ids, mut strays) = (Vec::new(), Vec::new());
    for entry in fs::read_dir(root)? {
        let path = entry?.path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("seg") => {
                let stem = path.file_stem().and_then(|s| s.to_str());
                ids.extend(stem.and_then(|s| s.parse::<u32>().ok()));
            }
            Some("doc") => strays.push(path),
            _ => {}
        }
    }
    ids.sort_unstable();
    Ok((ids, strays))
}

/// One live entry as the open pass sees it: `len` bytes (header, URL,
/// body) at `offset` of the segment file `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scanned {
    /// The segment file.
    pub path: PathBuf,
    /// Where the entry's header starts.
    pub offset: u64,
    /// Header, URL and body together.
    pub len: u64,
    /// The URL the entry stores.
    pub url: String,
}

/// The pass [`DiskTier::open`] makes over `root`, for a test that wants to
/// damage a specific entry the way a crash or a bad disk would: every
/// entry not tombstoned, segments in id order, each scanned until its end
/// or its first unreadable header.
pub fn scan(root: &Path) -> io::Result<Vec<Scanned>> {
    let mut out = Vec::new();
    for id in list_root(root)?.0 {
        let path = segment_path(root, id);
        let file = File::open(&path)?;
        let len = file.metadata()?.len();
        out.extend(
            SegmentScan::new(&file, len)
                .filter(|e| !e.header.dead)
                .map(|e| Scanned {
                    path: path.clone(),
                    offset: e.offset,
                    len: e.len(),
                    url: e.url,
                }),
        );
    }
    Ok(out)
}

/// One entry of a segment, from its header and URL alone.
struct Found {
    offset: u64,
    header: Header,
    /// Not read for a tombstone.
    url: String,
}

impl Found {
    fn len(&self) -> u64 {
        entry_len(self.header.url_len, self.header.body_len)
    }
}

/// A header-to-header pass over the first `len` bytes of a segment. It
/// ends at `len`, or — `torn` — at the first header that does not parse or
/// whose lengths overrun the file: nothing is allocated for a length that
/// has not been checked against both.
struct SegmentScan<'a> {
    file: &'a File,
    len: u64,
    at: u64,
    torn: bool,
}

impl<'a> SegmentScan<'a> {
    fn new(file: &'a File, len: u64) -> SegmentScan<'a> {
        SegmentScan {
            file,
            len,
            at: 0,
            torn: false,
        }
    }

    fn entry_at(&self, offset: u64) -> io::Result<Found> {
        let mut header = [0u8; HEADER_LEN];
        self.file.read_exact_at(&mut header, offset)?;
        let header = parse_header(&header)?;
        if entry_len(header.url_len, header.body_len) > self.len - offset {
            return Err(bad("entry overruns its segment"));
        }
        let mut url = Vec::new();
        if !header.dead {
            url.resize(header.url_len, 0);
            self.file
                .read_exact_at(&mut url, offset + HEADER_LEN as u64)?;
        }
        let url = String::from_utf8(url).map_err(|_| bad("URL is not UTF-8"))?;
        Ok(Found {
            offset,
            header,
            url,
        })
    }
}

impl Iterator for SegmentScan<'_> {
    type Item = Found;

    fn next(&mut self) -> Option<Found> {
        if self.torn || self.at == self.len {
            return None;
        }
        match self.entry_at(self.at) {
            Ok(found) => {
                self.at += found.len();
                Some(found)
            }
            Err(_) => {
                self.torn = true;
                None
            }
        }
    }
}

fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Bytes an entry takes in its segment: fixed header, URL, body.
fn entry_len(url_len: usize, body_len: u64) -> u64 {
    (HEADER_LEN + url_len) as u64 + body_len
}

/// Serializes one entry: fixed header, then URL, then body.
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

/// The fixed header's fields, the digest and watermark aside.
struct Header {
    dead: bool,
    url_len: usize,
    body_len: u64,
    stored_at: u64,
    ttl_secs: u64,
}

fn parse_header(header: &[u8; HEADER_LEN]) -> io::Result<Header> {
    let dead = match &header[..8] {
        magic if magic == MAGIC => false,
        magic if magic == TOMBSTONE => true,
        _ => return Err(bad("bad magic")),
    };
    let url_len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    let body_len = u64::from_le_bytes(header[12..20].try_into().unwrap());
    if url_len > MAX_URL_LEN {
        return Err(bad("URL length exceeds the tier's maximum"));
    }
    if body_len > MAX_BODY as u64 {
        return Err(bad("body length exceeds protocol maximum"));
    }
    Ok(Header {
        dead,
        url_len,
        body_len,
        stored_at: u64::from_le_bytes(header[20..28].try_into().unwrap()),
        ttl_secs: u64::from_le_bytes(header[28..36].try_into().unwrap()),
    })
}

/// Reads and fully verifies one entry. Every failure mode — short read,
/// tombstone or wrong magic, lengths or URL other than the index's,
/// digest mismatch, bad watermark signature — comes back as an error so
/// the caller can self-heal; so does, with `nowait`, a read that would
/// have had to wait for the disk.
///
/// Header and URL land in a small scratch buffer and the body straight in
/// the allocation the returned document shares with every later holder,
/// all from one positional vectored read, and the body is hashed once:
/// that one digest is compared with the header's (catches a torn or
/// bit-rotted body), checked against the watermark signature (catches
/// anything the proxy's key did not sign, a rewritten header digest
/// included), and handed back for `If-Digest`.
fn read_verified(
    entry: &Entry,
    url: &str,
    key: &PublicKey,
    nowait: bool,
) -> io::Result<(CachedDoc, Digest)> {
    let mut head = vec![0u8; HEADER_LEN + url.len()];
    let mut body = zeroed_body(entry.size as usize);
    let bytes = Arc::get_mut(&mut body).expect("a freshly built Arc has one holder");
    let (file, offset) = (&*entry.file, entry.meta.offset);
    let whole = head.len() + bytes.len();
    match read_two_at(file, &mut head, bytes, offset, nowait) {
        Ok(n) if n == whole => {}
        // An event loop takes what is there at once or nothing.
        Ok(_) if nowait => return Err(bad("short read")),
        Err(e) if nowait => return Err(e),
        // Interrupted, or a kernel without `preadv2`: one buffer at a time.
        _ => {
            file.read_exact_at(&mut head, offset)?;
            file.read_exact_at(bytes, offset + head.len() as u64)?;
        }
    }
    let (header, stored_url) = head.split_at(HEADER_LEN);
    let header: &[u8; HEADER_LEN] = header.try_into().expect("split at the header's length");
    let parsed = parse_header(header)?;
    if parsed.dead {
        return Err(bad("tombstoned"));
    }
    if (parsed.url_len, parsed.body_len) != (url.len(), entry.size) {
        return Err(bad("lengths do not match the index"));
    }
    if stored_url != url.as_bytes() {
        return Err(bad("stored URL does not match"));
    }
    let watermark =
        Watermark::from_bytes(&header[52..84]).map_err(|_| bad("unparseable watermark"))?;
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
    use crate::sys::drop_page_cache;
    use baps_crypto::ProxySigner;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;

    const HOUR: Duration = Duration::from_secs(3600);

    fn signer() -> ProxySigner {
        ProxySigner::generate(&mut StdRng::seed_from_u64(0xd15c))
    }

    fn doc(signer: &ProxySigner, body: &[u8]) -> CachedDoc {
        CachedDoc {
            body: body.into(),
            watermark: signer.watermark(body),
        }
    }

    /// A fresh root, unique per call.
    fn temp_root(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("baps-disk-test-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    fn config(root: &Path, capacity: u64, ttl: Duration) -> DiskConfig {
        DiskConfig {
            root: root.to_path_buf(),
            capacity,
            default_ttl: ttl,
        }
    }

    fn tier(root: &Path, capacity: u64, ttl: Duration, key: PublicKey) -> DiskTier {
        DiskTier::open(config(root, capacity, ttl), key).unwrap()
    }

    fn small_tier(root: &Path, capacity: u64, segment: u64, key: PublicKey) -> DiskTier {
        DiskTier::open_with_segment_bytes(config(root, capacity, HOUR), key, segment).unwrap()
    }

    /// The live entry the open pass would find for `url`.
    fn located(root: &Path, url: &str) -> Scanned {
        let mut found = scan(root).unwrap().into_iter().filter(|e| e.url == url);
        let entry = found.next().expect("the log holds the URL");
        assert!(found.next().is_none(), "one live copy of a URL");
        entry
    }

    fn in_log(root: &Path, url: &str) -> bool {
        scan(root).unwrap().iter().any(|e| e.url == url)
    }

    /// Rewrites the bytes of `url`'s entry in place.
    fn edit_entry(root: &Path, url: &str, edit: impl FnOnce(&mut [u8])) {
        let entry = located(root, url);
        let file = File::options()
            .read(true)
            .write(true)
            .open(&entry.path)
            .unwrap();
        let mut bytes = vec![0u8; entry.len as usize];
        file.read_exact_at(&mut bytes, entry.offset).unwrap();
        edit(&mut bytes);
        file.write_all_at(&bytes, entry.offset).unwrap();
    }

    /// The segment files under `root`, by id.
    fn segment_files(root: &Path) -> BTreeSet<u32> {
        list_root(root).unwrap().0.into_iter().collect()
    }

    /// Every segment file is one the table names, and the gauges agree
    /// with the files.
    fn assert_table_matches_root(t: &DiskTier) {
        let index = t.index.lock();
        let table: BTreeSet<u32> = index.segments.keys().copied().collect();
        assert_eq!(table, segment_files(&t.root));
        for (&id, segment) in &index.segments {
            let on_disk = fs::metadata(segment_path(&t.root, id)).unwrap().len();
            assert!(segment.live <= segment.len);
            assert!(segment.len <= on_disk, "segment {id}");
        }
    }

    #[test]
    fn store_load_roundtrip_fresh() {
        let sg = signer();
        let root = temp_root("roundtrip");
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
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
        let on_disk = (HEADER_LEN + "http://origin/doc/1".len() + 15) as u64;
        assert_eq!((s.file_bytes, s.segments), (on_disk, 1));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_url_is_a_miss() {
        let sg = signer();
        let root = temp_root("miss");
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
        assert!(t.load("http://origin/doc/none").is_none());
        assert_eq!(t.stats().misses, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_is_warm() {
        let sg = signer();
        let root = temp_root("reopen");
        {
            let t = tier(&root, 1 << 20, HOUR, sg.public_key());
            t.store("http://origin/doc/1", &doc(&sg, b"survives restart"));
        }
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
        assert_eq!(t.entries(), 1);
        assert_eq!(t.bytes(), 16);
        // What was the head is sealed; appends go to a fresh one.
        assert_eq!(t.stats().segments, 2);
        let hit = t.load("http://origin/doc/1").expect("warm after reopen");
        assert_eq!(&hit.doc.body[..], b"survives restart");
        t.store("http://origin/doc/2", &doc(&sg, b"after the restart"));
        assert_ne!(
            located(&root, "http://origin/doc/1").path,
            located(&root, "http://origin/doc/2").path
        );
        let _ = fs::remove_dir_all(&root);
    }

    /// An entry past its TTL reads stale; `expire` and `refresh` flip the
    /// stamp both in the index and in the entry's header.
    #[test]
    fn ttl_expiry_marks_stale_and_refresh_restamps_across_reopens() {
        let sg = signer();
        let root = temp_root("ttl");
        let t = tier(&root, 1 << 20, Duration::ZERO, sg.public_key());
        t.store("u", &doc(&sg, b"expires instantly"));
        assert!(!t.load("u").expect("stale entries still load").fresh);
        assert_eq!(t.stats().stale, 1);
        t.refresh("u");
        assert!(!t.load("u").unwrap().fresh, "a zero TTL is never fresh");
        drop(t);
        let _ = fs::remove_dir_all(&root);

        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
        t.store("u", &doc(&sg, b"revalidated"));
        assert!(t.load("u").unwrap().fresh);
        assert!(t.expire("u"));
        assert!(!t.expire("never stored"));
        assert!(!t.load("u").unwrap().fresh, "expire stamps the index");
        drop(t);
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
        assert!(!t.load("u").unwrap().fresh, "expire stamped the file too");
        t.refresh("u");
        assert!(t.load("u").unwrap().fresh, "refresh re-stamps in memory");
        drop(t);
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
        assert!(
            t.load("u").unwrap().fresh,
            "refresh re-stamped the file too"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_tail_self_heals() {
        let sg = signer();
        let root = temp_root("torn");
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
        t.store("u", &doc(&sg, b"this write will be torn apart"));
        let entry = located(&root, "u");
        let file = File::options().write(true).open(&entry.path).unwrap();
        file.set_len(entry.offset + entry.len - 5).unwrap();
        assert!(t.load("u").is_none(), "torn entry must not serve");
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
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
        t.store("u", &doc(&sg, b"integrity protected"));
        edit_entry(&root, "u", |bytes| *bytes.last_mut().unwrap() ^= 0x01);
        assert!(t.load("u").is_none(), "corrupted body must not serve");
        assert!(!in_log(&root, "u"), "the corrupt entry is tombstoned");
        assert_eq!(t.stats().heals, 1);
        drop(t);
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
        assert_eq!((t.entries(), t.stats().heals), (0, 0));
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
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
        t.store("u", &doc(&sg, b"what the proxy signed"));
        edit_entry(&root, "u", |bytes| {
            let body_at = bytes.len() - b"what the proxy signed".len();
            bytes[body_at..].copy_from_slice(b"what an attacker put!");
            let forged_digest = md5(&bytes[body_at..]);
            bytes[36..52].copy_from_slice(&forged_digest.0);
        });

        let entry = t.find("u").unwrap();
        for nowait in [true, false] {
            if let Err(e) = read_verified(&entry, "u", &sg.public_key(), nowait) {
                assert!(
                    nowait || e.to_string() == "watermark verification failed",
                    "{e}"
                );
            } else {
                panic!("forgery must not verify");
            }
        }
        assert!(matches!(
            t.read("u", &entry, ReadVia::Loop),
            ReadOutcome::Deferred
        ));
        assert_eq!(t.entries(), 1, "a loop leaves the healing to the executor");
        assert!(t.load("u").is_none(), "forged body must not serve");
        assert!(!in_log(&root, "u"), "forged entry is tombstoned");
        let s = t.stats();
        assert_eq!((s.heals, s.misses, s.hits, s.entries), (1, 1, 0, 0));
        let _ = fs::remove_dir_all(&root);
    }

    /// `store` is `md5` + `store_hashed`: both leave the same entry.
    #[test]
    fn store_equals_hash_then_store_hashed() {
        let sg = signer();
        let root = temp_root("storehashed");
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
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
            let t = tier(&root, 1 << 20, HOUR, sg.public_key());
            t.store("u", &doc(&sg, b"signed by sg"));
        }
        // Reopened under a different proxy key: the watermark no longer
        // verifies, so the entry self-heals instead of serving.
        let t = tier(&root, 1 << 20, HOUR, other.public_key());
        assert!(t.load("u").is_none());
        assert_eq!(t.stats().heals, 1);
        assert!(!in_log(&root, "u"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn capacity_evicts_lru_and_tombstones_the_victim() {
        let sg = signer();
        let root = temp_root("evict");
        let t = tier(&root, 25, HOUR, sg.public_key());
        t.store("u1", &doc(&sg, &[1u8; 10]));
        t.store("u2", &doc(&sg, &[2u8; 10]));
        t.load("u1"); // promote
        t.store("u3", &doc(&sg, &[3u8; 10])); // evicts u2
        assert!(t.load("u2").is_none());
        assert!(!in_log(&root, "u2"), "victim tombstoned");
        assert!(t.load("u1").is_some());
        assert!(t.load("u3").is_some());
        let s = t.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (2, 20, 1));
        assert!(t.remove("u1") && !t.remove("u1"));
        drop(t);
        let t = tier(&root, 25, HOUR, sg.public_key());
        assert!(t.load("u1").is_none(), "a removed entry stays removed");
        assert!(t.load("u2").is_none(), "an evicted entry stays evicted");
        assert!(t.load("u3").is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn oversize_document_never_admitted() {
        let sg = signer();
        let root = temp_root("oversize");
        let t = tier(&root, 15, HOUR, sg.public_key());
        t.store("big", &doc(&sg, &[0u8; 10]));
        t.store("big", &doc(&sg, &[0u8; 20]));
        assert_eq!(t.entries(), 0, "the copy it outgrew is purged");
        assert!(!in_log(&root, "big"));
        assert_eq!(t.stats().writes, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_scan_stops_at_a_torn_tail_and_sweeps_old_document_files() {
        let sg = signer();
        let root = temp_root("scan");
        {
            let t = tier(&root, 1 << 20, HOUR, sg.public_key());
            t.store("good", &doc(&sg, b"valid entry"));
            // A write that died inside the next entry's header.
            let head = located(&root, "good");
            let file = File::options().write(true).open(head.path).unwrap();
            file.write_all_at(b"BAPSDK01 trunc", head.offset + head.len)
                .unwrap();
        }
        // A document file of the path-per-document layout.
        fs::write(root.join("deadbeef.doc"), b"BAPSDK01 whatever").unwrap();
        // A stray non-entry file is left alone.
        fs::write(root.join("counters.baseline"), b"requests=0\n").unwrap();
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
        assert_eq!(t.entries(), 1);
        assert_eq!(t.stats().heals, 1);
        assert!(!root.join("deadbeef.doc").exists());
        assert!(root.join("counters.baseline").exists());
        assert!(t.load("good").is_some());
        let _ = fs::remove_dir_all(&root);
    }

    /// A crash between an append and the tombstone of the copy it replaces
    /// leaves two live entries for one URL: the later one wins.
    #[test]
    fn the_later_of_two_copies_wins_at_open() {
        let sg = signer();
        let root = temp_root("later");
        {
            let t = tier(&root, 1 << 20, HOUR, sg.public_key());
            t.store("u", &doc(&sg, b"first version"));
            let first = located(&root, "u");
            t.store("u", &doc(&sg, b"second version"));
            let file = File::options().write(true).open(first.path).unwrap();
            file.write_all_at(MAGIC, first.offset).unwrap();
            assert_eq!(scan(&root).unwrap().len(), 2);
        }
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
        assert_eq!((t.entries(), t.bytes()), (1, 14));
        assert_eq!(&t.load("u").unwrap().doc.body[..], b"second version");
        assert_eq!(&located(&root, "u").len, &entry_len(1, 14));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn byte_accounting_matches_entry_bodies() {
        let sg = signer();
        let root = temp_root("bytes");
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
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
        // File bytes are those plus each entry's header and URL.
        assert_eq!(t.stats().file_bytes, expect + 3 * (HEADER_LEN as u64 + 1));
        assert_table_matches_root(&t);
        let _ = fs::remove_dir_all(&root);
    }

    /// One long-lived document a segment and a churning one filling the
    /// rest: segments roll, emptied ones are unlinked, the cleaner keeps
    /// the file bytes inside the documented bound, and what is live
    /// survives its moves byte for byte.
    #[test]
    fn segments_roll_and_the_cleaner_bounds_the_log() {
        let sg = signer();
        let root = temp_root("clean");
        let (capacity, segment, rounds) = (4096, 1024, 60usize);
        let t = small_tier(&root, capacity, segment, sg.public_key());
        let pinned = |round: usize| vec![round as u8; 40];
        let churned = |n: usize| vec![(n % 251) as u8; 200];
        let mut live = 0;
        for round in 0..rounds {
            t.store(&format!("pin/{round:02}"), &doc(&sg, &pinned(round)));
            live += entry_len(6, 40);
            for n in 0..4 {
                t.store("churn", &doc(&sg, &churned(4 * round + n)));
                let s = t.stats();
                assert!(
                    s.file_bytes <= live + entry_len(5, 200) + capacity + 2 * segment,
                    "round {round}: {} file bytes",
                    s.file_bytes
                );
                assert_table_matches_root(&t);
            }
        }
        let s = t.stats();
        assert!(s.cleaned_bytes > 0, "the cleaner ran");
        assert!(s.segments >= 2, "the head rolled");
        assert_eq!(
            (s.entries, s.evictions, s.heals, s.io_errors),
            (rounds as u64 + 1, 0, 0, 0)
        );
        drop(t);
        let t = small_tier(&root, capacity, segment, sg.public_key());
        for round in 0..rounds {
            let hit = t.load(&format!("pin/{round:02}")).expect("survives");
            assert_eq!(&hit.doc.body[..], &pinned(round)[..]);
            assert!(hit.fresh);
        }
        let last = churned(4 * rounds - 1);
        assert_eq!(&t.load("churn").unwrap().doc.body[..], &last[..]);
        assert_eq!(t.stats().heals, 0);
        let _ = fs::remove_dir_all(&root);
    }

    /// A header that no longer parses hides the entries behind it from the
    /// cleaner's pass as it would from a reopen: they are dropped with the
    /// segment, and nothing wrong is ever served.
    #[test]
    fn the_cleaner_gives_up_what_an_unreadable_header_hides() {
        let sg = signer();
        let root = temp_root("cleanrot");
        let t = small_tier(&root, 4096, 1024, sg.public_key());
        for url in ["a", "b", "c"] {
            t.store(url, &doc(&sg, &[url.as_bytes()[0]; 200]));
        }
        t.store("d", &doc(&sg, &[b'd'; 500]));
        let sealed = located(&root, "a").path;
        assert_eq!(sealed, located(&root, "c").path);
        assert_ne!(sealed, located(&root, "d").path, "the head rolled");
        // Rot in b's magic: neither an entry nor a tombstone.
        edit_entry(&root, "b", |bytes| bytes[..8].copy_from_slice(b"ROTROTRO"));
        {
            let mut head = t.head.lock();
            let (file, len) = {
                let index = t.index.lock();
                (index.file_of(1), index.segments[&1].len)
            };
            t.clean(&mut head, 1, &file, len).unwrap();
        }
        assert!(!sealed.exists(), "the cleaned segment is unlinked");
        assert_eq!(&t.load("a").unwrap().doc.body[..], &[b'a'; 200][..]);
        assert_eq!(located(&root, "a").path, located(&root, "d").path);
        assert!(t.load("b").is_none() && t.load("c").is_none());
        let s = t.stats();
        assert_eq!(
            (s.entries, s.heals),
            (2, 2),
            "b and c are lost behind the rot"
        );
        assert_eq!(s.cleaned_bytes, entry_len(1, 200));
        assert_table_matches_root(&t);
        let _ = fs::remove_dir_all(&root);
    }

    /// The head segment cut at every byte of its last entry: a reopen
    /// serves every earlier entry byte-exact and the torn one not at all.
    #[test]
    fn a_tail_torn_at_any_byte_loses_only_the_torn_entry() {
        let sg = signer();
        let root = temp_root("tear");
        let docs = [
            ("http://origin/a", &b"the first document"[..]),
            ("http://origin/b", &b""[..]),
            ("http://origin/c", &b"the entry the crash tears"[..]),
        ];
        {
            let t = tier(&root, 1 << 20, HOUR, sg.public_key());
            for (url, body) in docs {
                t.store(url, &doc(&sg, body));
            }
        }
        let last = located(&root, docs[2].0);
        let image = fs::read(&last.path).unwrap();
        assert_eq!(image.len() as u64, last.offset + last.len);
        let torn_root = temp_root("tear-copy");
        for cut in last.offset..last.offset + last.len {
            let _ = fs::remove_dir_all(&torn_root);
            fs::create_dir_all(&torn_root).unwrap();
            fs::write(
                torn_root.join(last.path.file_name().unwrap()),
                &image[..cut as usize],
            )
            .unwrap();
            let t = tier(&torn_root, 1 << 20, HOUR, sg.public_key());
            assert_eq!(t.entries(), 2, "cut at {cut}");
            assert_eq!(t.stats().heals, (cut > last.offset) as u64);
            for (url, body) in &docs[..2] {
                assert_eq!(&t.load(url).expect("intact entry").doc.body[..], *body);
            }
            assert!(t.load(docs[2].0).is_none());
            // Nothing is appended behind the tear.
            t.store(docs[2].0, &doc(&sg, docs[2].1));
            assert_ne!(
                located(&torn_root, docs[2].0).path.file_name(),
                last.path.file_name()
            );
        }
        let _ = fs::remove_dir_all(&torn_root);
        let _ = fs::remove_dir_all(&root);
    }

    /// Who may read what: an event loop's read never waits for the disk —
    /// it serves what the page cache holds or defers — and the executor's
    /// repeat of it returns the verified document. After `DONTNEED` the
    /// pages are gone on a file system that honours the advice (and
    /// `RWF_NOWAIT`); on one that does not, only correctness is asserted.
    #[test]
    fn a_loop_read_defers_what_it_cannot_have_at_once() {
        let sg = signer();
        let root = temp_root("nowait");
        let t = tier(&root, 1 << 20, HOUR, sg.public_key());
        let body = vec![0x5au8; 9000];
        t.store("u", &doc(&sg, &body));
        let entry = t.find("u").unwrap();
        entry.file.sync_all().unwrap();
        drop_page_cache(&entry.file);
        let deferred = match t.read("u", &entry, ReadVia::Loop) {
            ReadOutcome::Hit(hit) => {
                assert_eq!(&hit.doc.body[..], &body[..]);
                0
            }
            ReadOutcome::Deferred => 1,
            ReadOutcome::Healed => panic!("a loop heals nothing"),
        };
        assert_eq!(t.stats().reads_offloaded, deferred);
        match t.read("u", &entry, ReadVia::Executor) {
            ReadOutcome::Hit(hit) => assert_eq!(&hit.doc.body[..], &body[..]),
            _ => panic!("the blocking read returns the document"),
        }

        // Above the inline limit a loop does not even try.
        let big = vec![7u8; INLINE_READ_MAX as usize + 1];
        t.store("big", &doc(&sg, &big));
        let entry = t.find("big").unwrap();
        assert!(matches!(
            t.read("big", &entry, ReadVia::Loop),
            ReadOutcome::Deferred
        ));
        assert_eq!(t.stats().reads_offloaded, deferred + 1);
        assert_eq!(&t.load("big").unwrap().doc.body[..], &big[..]);
        let _ = fs::remove_dir_all(&root);
    }

    /// What the tier should hold, kept the simple way: the documents by
    /// URL number and a recency list, least recent first.
    struct Model {
        capacity: u64,
        recency: Vec<usize>,
        docs: HashMap<usize, (Vec<u8>, bool)>,
    }

    impl Model {
        fn bytes(&self) -> u64 {
            self.docs.values().map(|(body, _)| body.len() as u64).sum()
        }

        fn forget(&mut self, url: usize) -> bool {
            self.recency.retain(|&u| u != url);
            self.docs.remove(&url).is_some()
        }

        fn store(&mut self, url: usize, body: Vec<u8>) {
            self.forget(url);
            if body.len() as u64 > self.capacity {
                return;
            }
            while self.bytes() + body.len() as u64 > self.capacity {
                let victim = self.recency.remove(0);
                self.docs.remove(&victim);
            }
            self.recency.push(url);
            self.docs.insert(url, (body, true));
        }

        fn load(&mut self, url: usize) -> Option<&(Vec<u8>, bool)> {
            if self.docs.contains_key(&url) {
                self.recency.retain(|&u| u != url);
                self.recency.push(url);
            }
            self.docs.get(&url)
        }
    }

    const URLS: usize = 16;

    fn url_of(i: usize) -> String {
        format!("http://origin/doc/{i}")
    }

    /// `load` on both, compared.
    fn load_both(t: &DiskTier, model: &mut Model, url: usize) -> Result<(), TestCaseError> {
        let got = t.load(&url_of(url));
        let want = model.load(url);
        prop_assert_eq!(got.is_some(), want.is_some(), "load of {}", url);
        if let (Some(got), Some((body, fresh))) = (got, want) {
            prop_assert_eq!(&got.doc.body[..], &body[..]);
            prop_assert_eq!(got.fresh, *fresh);
        }
        Ok(())
    }

    /// Contents, gauges, the file-bytes bound and the segment table, after
    /// every step.
    fn agrees(t: &DiskTier, model: &Model, segment: u64) -> Result<(), TestCaseError> {
        let s = t.stats();
        prop_assert_eq!(s.entries, model.docs.len() as u64);
        prop_assert_eq!(s.bytes, model.bytes());
        prop_assert!(s.bytes <= model.capacity);
        let held: Vec<usize> = (0..URLS)
            .filter(|&i| t.index.lock().lru.contains(url_of(i).as_str()))
            .collect();
        let mut want: Vec<usize> = model.docs.keys().copied().collect();
        want.sort_unstable();
        prop_assert_eq!(held, want);
        let live: u64 = model
            .docs
            .iter()
            .map(|(&i, (body, _))| entry_len(url_of(i).len(), body.len() as u64))
            .sum();
        prop_assert!(
            s.file_bytes <= live + model.capacity + 2 * segment,
            "{} file bytes for {} live",
            s.file_bytes,
            live
        );
        assert_table_matches_root(t);
        Ok(())
    }

    proptest! {
        /// Arbitrary store / load / remove / expire / refresh / reopen
        /// sequences against the model.
        #[test]
        fn the_log_agrees_with_a_model_across_restarts(
            ops in vec((0u8..16, 0..URLS, 0usize..24, any::<u8>()), 1..200),
        ) {
            let sg = signer();
            let root = temp_root("model");
            let (capacity, segment) = (100, 384);
            let mut t = small_tier(&root, capacity, segment, sg.public_key());
            let mut model = Model { capacity, recency: Vec::new(), docs: HashMap::new() };
            for (op, url, len, fill) in ops {
                match op {
                    0..=9 => {
                        let body = vec![fill; len];
                        t.store(&url_of(url), &doc(&sg, &body));
                        model.store(url, body);
                    }
                    10 | 11 => load_both(&t, &mut model, url)?,
                    12 => prop_assert_eq!(t.remove(&url_of(url)), model.forget(url)),
                    13 => {
                        let held = model.docs.get_mut(&url).map(|(_, fresh)| *fresh = false);
                        prop_assert_eq!(t.expire(&url_of(url)), held.is_some());
                    }
                    14 => {
                        t.refresh(&url_of(url));
                        model.docs.entry(url).and_modify(|(_, fresh)| *fresh = true);
                    }
                    _ => {
                        drop(t);
                        t = small_tier(&root, capacity, segment, sg.public_key());
                        prop_assert_eq!(t.stats().heals, 0);
                        // Recency restarts from the stamps, oldest first.
                        let index = t.index.lock();
                        let mru: Vec<Arc<str>> =
                            index.lru.iter_mru().map(|(url, _)| url.clone()).collect();
                        drop(index);
                        let stamps: Vec<u64> = mru
                            .iter()
                            .map(|url| t.index.lock().lru.peek_mut(&**url).unwrap().stored_at)
                            .collect();
                        prop_assert!(stamps.windows(2).all(|w| w[0] >= w[1]), "{:?}", stamps);
                        model.recency = mru
                            .iter()
                            .rev()
                            .map(|url| (0..URLS).find(|&i| url_of(i) == **url).unwrap())
                            .collect();
                    }
                }
                agrees(&t, &model, segment)?;
            }
            // What a restart finds is what the model holds, byte for byte.
            drop(t);
            let t = small_tier(&root, capacity, segment, sg.public_key());
            agrees(&t, &model, segment)?;
            for url in 0..URLS {
                load_both(&t, &mut model, url)?;
            }
            let _ = fs::remove_dir_all(&root);
        }
    }
}
