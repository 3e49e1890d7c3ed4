//! The object management component (OMC).

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::io::{self, Read, Write};

use orp_format::{read_varint, write_varint};
use orp_obs::Recorder;
use orp_trace::{AllocSiteId, InstrId};

use crate::{GroupId, ObjectSerial, Timestamp};

/// Page granularity of the direct translation index: 4 KiB, matching
/// the page size the paper's address artifacts revolve around.
pub const PAGE_SHIFT: u32 = 12;

/// Objects spanning more than this many pages are kept out of the page
/// index (indexing a giant object page-by-page would make allocation
/// cost proportional to its size); they are served by the ordered-map
/// fallback instead. 256 pages = 1 MiB.
const MAX_INDEXED_PAGES: u64 = 256;

/// Per-instruction MRU memo slots are grown on demand up to this many
/// instructions; pathological (sparse, huge) instruction ids beyond it
/// simply skip memoization.
const MRU_LIMIT: usize = 1 << 16;

/// A minimal multiplicative hasher for `u64` keys (page numbers,
/// routing and sampling keys, LEAP stream keys).
///
/// The std `SipHash` default costs more than the whole page lookup it
/// guards; these keys need no DoS resistance, so a single multiply by
/// a 64-bit odd constant (Fibonacci hashing) is enough.
#[derive(Debug, Clone, Copy, Default)]
pub struct U64Hasher(u64);

impl std::hash::Hasher for U64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed by `u64` using [`U64Hasher`].
pub type FastU64Map<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;

/// One resolved object in the fast-path structures: everything a
/// translation needs, denormalized so a hit touches no other map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FastEntry {
    base: u64,
    size: u64,
    group: GroupId,
    serial: ObjectSerial,
}

impl FastEntry {
    /// An empty MRU slot: `size == 0` can never contain an address.
    const EMPTY: FastEntry = FastEntry {
        base: 0,
        size: 0,
        group: GroupId(0),
        serial: ObjectSerial(0),
    };

    #[inline]
    fn contains(&self, addr: u64) -> bool {
        addr.wrapping_sub(self.base) < self.size
    }
}

/// Everything the OMC knows about one object.
///
/// Records for freed objects are retained (the paper keeps object
/// lifetime information as auxiliary, run-dependent output; it powers
/// e.g. field reordering and cross-object stride extensions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectRecord {
    /// The object's group.
    pub group: GroupId,
    /// The object's serial number within its group.
    pub serial: ObjectSerial,
    /// Base raw address.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
    /// Time-stamp at allocation (program start for static objects).
    pub alloc_time: Timestamp,
    /// Time-stamp at deallocation; `None` while live (and forever for
    /// static objects).
    pub free_time: Option<Timestamp>,
}

/// Errors reported by the OMC on malformed object-probe streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmcError {
    /// A new object overlaps a live one — the instrumented allocator
    /// and the probes disagree.
    Overlap {
        /// Base of the new object.
        base: u64,
        /// Base of the live object it overlaps.
        conflicting_base: u64,
    },
    /// A free-probe fired for an address that is not a live object base.
    UnknownFree {
        /// The offending address.
        addr: u64,
    },
    /// [`Omc::alias_sites`] was called for a site that already owns
    /// objects under a different group.
    SiteAlreadyGrouped {
        /// The offending site.
        site: AllocSiteId,
    },
}

impl std::fmt::Display for OmcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OmcError::Overlap {
                base,
                conflicting_base,
            } => write!(
                f,
                "object at {base:#x} overlaps live object at {conflicting_base:#x}"
            ),
            OmcError::UnknownFree { addr } => {
                write!(
                    f,
                    "free probe for {addr:#x} which is not a live object base"
                )
            }
            OmcError::SiteAlreadyGrouped { site } => {
                write!(f, "site {site} already owns objects in another group")
            }
        }
    }
}

impl std::error::Error for OmcError {}

/// Fast-path totals for [`Omc::translate_cached`].
///
/// Plain integers bumped inline — the hot path never calls a recorder;
/// [`Omc::record_metrics`] publishes the totals at phase boundaries.
/// Like the caches, these are run-local: checkpoints exclude them and
/// restore starts from zero.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TranslateStats {
    /// MRU memo hits (translation cost one bounds check).
    pub memo_hits: u64,
    /// Memo misses that fell through to the page index.
    pub memo_misses: u64,
    /// Memo installs that overwrote a different live entry.
    pub memo_evictions: u64,
    /// Lookups that resolved to no live object (untracked accesses).
    pub untracked: u64,
}

impl TranslateStats {
    /// Memo hits over all cached translations (0 when none ran).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct LiveEntry {
    size: u64,
    group: GroupId,
    serial: ObjectSerial,
    alloc_time: Timestamp,
}

#[derive(Debug, Clone)]
struct GroupState {
    site: AllocSiteId,
    next_serial: u64,
}

/// The object management component: the live-object interval map plus
/// the group registry and the lifetime archive.
///
/// Lookup offers three paths:
///
/// * [`Omc::translate_reference`] — the paper's "auxiliary B-tree-like
///   data structure": an `O(log n)` predecessor query over the ordered
///   base-address map. Kept as the reference oracle.
/// * [`Omc::translate`] — the page-index fast path: the address's
///   4 KiB page number selects a short, base-sorted list of the objects
///   overlapping that page, searched with one binary probe. Objects too
///   large to page-index ([`MAX_INDEXED_PAGES`]) fall back to the
///   reference path.
/// * [`Omc::translate_cached`] — the page index fronted by a
///   per-instruction MRU memo: consecutive accesses from one static
///   instruction overwhelmingly hit the same object, so the memo turns
///   them into a bounds check.
///
/// Allocation inserts into both the ordered map and the page index;
/// deallocation removes from both and invalidates every MRU slot that
/// points at the freed object, so all three paths always agree (a
/// property the differential proptests pin down).
#[derive(Debug, Clone, Default)]
pub struct Omc {
    /// Live objects keyed by base address. Invariant: ranges are
    /// disjoint, so the predecessor of an address is the only candidate
    /// containing it.
    live: BTreeMap<u64, LiveEntry>,
    /// Page number → objects overlapping that page, sorted by base.
    /// Covers every live object spanning at most [`MAX_INDEXED_PAGES`]
    /// pages.
    pages: FastU64Map<Vec<FastEntry>>,
    /// Live objects *not* in the page index (too large). While zero, a
    /// page-index miss is definitive and the fallback is skipped.
    unindexed_live: usize,
    /// Per-instruction MRU memo, indexed by `InstrId`; empty slots have
    /// `size == 0`.
    mru: Vec<FastEntry>,
    /// Site → group mapping (one group per allocation site).
    groups_by_site: HashMap<AllocSiteId, GroupId>,
    /// Per-group state, indexed by `GroupId`.
    groups: Vec<GroupState>,
    /// Records of freed objects, in free order.
    archive: Vec<ObjectRecord>,
    /// Total objects ever registered.
    registered: u64,
    /// Fast-path hit/miss totals; run-local, excluded from checkpoints.
    stats: TranslateStats,
}

/// First and last page number of `[base, base + size)`, `size ≥ 1`.
#[inline]
fn page_span(base: u64, size: u64) -> (u64, u64) {
    (base >> PAGE_SHIFT, (base + size - 1) >> PAGE_SHIFT)
}

impl Omc {
    /// Creates an empty OMC.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The group for `site`, creating it on first use.
    pub fn group_for_site(&mut self, site: AllocSiteId) -> GroupId {
        if let Some(&g) = self.groups_by_site.get(&site) {
            return g;
        }
        let g = GroupId(u32::try_from(self.groups.len()).expect("more than u32::MAX groups"));
        self.groups.push(GroupState {
            site,
            next_serial: 0,
        });
        self.groups_by_site.insert(site, g);
        g
    }

    /// Declares that `alias` allocates the same object type as
    /// `canonical`, merging their groups — the paper's compiler-provided
    /// type refinement ("the compiler can provide type information to
    /// further refine this strategy"): objects from both sites share
    /// one group and one serial sequence.
    ///
    /// Must be called before `alias` has allocated anything (the
    /// instrumentation knows types up front).
    ///
    /// # Errors
    ///
    /// Returns [`OmcError::SiteAlreadyGrouped`] when `alias` already
    /// has objects of its own.
    pub fn alias_sites(
        &mut self,
        canonical: AllocSiteId,
        alias: AllocSiteId,
    ) -> Result<GroupId, OmcError> {
        let group = self.group_for_site(canonical);
        match self.groups_by_site.get(&alias) {
            Some(&g) if g == group => Ok(group),
            Some(&g) if self.groups[g.0 as usize].next_serial == 0 => {
                // Re-point *every* site mapped to the empty group `g`,
                // not just `alias`: an earlier `alias_sites(alias, x)`
                // may have pointed `x` at `g` too, and leaving it
                // behind would silently split the merged type across
                // two groups. `g`'s slot stays allocated but unused.
                for target in self.groups_by_site.values_mut() {
                    if *target == g {
                        *target = group;
                    }
                }
                // `g` was never allocated from (`next_serial == 0`), so
                // no live object — hence no page-index or MRU memo
                // entry — can carry it today. Sweep the memo anyway:
                // aliasing is cold, and a stale pre-merge group id in
                // the hot path would be silent corruption if that
                // invariant ever shifts.
                for slot in &mut self.mru {
                    if slot.size != 0 && slot.group == g {
                        *slot = FastEntry::EMPTY;
                    }
                }
                Ok(group)
            }
            Some(_) => Err(OmcError::SiteAlreadyGrouped { site: alias }),
            None => {
                self.groups_by_site.insert(alias, group);
                Ok(group)
            }
        }
    }

    /// The allocation site backing `group`, if the group exists.
    #[must_use]
    pub fn site_of_group(&self, group: GroupId) -> Option<AllocSiteId> {
        self.groups.get(group.0 as usize).map(|g| g.site)
    }

    /// Registers a new object allocated at `site` covering
    /// `[base, base + size)` at time `now`.
    ///
    /// Returns the object's `(group, serial)` identity.
    ///
    /// # Errors
    ///
    /// Returns [`OmcError::Overlap`] when the range overlaps a live
    /// object; the OMC is left unchanged.
    pub fn on_alloc(
        &mut self,
        site: AllocSiteId,
        base: u64,
        size: u64,
        now: Timestamp,
    ) -> Result<(GroupId, ObjectSerial), OmcError> {
        let size = size.max(1);
        // Predecessor must end at or before `base`.
        if let Some((&b, e)) = self.live.range(..=base).next_back() {
            if b + e.size > base {
                return Err(OmcError::Overlap {
                    base,
                    conflicting_base: b,
                });
            }
        }
        // Successor must start at or after `base + size`.
        if let Some((&b, _)) = self.live.range(base..).next() {
            if b < base + size {
                return Err(OmcError::Overlap {
                    base,
                    conflicting_base: b,
                });
            }
        }
        let group = self.group_for_site(site);
        let state = &mut self.groups[group.0 as usize];
        let serial = ObjectSerial(state.next_serial);
        state.next_serial += 1;
        self.live.insert(
            base,
            LiveEntry {
                size,
                group,
                serial,
                alloc_time: now,
            },
        );
        self.index_insert(base, size, group, serial);
        self.registered += 1;
        Ok((group, serial))
    }

    /// Adds a live object to the page index (or the unindexed count for
    /// huge objects). Shared by [`Omc::on_alloc`] and state restore.
    fn index_insert(&mut self, base: u64, size: u64, group: GroupId, serial: ObjectSerial) {
        let (p0, p1) = page_span(base, size);
        if p1 - p0 < MAX_INDEXED_PAGES {
            let entry = FastEntry {
                base,
                size,
                group,
                serial,
            };
            for page in p0..=p1 {
                let list = self.pages.entry(page).or_default();
                let at = list.partition_point(|e| e.base < base);
                list.insert(at, entry);
            }
        } else {
            self.unindexed_live += 1;
        }
    }

    /// Unregisters the live object based at `base`, archiving its
    /// lifetime record.
    ///
    /// # Errors
    ///
    /// Returns [`OmcError::UnknownFree`] when `base` is not a live
    /// object base.
    pub fn on_free(&mut self, base: u64, now: Timestamp) -> Result<ObjectRecord, OmcError> {
        let entry = self
            .live
            .remove(&base)
            .ok_or(OmcError::UnknownFree { addr: base })?;
        let (p0, p1) = page_span(base, entry.size);
        if p1 - p0 < MAX_INDEXED_PAGES {
            for page in p0..=p1 {
                if let Some(list) = self.pages.get_mut(&page) {
                    list.retain(|e| e.base != base);
                    if list.is_empty() {
                        self.pages.remove(&page);
                    }
                }
            }
        } else {
            self.unindexed_live -= 1;
        }
        // The freed address range may be reallocated to a different
        // object; drop every memo slot that still points at it.
        for slot in &mut self.mru {
            if slot.base == base && slot.size != 0 {
                *slot = FastEntry::EMPTY;
            }
        }
        let record = ObjectRecord {
            group: entry.group,
            serial: entry.serial,
            base,
            size: entry.size,
            alloc_time: entry.alloc_time,
            free_time: Some(now),
        };
        self.archive.push(record.clone());
        Ok(record)
    }

    /// Resolves `addr` through the page index, falling back to the
    /// ordered map only when unindexed (huge) objects are live.
    #[inline]
    fn lookup(&self, addr: u64) -> Option<FastEntry> {
        if let Some(list) = self.pages.get(&(addr >> PAGE_SHIFT)) {
            // Predecessor within the page's base-sorted list; an object
            // spilling in from an earlier page is listed here too.
            let at = list.partition_point(|e| e.base <= addr);
            if at > 0 {
                let entry = list[at - 1];
                if entry.contains(addr) {
                    return Some(entry);
                }
            }
        }
        if self.unindexed_live > 0 {
            let (&base, entry) = self.live.range(..=addr).next_back()?;
            if addr < base + entry.size {
                return Some(FastEntry {
                    base,
                    size: entry.size,
                    group: entry.group,
                    serial: entry.serial,
                });
            }
        }
        None
    }

    /// Translates a raw address into `(group, object, offset)`, the
    /// core object-relative mapping, via the page-index fast path.
    ///
    /// Returns `None` for addresses outside every live object (e.g.
    /// stack accesses, which the paper deliberately does not profile).
    #[must_use]
    pub fn translate(&self, addr: u64) -> Option<(GroupId, ObjectSerial, u64)> {
        self.lookup(addr)
            .map(|e| (e.group, e.serial, addr - e.base))
    }

    /// [`Omc::translate`] fronted by the per-instruction MRU memo:
    /// repeated accesses from one instruction to one object cost a
    /// bounds check. The hot path of [`Cdc`](crate::Cdc) collection.
    #[must_use]
    pub fn translate_cached(
        &mut self,
        instr: InstrId,
        addr: u64,
    ) -> Option<(GroupId, ObjectSerial, u64)> {
        let slot = instr.0 as usize;
        if let Some(memo) = self.mru.get(slot) {
            if memo.contains(addr) {
                self.stats.memo_hits += 1;
                return Some((memo.group, memo.serial, addr - memo.base));
            }
        }
        self.stats.memo_misses += 1;
        let Some(entry) = self.lookup(addr) else {
            self.stats.untracked += 1;
            return None;
        };
        if slot < MRU_LIMIT {
            if slot >= self.mru.len() {
                self.mru.resize(slot + 1, FastEntry::EMPTY);
            }
            // A non-empty slot here failed its bounds check above, so
            // any overwrite is a genuine eviction.
            if self.mru[slot].size != 0 {
                self.stats.memo_evictions += 1;
            }
            self.mru[slot] = entry;
        }
        Some((entry.group, entry.serial, addr - entry.base))
    }

    /// The fast-path hit/miss totals accumulated so far.
    #[must_use]
    pub fn translate_stats(&self) -> TranslateStats {
        self.stats
    }

    /// Publishes the OMC's counters (`omc.*`) to `rec`.
    pub fn record_metrics(&self, rec: &mut dyn Recorder) {
        rec.counter("omc.memo_hits", self.stats.memo_hits);
        rec.counter("omc.memo_misses", self.stats.memo_misses);
        rec.counter("omc.memo_evictions", self.stats.memo_evictions);
        rec.counter("omc.untracked_lookups", self.stats.untracked);
        rec.counter("omc.live_objects", self.live.len() as u64);
        rec.counter("omc.groups", self.groups.len() as u64);
        rec.counter("omc.registered_objects", self.registered);
        rec.counter("omc.archived_objects", self.archive.len() as u64);
    }

    /// The paper's original translation path — an `O(log n)` predecessor
    /// query over the ordered base-address map, bypassing the page index
    /// and the MRU memo.
    ///
    /// Kept as the reference oracle for the fast paths (differential
    /// tests) and as the baseline of the throughput benchmark.
    #[must_use]
    pub fn translate_reference(&self, addr: u64) -> Option<(GroupId, ObjectSerial, u64)> {
        let (&base, entry) = self.live.range(..=addr).next_back()?;
        if addr < base + entry.size {
            Some((entry.group, entry.serial, addr - base))
        } else {
            None
        }
    }

    /// Number of live objects.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Number of groups created so far.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Objects allocated so far in `group` (= the next serial number).
    #[must_use]
    pub fn objects_in_group(&self, group: GroupId) -> u64 {
        self.groups
            .get(group.0 as usize)
            .map_or(0, |g| g.next_serial)
    }

    /// Total objects ever registered (live + freed).
    #[must_use]
    pub fn registered_count(&self) -> u64 {
        self.registered
    }

    /// Lifetime records of freed objects, in free order.
    #[must_use]
    pub fn archive(&self) -> &[ObjectRecord] {
        &self.archive
    }

    /// Snapshots the live objects as records (with `free_time: None`),
    /// in base-address order.
    #[must_use]
    pub fn live_records(&self) -> Vec<ObjectRecord> {
        self.live
            .iter()
            .map(|(&base, e)| ObjectRecord {
                group: e.group,
                serial: e.serial,
                base,
                size: e.size,
                alloc_time: e.alloc_time,
                free_time: None,
            })
            .collect()
    }

    /// Serializes the complete canonical OMC state — groups, site map,
    /// live objects, archive — for a checkpoint (the `OMCK` chunk of a
    /// checkpoint container).
    ///
    /// Only canonical state is written. The fast-path counters
    /// ([`Omc::translate_stats`]) are run-local observability, and the
    /// page index, the unindexed counter and the per-instruction MRU
    /// memo are pure caches that the
    /// differential tests pin to the reference path, so they are rebuilt
    /// (index) or dropped cold (memo) on restore without affecting any
    /// translation result. The encoding is deterministic: map contents
    /// are emitted in key order, so `save → restore → save` is
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save_state(&self, w: &mut impl Write) -> io::Result<()> {
        write_varint(w, self.registered)?;
        write_varint(w, self.groups.len() as u64)?;
        for g in &self.groups {
            write_varint(w, u64::from(g.site.0))?;
            write_varint(w, g.next_serial)?;
        }
        let mut sites: Vec<(u32, u32)> = self
            .groups_by_site
            .iter()
            .map(|(s, g)| (s.0, g.0))
            .collect();
        sites.sort_unstable();
        write_varint(w, sites.len() as u64)?;
        for (site, group) in sites {
            write_varint(w, u64::from(site))?;
            write_varint(w, u64::from(group))?;
        }
        write_varint(w, self.live.len() as u64)?;
        for (&base, e) in &self.live {
            write_varint(w, base)?;
            write_varint(w, e.size)?;
            write_varint(w, u64::from(e.group.0))?;
            write_varint(w, e.serial.0)?;
            write_varint(w, e.alloc_time.0)?;
        }
        write_varint(w, self.archive.len() as u64)?;
        for rec in &self.archive {
            write_varint(w, u64::from(rec.group.0))?;
            write_varint(w, rec.serial.0)?;
            write_varint(w, rec.base)?;
            write_varint(w, rec.size)?;
            write_varint(w, rec.alloc_time.0)?;
            match rec.free_time {
                Some(t) => {
                    write_varint(w, 1)?;
                    write_varint(w, t.0)?;
                }
                None => write_varint(w, 0)?,
            }
        }
        Ok(())
    }

    /// Rebuilds an OMC from state written by [`Omc::save_state`].
    ///
    /// The page index and the unindexed-object counter are rebuilt from
    /// the live set; the MRU memo starts cold. All three translation
    /// paths behave exactly as in the checkpointed instance.
    ///
    /// # Errors
    ///
    /// Propagates reader errors; rejects inconsistent state (group
    /// references out of range, serials beyond their group's counter,
    /// overlapping or unsorted live ranges).
    pub fn restore_state(r: &mut impl Read) -> io::Result<Self> {
        fn bad(msg: &'static str) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, msg)
        }
        fn read_u32_field(r: &mut impl Read, what: &'static str) -> io::Result<u32> {
            u32::try_from(read_varint(r)?).map_err(|_| bad(what))
        }
        fn read_count(r: &mut impl Read, what: &'static str) -> io::Result<usize> {
            usize::try_from(read_varint(r)?).map_err(|_| bad(what))
        }

        let registered = read_varint(r)?;
        let group_count = read_count(r, "group count does not fit")?;
        let mut groups = Vec::with_capacity(group_count.min(1 << 16));
        for _ in 0..group_count {
            let site = AllocSiteId(read_u32_field(r, "group site does not fit u32")?);
            let next_serial = read_varint(r)?;
            groups.push(GroupState { site, next_serial });
        }
        let site_count = read_count(r, "site count does not fit")?;
        let mut groups_by_site = HashMap::with_capacity(site_count.min(1 << 16));
        let mut prev_site: Option<u32> = None;
        for _ in 0..site_count {
            let site = read_u32_field(r, "site id does not fit u32")?;
            if prev_site.is_some_and(|p| p >= site) {
                return Err(bad("site map not strictly sorted"));
            }
            prev_site = Some(site);
            let group = read_u32_field(r, "group id does not fit u32")?;
            if group as usize >= groups.len() {
                return Err(bad("site maps to unknown group"));
            }
            groups_by_site.insert(AllocSiteId(site), GroupId(group));
        }
        let live_count = read_count(r, "live count does not fit")?;
        let mut live = BTreeMap::new();
        let mut prev_end: Option<u64> = None;
        let mut entries = Vec::with_capacity(live_count.min(1 << 16));
        for _ in 0..live_count {
            let base = read_varint(r)?;
            let size = read_varint(r)?;
            if size == 0 {
                return Err(bad("live object with zero size"));
            }
            let end = base
                .checked_add(size)
                .ok_or_else(|| bad("live range wraps"))?;
            if prev_end.is_some_and(|p| p > base) {
                return Err(bad("live ranges unsorted or overlapping"));
            }
            prev_end = Some(end);
            let group = GroupId(read_u32_field(r, "live group does not fit u32")?);
            let serial = ObjectSerial(read_varint(r)?);
            let alloc_time = Timestamp(read_varint(r)?);
            let state = groups
                .get(group.0 as usize)
                .ok_or_else(|| bad("live object in unknown group"))?;
            if serial.0 >= state.next_serial {
                return Err(bad("live serial beyond group counter"));
            }
            live.insert(
                base,
                LiveEntry {
                    size,
                    group,
                    serial,
                    alloc_time,
                },
            );
            entries.push((base, size, group, serial));
        }
        let archive_count = read_count(r, "archive count does not fit")?;
        let mut archive = Vec::with_capacity(archive_count.min(1 << 16));
        for _ in 0..archive_count {
            let group = GroupId(read_u32_field(r, "archived group does not fit u32")?);
            if group.0 as usize >= groups.len() {
                return Err(bad("archived object in unknown group"));
            }
            let serial = ObjectSerial(read_varint(r)?);
            let base = read_varint(r)?;
            let size = read_varint(r)?;
            let alloc_time = Timestamp(read_varint(r)?);
            let free_time = match read_varint(r)? {
                0 => None,
                1 => Some(Timestamp(read_varint(r)?)),
                _ => return Err(bad("bad free-time flag")),
            };
            archive.push(ObjectRecord {
                group,
                serial,
                base,
                size,
                alloc_time,
                free_time,
            });
        }
        let mut omc = Omc {
            live,
            pages: FastU64Map::default(),
            unindexed_live: 0,
            mru: Vec::new(),
            groups_by_site,
            groups,
            archive,
            registered,
            stats: TranslateStats::default(),
        };
        for (base, size, group, serial) in entries {
            omc.index_insert(base, size, group, serial);
        }
        Ok(omc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Timestamp = Timestamp(0);

    #[test]
    fn translate_hits_interior_and_misses_outside() {
        let mut omc = Omc::new();
        let (g, s) = omc.on_alloc(AllocSiteId(0), 0x100, 32, T0).unwrap();
        assert_eq!(omc.translate(0x100), Some((g, s, 0)));
        assert_eq!(omc.translate(0x11F), Some((g, s, 31)));
        assert_eq!(omc.translate(0x120), None);
        assert_eq!(omc.translate(0xFF), None);
    }

    #[test]
    fn serials_count_per_group() {
        let mut omc = Omc::new();
        let (g0, s0) = omc.on_alloc(AllocSiteId(0), 0x100, 16, T0).unwrap();
        let (g1, s1) = omc.on_alloc(AllocSiteId(1), 0x200, 16, T0).unwrap();
        let (g2, s2) = omc.on_alloc(AllocSiteId(0), 0x300, 16, T0).unwrap();
        assert_eq!(g0, g2);
        assert_ne!(g0, g1);
        assert_eq!(
            (s0, s1, s2),
            (ObjectSerial(0), ObjectSerial(0), ObjectSerial(1))
        );
        assert_eq!(omc.objects_in_group(g0), 2);
        assert_eq!(omc.group_count(), 2);
    }

    #[test]
    fn address_reuse_gets_fresh_serial() {
        // The same raw address hosting two objects in sequence — the
        // false-aliasing artifact object-relativity removes.
        let mut omc = Omc::new();
        let (_, s0) = omc
            .on_alloc(AllocSiteId(0), 0x100, 16, Timestamp(0))
            .unwrap();
        omc.on_free(0x100, Timestamp(5)).unwrap();
        let (_, s1) = omc
            .on_alloc(AllocSiteId(0), 0x100, 16, Timestamp(6))
            .unwrap();
        assert_ne!(s0, s1);
        assert_eq!(omc.archive().len(), 1);
        assert_eq!(omc.archive()[0].free_time, Some(Timestamp(5)));
    }

    #[test]
    fn overlap_detection_both_sides() {
        let mut omc = Omc::new();
        omc.on_alloc(AllocSiteId(0), 0x100, 32, T0).unwrap();
        // New object starting inside the live one.
        assert!(matches!(
            omc.on_alloc(AllocSiteId(0), 0x110, 16, T0),
            Err(OmcError::Overlap {
                conflicting_base: 0x100,
                ..
            })
        ));
        // New object spanning over the live one from below.
        assert!(matches!(
            omc.on_alloc(AllocSiteId(0), 0xF0, 0x20, T0),
            Err(OmcError::Overlap {
                conflicting_base: 0x100,
                ..
            })
        ));
        // Adjacent on both sides is fine.
        omc.on_alloc(AllocSiteId(0), 0xF0, 0x10, T0).unwrap();
        omc.on_alloc(AllocSiteId(0), 0x120, 0x10, T0).unwrap();
    }

    #[test]
    fn unknown_free_is_an_error() {
        let mut omc = Omc::new();
        assert_eq!(
            omc.on_free(0x500, T0),
            Err(OmcError::UnknownFree { addr: 0x500 })
        );
    }

    #[test]
    fn zero_size_objects_occupy_one_byte() {
        let mut omc = Omc::new();
        let (g, s) = omc.on_alloc(AllocSiteId(0), 0x100, 0, T0).unwrap();
        assert_eq!(omc.translate(0x100), Some((g, s, 0)));
    }

    #[test]
    fn live_records_sorted_by_base() {
        let mut omc = Omc::new();
        omc.on_alloc(AllocSiteId(0), 0x300, 8, T0).unwrap();
        omc.on_alloc(AllocSiteId(0), 0x100, 8, T0).unwrap();
        let recs = omc.live_records();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].base < recs[1].base);
        assert_eq!(omc.live_count(), 2);
        assert_eq!(omc.registered_count(), 2);
    }

    #[test]
    fn aliased_sites_share_group_and_serials() {
        let mut omc = Omc::new();
        let canonical = AllocSiteId(0);
        let alias = AllocSiteId(1);
        let g = omc.alias_sites(canonical, alias).unwrap();
        let (g0, s0) = omc.on_alloc(canonical, 0x100, 16, T0).unwrap();
        let (g1, s1) = omc.on_alloc(alias, 0x200, 16, T0).unwrap();
        assert_eq!(g0, g);
        assert_eq!(g1, g, "aliased site allocates into the canonical group");
        assert_eq!(
            (s0, s1),
            (ObjectSerial(0), ObjectSerial(1)),
            "one serial sequence"
        );
    }

    #[test]
    fn aliasing_re_points_every_site_on_the_emptied_group() {
        let mut omc = Omc::new();
        let (a, b, c) = (AllocSiteId(1), AllocSiteId(2), AllocSiteId(3));
        // C aliases A: both sit on A's (still empty) group.
        omc.alias_sites(a, c).unwrap();
        // A aliases B: A's empty group is re-pointed at B's — and C
        // must come along instead of staying stranded on the emptied
        // group.
        let g = omc.alias_sites(b, a).unwrap();
        let (g0, s0) = omc.on_alloc(a, 0x1000, 16, T0).unwrap();
        let (g1, s1) = omc.on_alloc(c, 0x2000, 16, T0).unwrap();
        let (g2, s2) = omc.on_alloc(b, 0x3000, 16, T0).unwrap();
        assert_eq!([g0, g1, g2], [g, g, g], "all three sites merged");
        assert_eq!(
            (s0, s1, s2),
            (ObjectSerial(0), ObjectSerial(1), ObjectSerial(2)),
            "one serial sequence across the whole merge"
        );
    }

    #[test]
    fn translate_stats_count_hits_misses_evictions_and_untracked() {
        let mut omc = Omc::new();
        let site = AllocSiteId(0);
        omc.on_alloc(site, 0x1000, 64, T0).unwrap();
        omc.on_alloc(site, 0x2000, 64, T0).unwrap();
        let i = InstrId(7);
        assert!(omc.translate_cached(i, 0x1000).is_some()); // miss, install
        assert!(omc.translate_cached(i, 0x1010).is_some()); // hit
        assert!(omc.translate_cached(i, 0x2000).is_some()); // miss, evict
        assert!(omc.translate_cached(i, 0x9000).is_none()); // untracked
        let s = omc.translate_stats();
        assert_eq!(s.memo_hits, 1);
        assert_eq!(s.memo_misses, 3);
        assert_eq!(s.memo_evictions, 1);
        assert_eq!(s.untracked, 1);
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(TranslateStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn aliasing_a_populated_site_fails() {
        let mut omc = Omc::new();
        omc.on_alloc(AllocSiteId(1), 0x100, 16, T0).unwrap();
        assert_eq!(
            omc.alias_sites(AllocSiteId(0), AllocSiteId(1)),
            Err(OmcError::SiteAlreadyGrouped {
                site: AllocSiteId(1)
            })
        );
        // Aliasing is idempotent for already-merged sites.
        let g = omc.alias_sites(AllocSiteId(0), AllocSiteId(2)).unwrap();
        assert_eq!(omc.alias_sites(AllocSiteId(0), AllocSiteId(2)), Ok(g));
    }

    #[test]
    fn fast_paths_agree_with_reference() {
        let mut omc = Omc::new();
        let (g, s) = omc.on_alloc(AllocSiteId(0), 0x100, 32, T0).unwrap();
        for addr in [0xFFu64, 0x100, 0x11F, 0x120, 0x5000] {
            assert_eq!(omc.translate(addr), omc.translate_reference(addr));
            assert_eq!(
                omc.translate_cached(InstrId(3), addr),
                omc.translate_reference(addr)
            );
        }
        assert_eq!(omc.translate(0x110), Some((g, s, 0x10)));
    }

    #[test]
    fn mru_is_invalidated_by_free_and_realloc() {
        let mut omc = Omc::new();
        let instr = InstrId(0);
        let (_, s0) = omc.on_alloc(AllocSiteId(0), 0x100, 16, T0).unwrap();
        assert_eq!(omc.translate_cached(instr, 0x108).unwrap().1, s0);
        omc.on_free(0x100, Timestamp(1)).unwrap();
        assert_eq!(omc.translate_cached(instr, 0x108), None);
        // Same address range, new object: the memo must not resurrect
        // the old serial.
        let (_, s1) = omc
            .on_alloc(AllocSiteId(0), 0x100, 16, Timestamp(2))
            .unwrap();
        assert_ne!(s0, s1);
        assert_eq!(omc.translate_cached(instr, 0x108).unwrap().1, s1);
    }

    #[test]
    fn objects_spanning_pages_are_found_from_either_page() {
        let mut omc = Omc::new();
        // Straddles the 0x2000 page boundary.
        let (g, s) = omc.on_alloc(AllocSiteId(0), 0x1FF0, 0x40, T0).unwrap();
        assert_eq!(omc.translate(0x1FF8), Some((g, s, 8)));
        assert_eq!(omc.translate(0x2010), Some((g, s, 0x20)));
        assert_eq!(omc.translate(0x2030), None);
        omc.on_free(0x1FF0, Timestamp(1)).unwrap();
        assert_eq!(omc.translate(0x2010), None);
    }

    #[test]
    fn huge_objects_use_the_fallback_path() {
        let mut omc = Omc::new();
        let huge = 2u64 << 20; // 2 MiB, beyond MAX_INDEXED_PAGES
        let (g, s) = omc.on_alloc(AllocSiteId(0), 0x10_0000, huge, T0).unwrap();
        let (g2, s2) = omc.on_alloc(AllocSiteId(1), 0x100_0000, 64, T0).unwrap();
        assert_eq!(omc.translate(0x10_0000 + huge / 2), Some((g, s, huge / 2)));
        assert_eq!(omc.translate(0x100_0020), Some((g2, s2, 0x20)));
        assert_eq!(
            omc.translate_cached(InstrId(1), 0x10_0000 + huge - 1),
            Some((g, s, huge - 1))
        );
        omc.on_free(0x10_0000, Timestamp(1)).unwrap();
        assert_eq!(omc.translate(0x10_0000 + 8), None);
        assert_eq!(omc.translate_cached(InstrId(1), 0x10_0000 + 8), None);
    }

    #[test]
    fn site_group_round_trip() {
        let mut omc = Omc::new();
        let g = omc.group_for_site(AllocSiteId(9));
        assert_eq!(omc.site_of_group(g), Some(AllocSiteId(9)));
        assert_eq!(omc.site_of_group(GroupId(99)), None);
    }
}
