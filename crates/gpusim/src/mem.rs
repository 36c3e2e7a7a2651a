//! Simulated device memory: global memory (+ heap), per-team shared
//! memory, and per-thread local memory.
//!
//! Addresses are 64-bit with a space tag in the top nibble:
//!
//! ```text
//! 0x0                  null
//! 0x1ooo_oooo_oooo     global memory offset o
//! 0x2tt._....          shared memory of team t (offset in low 32 bits)
//! 0x3...               local memory of (team, thread)
//! 0x4...               function address (index in low bits)
//! ```
//!
//! Loads and stores validate that the executing thread may touch the
//! target: shared memory belongs to one team, local memory to one
//! thread. Cross-thread local accesses optionally trap — this is what
//! makes the unsound LLVM 12 "SPMD mode uses stack memory" fast path
//! (paper Figure 3) observable in the simulator.
//!
//! # Per-team views
//!
//! Teams are independent, so a launch hands every team a
//! [`TeamMemView`]: a read-only borrow of the pre-launch global memory
//! plus team-private state (shared memory, local arenas, a full-capacity
//! globalization heap, and a copy-on-write page journal for global
//! stores). Views never alias mutable state, which lets the scheduler
//! run teams on separate host threads. After the launch the journals are
//! merged back into global memory **in team-id order** — the same
//! last-writer-wins outcome sequential execution produces — so results
//! are bit-identical regardless of how many worker threads ran.
//!
//! # Reset
//!
//! The global arena has exactly three mutators: [`Memory::write_bytes`]
//! (host writes), [`Memory::apply_delta`] (the journal merge every
//! launch path commits through) and [`Memory::reset_global`]. The first
//! two raise a dirty high-water mark, and the invariant is that every
//! arena byte at or above the mark is zero. A reset therefore clears
//! only `[0, mark)`: its cost follows the bytes a job touched, not the
//! capacity of the device, and pages no job ever wrote are never
//! committed.

use crate::config::DeviceConfig;
use omp_ir::{RtVal, Type};
use std::collections::HashMap;
use std::fmt;

const TAG_SHIFT: u32 = 60;
const TAG_GLOBAL: u64 = 1;
const TAG_SHARED: u64 = 2;
const TAG_LOCAL: u64 = 3;
const TAG_FUNC: u64 = 4;

/// Copy-on-write page size for per-team global-memory journals.
const PAGE: usize = 256;
const PAGE_WORDS: usize = PAGE / 64;

/// Multiply-based hasher for page-number keys. Page journals are hit
/// on every global load/store, where the default SipHash is the
/// dominant cost; page numbers are small dense integers, so one
/// Fibonacci multiply spreads them across buckets with good high bits.
/// The plan builder's constant-interning keys use it too.
#[derive(Default)]
pub struct PageHasher(u64);

impl std::hash::Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // FNV-style fallback for non-u64 keys (unused on page maps).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// [`std::hash::BuildHasher`] for [`PageHasher`]-keyed maps.
#[derive(Default, Clone)]
pub struct PageHash;

impl std::hash::BuildHasher for PageHash {
    type Hasher = PageHasher;
    #[inline]
    fn build_hasher(&self) -> PageHasher {
        PageHasher::default()
    }
}

/// A `u64`-keyed map with the cheap [`PageHasher`].
pub type FastMap<V> = HashMap<u64, V, PageHash>;

/// Decoded address space of a pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Global memory at `offset`.
    Global { offset: u64 },
    /// Shared memory of `team` at `offset`.
    Shared { team: u32, offset: u64 },
    /// Local memory of `(team, thread)` at `offset`.
    Local { team: u32, thread: u32, offset: u64 },
    /// A function address.
    Func { index: u32 },
}

/// Classification used by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Global memory (coalescing decided by the interpreter).
    Global,
    /// Shared memory.
    Shared,
    /// Thread-local memory.
    Local,
}

/// Builds a global-memory address.
pub fn global_addr(offset: u64) -> u64 {
    (TAG_GLOBAL << TAG_SHIFT) | offset
}

/// Builds a shared-memory address for `team`.
pub fn shared_addr(team: u32, offset: u64) -> u64 {
    (TAG_SHARED << TAG_SHIFT) | ((team as u64) << 32) | offset
}

/// Builds a local-memory address for `(team, thread)`.
pub fn local_addr(team: u32, thread: u32, offset: u64) -> u64 {
    (TAG_LOCAL << TAG_SHIFT) | ((team as u64) << 40) | ((thread as u64) << 24) | offset
}

/// Builds a function address.
pub fn func_addr(index: u32) -> u64 {
    (TAG_FUNC << TAG_SHIFT) | index as u64
}

/// Decodes an address into its space.
pub fn decode(addr: u64) -> Option<Space> {
    match addr >> TAG_SHIFT {
        TAG_GLOBAL => Some(Space::Global {
            offset: addr & 0x0FFF_FFFF_FFFF_FFFF,
        }),
        TAG_SHARED => Some(Space::Shared {
            team: ((addr >> 32) & 0x0FFF_FFFF) as u32,
            offset: addr & 0xFFFF_FFFF,
        }),
        TAG_LOCAL => Some(Space::Local {
            team: ((addr >> 40) & 0xF_FFFF) as u32,
            thread: ((addr >> 24) & 0xFFFF) as u32,
            offset: addr & 0xFF_FFFF,
        }),
        TAG_FUNC => Some(Space::Func {
            index: (addr & 0xFFFF_FFFF) as u32,
        }),
        _ => None,
    }
}

/// A memory access or allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Null or undecodable pointer.
    InvalidPointer(u64),
    /// Access beyond the bounds of its region.
    OutOfBounds(u64),
    /// A thread touched another thread's local memory.
    CrossThreadLocal {
        /// Team/thread of the accessor.
        accessor: (u32, u32),
        /// Team/thread owning the memory.
        owner: (u32, u32),
    },
    /// A thread touched another team's shared memory.
    CrossTeamShared,
    /// The device heap (globalization fallback) is exhausted — the
    /// paper's RSBench out-of-memory outcome.
    HeapExhausted {
        /// Bytes requested by the failing allocation.
        requested: u64,
    },
    /// Global-memory buffer allocation failed.
    GlobalExhausted,
    /// A fault-injection plan failed this allocation on purpose. Not
    /// an out-of-memory outcome: callers that tolerate genuine
    /// exhaustion match on [`MemError::HeapExhausted`] /
    /// [`MemError::GlobalExhausted`], never on message text.
    AllocFaultInjected,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::InvalidPointer(a) => write!(f, "invalid pointer 0x{a:x}"),
            MemError::OutOfBounds(a) => write!(f, "out-of-bounds access at 0x{a:x}"),
            MemError::CrossThreadLocal { accessor, owner } => write!(
                f,
                "thread {accessor:?} accessed local memory of thread {owner:?}"
            ),
            MemError::CrossTeamShared => write!(f, "cross-team shared memory access"),
            MemError::HeapExhausted { requested } => {
                write!(f, "device heap exhausted (requested {requested} bytes)")
            }
            MemError::GlobalExhausted => write!(f, "global memory exhausted"),
            MemError::AllocFaultInjected => write!(f, "injected allocation fault"),
        }
    }
}

impl std::error::Error for MemError {}

/// A simple first-fit free-list allocator over a byte range.
#[derive(Debug, Clone, Default)]
struct FreeListAlloc {
    start: u64,
    cursor: u64,
    limit: u64,
    free: Vec<(u64, u64)>, // (offset, size)
    live: u64,
    high_water: u64,
    live_high: u64,
}

impl FreeListAlloc {
    fn new(start: u64, limit: u64) -> FreeListAlloc {
        FreeListAlloc {
            start,
            cursor: start,
            limit,
            free: Vec::new(),
            live: 0,
            high_water: start,
            live_high: 0,
        }
    }

    fn alloc(&mut self, size: u64) -> Option<u64> {
        let size = size.max(1).div_ceil(8) * 8;
        if let Some(i) = self.free.iter().position(|&(_, s)| s >= size) {
            let (off, s) = self.free.remove(i);
            if s > size {
                self.free.push((off + size, s - size));
            }
            self.live += size;
            self.live_high = self.live_high.max(self.live);
            return Some(off);
        }
        if self.cursor + size > self.limit {
            return None;
        }
        let off = self.cursor;
        self.cursor += size;
        self.high_water = self.high_water.max(self.cursor);
        self.live += size;
        self.live_high = self.live_high.max(self.live);
        Some(off)
    }

    fn dealloc(&mut self, offset: u64, size: u64) {
        let size = size.max(1).div_ceil(8) * 8;
        self.live = self.live.saturating_sub(size);
        self.free.push((offset, size));
        // Cheap compaction: if everything is free again, reset fully.
        if self.live == 0 {
            self.free.clear();
            self.cursor = self.start;
        }
    }
}

/// Per-team shared memory: statics + a globalization stack region.
#[derive(Debug, Clone)]
struct TeamShared {
    data: Vec<u8>,
    alloc: FreeListAlloc,
}

/// One copy-on-write page of a team's global-memory journal: a snapshot
/// of the pre-launch bytes with the team's own stores applied, plus a
/// per-byte dirty bitmap so merging only writes back bytes the team
/// actually stored.
#[derive(Debug)]
struct CowPage {
    data: Box<[u8; PAGE]>,
    dirty: [u64; PAGE_WORDS],
}

/// The global-memory effects of one team's execution, merged back into
/// [`Memory`] with [`Memory::apply_delta`] after the team finishes.
#[derive(Debug)]
pub struct TeamMemDelta {
    pages: Vec<(u64, CowPage)>,
    shared_high_water: u64,
    heap_live_high: u64,
}

/// Page granule of the COW store journal in bytes, re-exported for the
/// cross-kernel race detector's diagnostics.
pub(crate) const PAGE_BYTES: u64 = PAGE as u64;

impl TeamMemDelta {
    /// Numbers of the pages this team actually stored to (at least one
    /// dirty byte), in first-write order. Page `p` covers global bytes
    /// `[p * PAGE_BYTES, (p + 1) * PAGE_BYTES)`.
    pub(crate) fn written_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages
            .iter()
            .filter(|(_, p)| p.dirty.iter().any(|&w| w != 0))
            .map(|&(n, _)| n)
    }
}

/// One team's private window onto device memory during a launch: a
/// read-only borrow of pre-launch global memory plus team-owned shared
/// memory, local arenas, a full-capacity globalization heap, and the
/// copy-on-write store journal. Safe to move to a worker thread.
#[derive(Debug)]
pub struct TeamMemView<'a> {
    base: &'a [u8],
    team: u32,
    /// COW store journal: pages in first-write order plus a page# →
    /// slot index. Slots are never removed during a launch, so the
    /// direct-mapped two-entry `last_page` lookup cache (shared by the
    /// load and store paths, indexed by page parity so an input/output
    /// buffer pair does not thrash it; `u32::MAX` slot = "page not
    /// journalled") stays valid until a conflicting access overwrites
    /// its way.
    page_slots: Vec<(u64, CowPage)>,
    page_index: FastMap<u32>,
    last_page: [(u64, u32); 2],
    shared: TeamShared,
    local: Vec<Vec<u8>>,
    heap: FreeListAlloc,
    heap_base: u64,
    local_cap: u64,
    trap_cross_local: bool,
    /// Remaining globalization allocations before the fault plan fails
    /// one (`None` = no injected failure). Per-team, so outcomes do not
    /// depend on `--jobs`.
    alloc_budget: Option<u64>,
}

impl<'a> TeamMemView<'a> {
    /// Slot of `page` in the journal, `None` when the team never wrote
    /// it. One-entry cache in front of the hash lookup: the hot loops
    /// touch the same page repeatedly (sequential buffers), so most
    /// accesses skip the map entirely.
    #[inline(always)]
    fn page_slot(&mut self, page: u64) -> Option<u32> {
        let way = (page & 1) as usize;
        let (cached_page, cached_slot) = self.last_page[way];
        if cached_page == page {
            return (cached_slot != u32::MAX).then_some(cached_slot);
        }
        let slot = self.page_index.get(&page).copied().unwrap_or(u32::MAX);
        self.last_page[way] = (page, slot);
        (slot != u32::MAX).then_some(slot)
    }

    fn page_for_write(&mut self, page: u64) -> &mut CowPage {
        let slot = match self.page_slot(page) {
            Some(s) => s,
            None => {
                let mut data = Box::new([0u8; PAGE]);
                let start = (page as usize) * PAGE;
                let n = PAGE.min(self.base.len().saturating_sub(start));
                data[..n].copy_from_slice(&self.base[start..start + n]);
                let s = self.page_slots.len() as u32;
                self.page_slots.push((
                    page,
                    CowPage {
                        data,
                        dirty: [0; PAGE_WORDS],
                    },
                ));
                self.page_index.insert(page, s);
                self.last_page[(page & 1) as usize] = (page, s);
                s
            }
        };
        &mut self.page_slots[slot as usize].1
    }

    fn read_global(&mut self, addr: u64, offset: u64, out: &mut [u8]) -> Result<(), MemError> {
        let end = offset + out.len() as u64;
        if end > self.base.len() as u64 {
            return Err(MemError::OutOfBounds(addr));
        }
        let mut o = offset as usize;
        let mut i = 0;
        while i < out.len() {
            let page = (o / PAGE) as u64;
            let po = o % PAGE;
            let n = (PAGE - po).min(out.len() - i);
            match self.page_slot(page) {
                Some(s) => {
                    let p = &self.page_slots[s as usize].1;
                    out[i..i + n].copy_from_slice(&p.data[po..po + n]);
                }
                None => out[i..i + n].copy_from_slice(&self.base[o..o + n]),
            }
            i += n;
            o += n;
        }
        Ok(())
    }

    fn write_global(&mut self, addr: u64, offset: u64, data: &[u8]) -> Result<(), MemError> {
        let end = offset + data.len() as u64;
        if end > self.base.len() as u64 {
            return Err(MemError::OutOfBounds(addr));
        }
        let mut o = offset as usize;
        let mut i = 0;
        while i < data.len() {
            let page = (o / PAGE) as u64;
            let po = o % PAGE;
            let n = (PAGE - po).min(data.len() - i);
            let p = self.page_for_write(page);
            p.data[po..po + n].copy_from_slice(&data[i..i + n]);
            for b in po..po + n {
                p.dirty[b / 64] |= 1 << (b % 64);
            }
            i += n;
            o += n;
        }
        Ok(())
    }

    /// Device-side globalization allocation: tries the team's shared
    /// stack first, falls back to the device heap (the paper's
    /// `LIBOMPTARGET_HEAP_SIZE` fallback). Returns the address.
    pub fn alloc_shared(&mut self, size: u64) -> Result<u64, MemError> {
        if let Some(left) = self.alloc_budget.as_mut() {
            if *left == 0 {
                return Err(MemError::AllocFaultInjected);
            }
            *left -= 1;
        }
        if let Some(off) = self.shared.alloc.alloc(size) {
            return Ok(shared_addr(self.team, off));
        }
        match self.heap.alloc(size) {
            Some(off) => Ok(global_addr(off)),
            None => Err(MemError::HeapExhausted { requested: size }),
        }
    }

    /// Frees a globalization allocation made by
    /// [`TeamMemView::alloc_shared`].
    pub fn free_shared(&mut self, addr: u64, size: u64) -> Result<(), MemError> {
        match decode(addr) {
            Some(Space::Shared { team, offset }) if team == self.team => {
                self.shared.alloc.dealloc(offset, size);
                Ok(())
            }
            Some(Space::Global { offset }) if offset >= self.heap_base => {
                self.heap.dealloc(offset, size);
                Ok(())
            }
            _ => Err(MemError::InvalidPointer(addr)),
        }
    }

    /// The arena for `thread`'s local memory, grown on demand: arenas
    /// start empty and extend geometrically (zero-filled, preserving
    /// the read-zero semantics of untouched local memory) up to the
    /// configured per-thread capacity, so threads that use a few
    /// hundred bytes of stack never pay for the full capacity.
    fn local_arena(&mut self, thread: u32, end: u64) -> Result<&mut Vec<u8>, MemError> {
        let cap = self.local_cap as usize;
        if thread as usize >= self.local.len() {
            self.local.resize_with(thread as usize + 1, Vec::new);
        }
        let arena = &mut self.local[thread as usize];
        if end as usize > arena.len() {
            let want = (end as usize).next_power_of_two().max(4096).min(cap);
            arena.resize(want, 0);
        }
        Ok(arena)
    }

    /// Loads a typed value. `thread` identifies the accessor within this
    /// view's team.
    pub fn load(
        &mut self,
        addr: u64,
        ty: Type,
        thread: u32,
    ) -> Result<(RtVal, AccessClass), MemError> {
        let space = decode(addr).ok_or(MemError::InvalidPointer(addr))?;
        let len = ty.size();
        match space {
            Space::Global { offset } => {
                let mut buf = [0u8; 8];
                self.read_global(addr, offset, &mut buf[..len as usize])?;
                Ok((RtVal::from_bytes(ty, &buf), AccessClass::Global))
            }
            Space::Shared { team, offset } => {
                if team != self.team {
                    return Err(MemError::CrossTeamShared);
                }
                let end = offset + len;
                if end > self.shared.data.len() as u64 {
                    return Err(MemError::OutOfBounds(addr));
                }
                Ok((
                    RtVal::from_bytes(ty, &self.shared.data[offset as usize..end as usize]),
                    AccessClass::Shared,
                ))
            }
            Space::Local {
                team,
                thread: th,
                offset,
            } => {
                self.check_local(addr, team, th, thread)?;
                let end = offset + len;
                if end > self.local_cap {
                    return Err(MemError::OutOfBounds(addr));
                }
                let arena = self.local_arena(th, end)?;
                Ok((
                    RtVal::from_bytes(ty, &arena[offset as usize..end as usize]),
                    AccessClass::Local,
                ))
            }
            Space::Func { .. } => Err(MemError::InvalidPointer(addr)),
        }
    }

    /// Stores a typed value. `thread` identifies the accessor within
    /// this view's team.
    pub fn store(&mut self, addr: u64, val: RtVal, thread: u32) -> Result<AccessClass, MemError> {
        let space = decode(addr).ok_or(MemError::InvalidPointer(addr))?;
        let mut buf = [0u8; 8];
        let len = val.write_le(&mut buf);
        let bytes = &buf[..len];
        match space {
            Space::Global { offset } => {
                self.write_global(addr, offset, bytes)?;
                Ok(AccessClass::Global)
            }
            Space::Shared { team, offset } => {
                if team != self.team {
                    return Err(MemError::CrossTeamShared);
                }
                let end = offset + len as u64;
                if end > self.shared.data.len() as u64 {
                    return Err(MemError::OutOfBounds(addr));
                }
                self.shared.data[offset as usize..end as usize].copy_from_slice(bytes);
                Ok(AccessClass::Shared)
            }
            Space::Local {
                team,
                thread: th,
                offset,
            } => {
                self.check_local(addr, team, th, thread)?;
                let end = offset + len as u64;
                if end > self.local_cap {
                    return Err(MemError::OutOfBounds(addr));
                }
                let arena = self.local_arena(th, end)?;
                arena[offset as usize..end as usize].copy_from_slice(bytes);
                Ok(AccessClass::Local)
            }
            Space::Func { .. } => Err(MemError::InvalidPointer(addr)),
        }
    }

    fn check_local(&self, addr: u64, team: u32, owner: u32, accessor: u32) -> Result<(), MemError> {
        // Cross-team local access is impossible under team isolation —
        // trap regardless of configuration; cross-thread access within
        // the team is what the unsound SPMD stack fast path exercises
        // and is gated by `trap_on_cross_thread_local`.
        if team != self.team {
            return Err(MemError::CrossThreadLocal {
                accessor: (self.team, accessor),
                owner: (team, owner),
            });
        }
        if owner != accessor && self.trap_cross_local {
            return Err(MemError::CrossThreadLocal {
                accessor: (self.team, accessor),
                owner: (team, owner),
            });
        }
        let _ = addr;
        Ok(())
    }

    /// Consumes the view, returning the effects to merge back into the
    /// launch-level [`Memory`].
    pub fn finish(self) -> TeamMemDelta {
        TeamMemDelta {
            pages: self.page_slots,
            shared_high_water: self.shared.alloc.high_water,
            heap_live_high: self.heap.live_high,
        }
    }
}

/// The launch-level memory system: host-visible global memory plus the
/// per-launch high-water marks folded in from each team's view.
#[derive(Debug)]
pub struct Memory {
    cfg: DeviceConfig,
    global: Vec<u8>,
    /// Dirty high-water mark: every byte of `global` at or above it is
    /// zero. Raised by `write_bytes` and `apply_delta`, rewound by
    /// `reset_global`.
    dirty_end: usize,
    global_cursor: u64,
    heap_base: u64,
    shared_static_size: u64,
    /// High-water mark of shared usage across all teams (statics +
    /// globalization stack), reported as the kernel's shared-memory
    /// footprint.
    pub shared_high_water: u64,
    /// High-water mark of heap usage.
    pub heap_high_water: u64,
}

impl Memory {
    /// Creates the memory system. `shared_static_size` is the total size
    /// of the module's static shared globals, placed at the base of
    /// every team's shared memory.
    pub fn new(cfg: &DeviceConfig, shared_static_size: u64) -> Memory {
        let heap_base = cfg.global_mem_bytes;
        Memory {
            cfg: cfg.clone(),
            global: vec![0; (cfg.global_mem_bytes + cfg.global_heap_bytes) as usize],
            dirty_end: 0,
            global_cursor: 0,
            heap_base,
            shared_static_size,
            shared_high_water: shared_static_size,
            heap_high_water: 0,
        }
    }

    /// Installs a fault plan after construction (the device owns the
    /// authoritative configuration; the memory system keeps a copy).
    pub fn set_fault_plan(&mut self, plan: crate::sanitize::FaultPlan) {
        self.cfg.fault = plan;
    }

    /// Allocates a host-visible global buffer; returns its address.
    pub fn alloc_global(&mut self, size: u64) -> Result<u64, MemError> {
        let size = size.max(1).div_ceil(8) * 8;
        if self.global_cursor + size > self.cfg.global_mem_bytes {
            return Err(MemError::GlobalExhausted);
        }
        let off = self.global_cursor;
        self.global_cursor += size;
        Ok(global_addr(off))
    }

    /// The current bump-allocator position in global memory (bytes
    /// allocated so far). Recorded by the device after construction so
    /// [`Memory::reset_global`] can rewind to exactly that state.
    pub fn global_cursor(&self) -> u64 {
        self.global_cursor
    }

    /// Creates the private memory view for one team of a launch. Views
    /// borrow the pre-launch global memory read-only, so every team of a
    /// launch can hold one simultaneously.
    pub fn team_view(&self, team: u32) -> TeamMemView<'_> {
        let statics = self.shared_static_size;
        let cap = self.cfg.shared_mem_per_team.max(statics);
        // A fault plan may cap the globalization stack below the
        // configured shared size, forcing the heap-fallback path.
        let stack_limit = match self.cfg.fault.shared_stack_limit {
            Some(l) => (statics + l).min(cap),
            None => cap,
        };
        TeamMemView {
            base: &self.global,
            team,
            page_slots: Vec::new(),
            page_index: FastMap::default(),
            last_page: [(u64::MAX, u32::MAX); 2],
            shared: TeamShared {
                data: vec![0; cap as usize],
                alloc: FreeListAlloc::new(statics, stack_limit),
            },
            local: Vec::new(),
            heap: FreeListAlloc::new(self.heap_base, self.heap_base + self.cfg.global_heap_bytes),
            heap_base: self.heap_base,
            local_cap: self.cfg.local_mem_per_thread,
            trap_cross_local: self.cfg.trap_on_cross_thread_local,
            alloc_budget: self.cfg.fault.fail_alloc_after,
        }
    }

    /// Merges one team's store journal and high-water marks back into
    /// global memory. Call once per team **in team-id order**: later
    /// teams overwrite earlier ones on (unsynchronized) conflicts, the
    /// same outcome sequential execution produces. Heap-region pages are
    /// scratch and are not written back.
    pub fn apply_delta(&mut self, delta: TeamMemDelta) {
        // Bytes at or above `limit` are never written back.
        let limit = (self.heap_base as usize).min(self.global.len());
        for (page, p) in delta.pages {
            let start = (page as usize) * PAGE;
            for w in 0..PAGE_WORDS {
                let mut bits = p.dirty[w];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let off = start + w * 64 + b;
                    if off < limit {
                        self.global[off] = p.data[w * 64 + b];
                    }
                }
            }
            // Once per page: raise the mark past its last dirty byte.
            if start < limit {
                if let Some(w) = (0..PAGE_WORDS).rev().find(|&w| p.dirty[w] != 0) {
                    let end = start + (w + 1) * 64 - p.dirty[w].leading_zeros() as usize;
                    self.dirty_end = self.dirty_end.max(end.min(limit));
                }
            }
        }
        self.shared_high_water = self.shared_high_water.max(delta.shared_high_water);
        self.heap_high_water = self.heap_high_water.max(delta.heap_live_high);
    }

    /// Host-side buffer write (no permission checks, global space only).
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        match decode(addr) {
            Some(Space::Global { offset }) => {
                let end = offset as usize + data.len();
                if end > self.global.len() {
                    return Err(MemError::OutOfBounds(addr));
                }
                self.global[offset as usize..end].copy_from_slice(data);
                self.dirty_end = self.dirty_end.max(end);
                Ok(())
            }
            _ => Err(MemError::InvalidPointer(addr)),
        }
    }

    /// Host-side buffer read.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        match decode(addr) {
            Some(Space::Global { offset }) => {
                let end = offset as usize + len;
                if end > self.global.len() {
                    return Err(MemError::OutOfBounds(addr));
                }
                Ok(self.global[offset as usize..end].to_vec())
            }
            _ => Err(MemError::InvalidPointer(addr)),
        }
    }

    /// Resets the per-launch state (high-water marks) while keeping
    /// global buffers intact. Shared/local/heap state is per-team and
    /// created fresh with each [`Memory::team_view`].
    pub fn reset_launch_state(&mut self) {
        self.shared_high_water = self.shared_static_size;
        self.heap_high_water = 0;
    }

    /// Restores global memory to a pristine state: the arena is
    /// indistinguishable from a fresh [`Memory::new`]'s (only the
    /// extent below the dirty mark can differ from zero, so only it is
    /// cleared), the bump cursor is rewound to `cursor` (the caller's
    /// record of the post-construction position, after module globals
    /// were placed), and the launch high-water marks are reset. The
    /// caller re-writes any global initializers afterwards; see
    /// `Device::reset`.
    pub fn reset_global(&mut self, cursor: u64) {
        self.global[..self.dirty_end].fill(0);
        self.dirty_end = 0;
        self.global_cursor = cursor;
        self.reset_launch_state();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(&DeviceConfig::default(), 0)
    }

    #[test]
    fn address_encoding_roundtrip() {
        assert_eq!(
            decode(global_addr(0x1234)),
            Some(Space::Global { offset: 0x1234 })
        );
        assert_eq!(
            decode(shared_addr(3, 0x40)),
            Some(Space::Shared {
                team: 3,
                offset: 0x40
            })
        );
        assert_eq!(
            decode(local_addr(2, 17, 0x100)),
            Some(Space::Local {
                team: 2,
                thread: 17,
                offset: 0x100
            })
        );
        assert_eq!(decode(func_addr(9)), Some(Space::Func { index: 9 }));
        assert_eq!(decode(0), None);
    }

    #[test]
    fn global_rw_through_view_and_merge() {
        let mut m = mem();
        let a = m.alloc_global(64).unwrap();
        let mut v = m.team_view(0);
        v.store(a, RtVal::F64(3.5), 0).unwrap();
        let (val, class) = v.load(a, Type::F64, 0).unwrap();
        assert_eq!(val, RtVal::F64(3.5));
        assert_eq!(class, AccessClass::Global);
        let delta = v.finish();
        m.apply_delta(delta);
        let bytes = m.read_bytes(a, 8).unwrap();
        assert_eq!(f64::from_le_bytes(bytes.try_into().unwrap()), 3.5);
    }

    #[test]
    fn team_views_are_isolated_until_merge() {
        let mut m = mem();
        let a = m.alloc_global(16).unwrap();
        let mut v0 = m.team_view(0);
        let mut v1 = m.team_view(1);
        v0.store(a, RtVal::I64(7), 0).unwrap();
        // Team 1 still sees the pre-launch value.
        assert_eq!(v1.load(a, Type::I64, 0).unwrap().0, RtVal::I64(0));
        // Disjoint bytes in the same page merge independently.
        v1.store(a + 8, RtVal::I64(9), 0).unwrap();
        let (d0, d1) = (v0.finish(), v1.finish());
        m.apply_delta(d0);
        m.apply_delta(d1);
        let b = m.read_bytes(a, 16).unwrap();
        assert_eq!(i64::from_le_bytes(b[..8].try_into().unwrap()), 7);
        assert_eq!(i64::from_le_bytes(b[8..].try_into().unwrap()), 9);
    }

    #[test]
    fn merge_is_last_team_wins_in_id_order() {
        let mut m = mem();
        let a = m.alloc_global(8).unwrap();
        let mut v0 = m.team_view(0);
        let mut v1 = m.team_view(1);
        v0.store(a, RtVal::I64(1), 0).unwrap();
        v1.store(a, RtVal::I64(2), 0).unwrap();
        let (d0, d1) = (v0.finish(), v1.finish());
        m.apply_delta(d0);
        m.apply_delta(d1);
        let b = m.read_bytes(a, 8).unwrap();
        assert_eq!(i64::from_le_bytes(b.try_into().unwrap()), 2);
    }

    #[test]
    fn shared_permissions() {
        let m = mem();
        let mut v = m.team_view(1);
        let a = v.alloc_shared(16).unwrap();
        v.store(a, RtVal::I32(7), 5).unwrap();
        let (val, class) = v.load(a, Type::I32, 9).unwrap();
        assert_eq!(val, RtVal::I32(7));
        assert_eq!(class, AccessClass::Shared);
        // Another team cannot touch it.
        let mut other = m.team_view(2);
        assert_eq!(
            other.load(a, Type::I32, 0).unwrap_err(),
            MemError::CrossTeamShared
        );
    }

    #[test]
    fn cross_thread_local_traps() {
        let m = mem();
        let mut v = m.team_view(0);
        let a = local_addr(0, 1, 0x10);
        v.store(a, RtVal::I32(1), 1).unwrap();
        let err = v.load(a, Type::I32, 2).unwrap_err();
        assert!(matches!(err, MemError::CrossThreadLocal { .. }));
    }

    #[test]
    fn cross_thread_local_allowed_when_configured() {
        let cfg = DeviceConfig {
            trap_on_cross_thread_local: false,
            ..DeviceConfig::default()
        };
        let m = Memory::new(&cfg, 0);
        let mut v = m.team_view(0);
        let a = local_addr(0, 1, 0x10);
        v.store(a, RtVal::I32(42), 1).unwrap();
        let (val, _) = v.load(a, Type::I32, 2).unwrap();
        assert_eq!(val, RtVal::I32(42));
    }

    #[test]
    fn cross_team_local_always_traps() {
        let cfg = DeviceConfig {
            trap_on_cross_thread_local: false,
            ..DeviceConfig::default()
        };
        let m = Memory::new(&cfg, 0);
        let mut v = m.team_view(0);
        let err = v.load(local_addr(1, 0, 0), Type::I32, 0).unwrap_err();
        assert!(matches!(err, MemError::CrossThreadLocal { .. }));
    }

    #[test]
    fn shared_overflow_falls_back_to_heap_then_oom() {
        let cfg = DeviceConfig {
            shared_mem_per_team: 64,
            global_heap_bytes: 128,
            ..DeviceConfig::default()
        };
        let m = Memory::new(&cfg, 0);
        let mut v = m.team_view(0);
        // Fill shared.
        let a = v.alloc_shared(64).unwrap();
        assert!(matches!(decode(a), Some(Space::Shared { .. })));
        // Next goes to the heap.
        let b = v.alloc_shared(64).unwrap();
        assert!(matches!(decode(b), Some(Space::Global { .. })));
        let _c = v.alloc_shared(64).unwrap();
        // Heap now exhausted.
        let err = v.alloc_shared(64).unwrap_err();
        assert!(matches!(err, MemError::HeapExhausted { .. }));
        // Freeing makes room again.
        v.free_shared(b, 64).unwrap();
        assert!(v.alloc_shared(64).is_ok());
    }

    #[test]
    fn free_list_reuses_shared() {
        let m = mem();
        let mut v = m.team_view(0);
        let a = v.alloc_shared(32).unwrap();
        v.free_shared(a, 32).unwrap();
        let b = v.alloc_shared(32).unwrap();
        assert_eq!(a, b, "freed block should be reused");
    }

    #[test]
    fn high_water_tracking() {
        let mut m = mem();
        let mut v = m.team_view(0);
        let _a = v.alloc_shared(100).unwrap();
        let _b = v.alloc_shared(100).unwrap();
        let d = v.finish();
        m.apply_delta(d);
        assert!(m.shared_high_water >= 200);
    }

    #[test]
    fn host_read_write() {
        let mut m = mem();
        let a = m.alloc_global(16).unwrap();
        m.write_bytes(a, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_bytes(a, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn dirty_mark_tracks_host_writes_and_rewinds_on_reset() {
        let mut m = mem();
        assert_eq!(m.dirty_end, 0);
        let a = m.alloc_global(64).unwrap();
        m.write_bytes(a + 8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.dirty_end, 12);
        // A lower write does not lower the mark.
        m.write_bytes(a, &[5]).unwrap();
        assert_eq!(m.dirty_end, 12);
        // The last bytes of the arena (heap region) are host-writable;
        // the mark never exceeds the arena.
        let len = m.global.len();
        m.write_bytes(global_addr(len as u64 - 2), &[6, 7]).unwrap();
        assert_eq!(m.dirty_end, len);
        m.reset_global(0);
        assert_eq!(m.dirty_end, 0);
        assert!(m.global.iter().all(|&b| b == 0));
    }

    #[test]
    fn dirty_mark_ignores_failed_host_writes() {
        let mut m = mem();
        m.write_bytes(global_addr(16), &[1; 8]).unwrap();
        let len = m.global.len() as u64;
        assert!(matches!(
            m.write_bytes(global_addr(len - 4), &[1; 8]),
            Err(MemError::OutOfBounds(_))
        ));
        assert!(matches!(
            m.write_bytes(shared_addr(0, 0), &[1; 8]),
            Err(MemError::InvalidPointer(_))
        ));
        assert!(matches!(
            m.write_bytes(0, &[1; 8]),
            Err(MemError::InvalidPointer(_))
        ));
        assert_eq!(m.dirty_end, 24);
    }

    #[test]
    fn dirty_mark_follows_merged_stores_below_the_heap_only() {
        // Shared memory too small for the allocation below, so it
        // falls back to the heap region of the arena.
        let cfg = DeviceConfig {
            shared_mem_per_team: 8,
            ..DeviceConfig::default()
        };
        let mut m = Memory::new(&cfg, 0);
        let mut v = m.team_view(0);
        let h = v.alloc_shared(64).unwrap();
        assert!(matches!(decode(h), Some(Space::Global { offset }) if offset >= m.heap_base));
        v.store(h, RtVal::I64(-1), 0).unwrap();
        let d = v.finish();
        m.apply_delta(d);
        assert_eq!(m.dirty_end, 0, "heap-region stores are dropped, not dirt");

        // A store below the heap raises the mark to its last byte, even
        // from the middle of a page and across a page boundary.
        let off = 3 * PAGE as u64 - 4;
        let mut v = m.team_view(0);
        v.store(global_addr(off), RtVal::I64(-1), 0).unwrap();
        v.store(global_addr(40), RtVal::I32(7), 0).unwrap();
        let d = v.finish();
        m.apply_delta(d);
        assert_eq!(m.dirty_end, off as usize + 8);
        assert!(m.global[m.dirty_end..].iter().all(|&b| b == 0));

        // The last bytes below the heap: the mark stops at heap_base.
        let mut v = m.team_view(1);
        v.store(global_addr(m.heap_base - 8), RtVal::I64(-1), 0)
            .unwrap();
        let d = v.finish();
        m.apply_delta(d);
        assert_eq!(m.dirty_end as u64, m.heap_base);
        assert!(m.dirty_end <= m.global.len());

        m.reset_global(0);
        assert_eq!(m.dirty_end, 0);
        assert!(m.global.iter().all(|&b| b == 0));
    }

    #[test]
    fn dirty_mark_is_clamped_when_a_page_straddles_the_heap_base() {
        // heap_base in the middle of a journal page: bytes of the page
        // at or above it are scratch and must not count.
        let cfg = DeviceConfig {
            global_mem_bytes: PAGE as u64 + 100,
            global_heap_bytes: 64,
            ..DeviceConfig::default()
        };
        let mut m = Memory::new(&cfg, 0);
        let mut v = m.team_view(0);
        v.store(global_addr(PAGE as u64 + 96), RtVal::I64(-1), 0)
            .unwrap();
        let d = v.finish();
        m.apply_delta(d);
        assert_eq!(m.dirty_end, PAGE + 100);
        assert_eq!(m.global[PAGE + 96..PAGE + 100], [0xff; 4]);
        assert!(m.global[PAGE + 100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn fault_plan_caps_shared_stack() {
        let cfg = DeviceConfig {
            fault: crate::sanitize::FaultPlan {
                shared_stack_limit: Some(16),
                ..Default::default()
            },
            ..DeviceConfig::default()
        };
        let m = Memory::new(&cfg, 0);
        let mut v = m.team_view(0);
        // Fits under the injected cap: stays in shared memory.
        let a = v.alloc_shared(16).unwrap();
        assert!(matches!(decode(a), Some(Space::Shared { .. })));
        // Exceeds the cap: falls back to the heap even though the real
        // shared capacity has plenty of room.
        let b = v.alloc_shared(16).unwrap();
        assert!(matches!(decode(b), Some(Space::Global { .. })));
    }

    #[test]
    fn fault_plan_fails_nth_allocation() {
        let cfg = DeviceConfig {
            fault: crate::sanitize::FaultPlan {
                fail_alloc_after: Some(2),
                ..Default::default()
            },
            ..DeviceConfig::default()
        };
        let m = Memory::new(&cfg, 0);
        let mut v = m.team_view(0);
        v.alloc_shared(8).unwrap();
        v.alloc_shared(8).unwrap();
        let err = v.alloc_shared(8).unwrap_err();
        assert_eq!(err, MemError::AllocFaultInjected);
        // The injected message must not look like an OOM.
        let msg = err.to_string();
        assert!(!msg.contains("memory") && !msg.contains("heap") && !msg.contains("OOM"));
    }

    #[test]
    fn out_of_bounds_detected() {
        let m = mem();
        let mut v = m.team_view(0);
        let err = v
            .load(global_addr(u64::MAX >> 8), Type::I64, 0)
            .unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds(_)));
    }
}
