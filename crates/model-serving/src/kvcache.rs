//! Paged KV-cache allocator for autoregressive decode.
//!
//! The decode path stores each request's attention KV tensors in
//! fixed-size *pages*. Pages live in a per-GPU device pool while hot and
//! are spilled to a pinned-host pool under memory pressure, travelling
//! over the same PCIe flow network as weight loads. Spilled pages are
//! either *recalled* (copied back, like a weight load) or read in place
//! via direct-host-access — the per-page analogue of the paper's
//! load-vs-DHA layer decision.
//!
//! [`KvPager`] is deliberately a pure data structure: it never touches
//! the simulator. The serving layer decides *when* to spill/recall and
//! starts the corresponding flows; the pager only tracks page homes and
//! occupancy, which keeps it directly property-testable (no leaked or
//! double-freed page across arbitrary histories, counters always equal
//! ground truth, LRU victims never touched in the current token step).
//!
//! Every operation costs O(pages it changes), never O(slab): each GPU
//! keeps its resident pages on an intrusive doubly-linked LRU list, and
//! each request keeps a count of its host-resident pages.

use std::collections::BTreeMap;

/// Index of a page in the pager's slab. Stable for the page's lifetime.
pub type PageId = usize;

/// Where a page's bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageHome {
    /// Device pool of the given GPU.
    Gpu(usize),
    /// Pinned-host spill pool.
    Host,
}

/// One KV page.
#[derive(Debug, Clone, Copy)]
pub struct KvPage {
    /// Request id owning the page.
    pub owner: u64,
    /// Current residency.
    pub home: PageHome,
    /// Monotonic stamp of the last touch (write/append), for LRU.
    pub last_touch: u64,
    /// Token step id of the last touch; the spill policy never victimises
    /// a page touched in the step currently executing.
    pub touch_step: u64,
}

/// End-of-list marker for the intrusive LRU links.
const NIL: u32 = u32::MAX;

/// A request's pages in allocation order (tail = newest), plus how many
/// of them are host-resident.
#[derive(Debug, Clone, Default)]
struct ReqPages {
    ids: Vec<PageId>,
    host: u64,
}

/// Pages freed by [`KvPager::free_request`], split by residency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreedPages {
    /// Pages that were GPU-resident.
    pub gpu: u64,
    /// Pages that were host-resident.
    pub host: u64,
}

/// Paged KV-cache allocator: per-GPU device pools plus one pinned-host
/// spill pool, all in units of fixed-size pages.
#[derive(Debug, Clone)]
pub struct KvPager {
    page_bytes: u64,
    gpu_cap: Vec<u64>,
    gpu_used: Vec<u64>,
    host_cap: u64,
    host_used: u64,
    /// Page slab with an explicit free list (deterministic reuse order).
    pages: Vec<Option<KvPage>>,
    free: Vec<PageId>,
    /// Per-GPU LRU lists over the slab: `prev`/`next` run parallel to
    /// `pages`, and `head` (least recent) / `tail` (most recent) are per
    /// GPU. Every touch takes a fresh stamp from the global
    /// `touch_clock` and moves the page to its GPU's tail, so each list
    /// is sorted by `last_touch`.
    prev: Vec<u32>,
    next: Vec<u32>,
    head: Vec<u32>,
    tail: Vec<u32>,
    by_req: BTreeMap<u64, ReqPages>,
    touch_clock: u64,
    /// Lifetime op counters (monotonic; for reports and tests).
    pub allocs: u64,
    /// Pages spilled GPU→host over the pager's lifetime.
    pub spills: u64,
    /// Pages recalled host→GPU over the pager's lifetime.
    pub recalls: u64,
    /// Pages freed over the pager's lifetime
    /// (always `frees_gpu + frees_host`).
    pub frees: u64,
    /// Pages freed while device-resident over the pager's lifetime.
    pub frees_gpu: u64,
    /// Pages freed while host-resident (spilled) over the pager's
    /// lifetime. Splitting the frees by the page's home at free time
    /// keeps the lifetime ledger reconcilable even when a batch dies
    /// mid-spill: `allocs == frees_gpu + frees_host` once drained, with
    /// no page counted under both homes.
    pub frees_host: u64,
}

impl KvPager {
    /// Builds a pager with `gpus` device pools of `gpu_pool_bytes` each
    /// and a `host_pool_bytes` pinned spill pool. Capacities round down
    /// to whole pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes == 0`.
    pub fn new(page_bytes: u64, gpus: usize, gpu_pool_bytes: u64, host_pool_bytes: u64) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        KvPager {
            page_bytes,
            gpu_cap: vec![gpu_pool_bytes / page_bytes; gpus],
            gpu_used: vec![0; gpus],
            host_cap: host_pool_bytes / page_bytes,
            host_used: 0,
            pages: Vec::new(),
            free: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            head: vec![NIL; gpus],
            tail: vec![NIL; gpus],
            by_req: BTreeMap::new(),
            touch_clock: 0,
            allocs: 0,
            spills: 0,
            recalls: 0,
            frees: 0,
            frees_gpu: 0,
            frees_host: 0,
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Pages needed for `bytes` of KV (ceiling division).
    pub fn pages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_bytes)
    }

    /// Allocates a fresh GPU-resident page for `req` on `gpu`, touched in
    /// `step`. Fails (returns `None`) when the device pool is full — the
    /// caller must spill a victim first.
    pub fn try_alloc(&mut self, req: u64, gpu: usize, step: u64) -> Option<PageId> {
        if self.gpu_used[gpu] >= self.gpu_cap[gpu] {
            return None;
        }
        self.gpu_used[gpu] += 1;
        self.touch_clock += 1;
        let page = KvPage {
            owner: req,
            home: PageHome::Gpu(gpu),
            last_touch: self.touch_clock,
            touch_step: step,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.pages[id] = Some(page);
                id
            }
            None => {
                assert!(
                    self.pages.len() < NIL as usize,
                    "page slab exceeds u32 links"
                );
                self.pages.push(Some(page));
                self.prev.push(NIL);
                self.next.push(NIL);
                self.pages.len() - 1
            }
        };
        self.push_tail(gpu, id);
        self.by_req.entry(req).or_default().ids.push(id);
        self.allocs += 1;
        Some(id)
    }

    /// Marks `page` as touched in `step` (its owner appended to it).
    pub fn touch(&mut self, page: PageId, step: u64) {
        self.touch_clock += 1;
        let clock = self.touch_clock;
        let Some(p) = self.pages.get_mut(page).and_then(|p| p.as_mut()) else {
            return;
        };
        p.last_touch = clock;
        p.touch_step = step;
        if let PageHome::Gpu(g) = p.home {
            self.unlink(g, page);
            self.push_tail(g, page);
        }
    }

    /// Appends `id` to `gpu`'s LRU list as its most recent page.
    fn push_tail(&mut self, gpu: usize, id: PageId) {
        let link = id as u32;
        let old = self.tail[gpu];
        self.prev[id] = old;
        self.next[id] = NIL;
        match old {
            NIL => self.head[gpu] = link,
            t => self.next[t as usize] = link,
        }
        self.tail[gpu] = link;
    }

    /// Removes `id` from `gpu`'s LRU list.
    fn unlink(&mut self, gpu: usize, id: PageId) {
        let (p, n) = (self.prev[id], self.next[id]);
        match p {
            NIL => self.head[gpu] = n,
            p => self.next[p as usize] = n,
        }
        match n {
            NIL => self.tail[gpu] = p,
            n => self.prev[n as usize] = p,
        }
        self.prev[id] = NIL;
        self.next[id] = NIL;
    }

    /// Up to `k` LRU spill candidates on `gpu`, in eviction order: the
    /// GPU-resident pages with the oldest touches that were *not*
    /// touched in the current `step` (pages being written this step are
    /// pinned), capped by the host pool's remaining room. Calling
    /// [`KvPager::spill`] on each returned page in order evicts them
    /// oldest first. Walks `gpu`'s LRU list from its head, so the cost
    /// is the victims plus the pinned pages skipped, not the slab.
    pub fn spill_victims(&self, gpu: usize, step: u64, k: usize) -> Vec<PageId> {
        let room = usize::try_from(self.host_cap.saturating_sub(self.host_used)).unwrap_or(0);
        let k = k.min(room);
        let mut victims = Vec::with_capacity(k.min(self.gpu_used[gpu] as usize));
        let mut at = self.head[gpu];
        while victims.len() < k && at != NIL {
            let id = at as usize;
            if self.pages[id].expect("listed page is live").touch_step != step {
                victims.push(id);
            }
            at = self.next[id];
        }
        victims
    }

    /// Free pages remaining in `gpu`'s device pool.
    pub fn gpu_free_pages(&self, gpu: usize) -> u64 {
        self.gpu_cap[gpu] - self.gpu_used[gpu]
    }

    /// Moves a GPU-resident page to the host pool. Returns `false` (and
    /// changes nothing) if the page is unknown, already host-resident, or
    /// the host pool is full.
    pub fn spill(&mut self, page: PageId) -> bool {
        if self.host_used >= self.host_cap {
            return false;
        }
        let Some(p) = self.pages.get_mut(page).and_then(|p| p.as_mut()) else {
            return false;
        };
        let PageHome::Gpu(gpu) = p.home else {
            return false;
        };
        p.home = PageHome::Host;
        let owner = p.owner;
        self.unlink(gpu, page);
        self.by_req
            .get_mut(&owner)
            .expect("live page has an owner")
            .host += 1;
        self.gpu_used[gpu] -= 1;
        self.host_used += 1;
        self.spills += 1;
        true
    }

    /// Moves a host-resident page back to `gpu`'s pool for use in token
    /// step `step`. A recall is an access: the page's LRU recency is
    /// refreshed and it is pinned against eviction for the rest of the
    /// step (recalling and re-spilling the same page within one step
    /// would be pure churn). Returns `false` (and changes nothing) if
    /// the page is unknown, not host-resident, or the device pool is
    /// full.
    pub fn recall(&mut self, page: PageId, gpu: usize, step: u64) -> bool {
        if self.gpu_used[gpu] >= self.gpu_cap[gpu] {
            return false;
        }
        let Some(p) = self.pages.get_mut(page).and_then(|p| p.as_mut()) else {
            return false;
        };
        if p.home != PageHome::Host {
            return false;
        }
        p.home = PageHome::Gpu(gpu);
        self.touch_clock += 1;
        p.last_touch = self.touch_clock;
        p.touch_step = step;
        let owner = p.owner;
        self.push_tail(gpu, page);
        self.by_req
            .get_mut(&owner)
            .expect("live page has an owner")
            .host -= 1;
        self.host_used -= 1;
        self.gpu_used[gpu] += 1;
        self.recalls += 1;
        true
    }

    /// Frees every page of `req` (completion or abort), returning the
    /// counts by residency. Idempotent: a second call frees nothing.
    pub fn free_request(&mut self, req: u64) -> FreedPages {
        let mut freed = FreedPages::default();
        let Some(owned) = self.by_req.remove(&req) else {
            return freed;
        };
        for id in owned.ids {
            let Some(p) = self.pages[id].take() else {
                continue;
            };
            match p.home {
                PageHome::Gpu(g) => {
                    self.unlink(g, id);
                    self.gpu_used[g] -= 1;
                    freed.gpu += 1;
                    self.frees_gpu += 1;
                }
                PageHome::Host => {
                    self.host_used -= 1;
                    freed.host += 1;
                    self.frees_host += 1;
                }
            }
            self.free.push(id);
            self.frees += 1;
        }
        freed
    }

    /// Immutable view of one page.
    pub fn page(&self, id: PageId) -> Option<&KvPage> {
        self.pages.get(id).and_then(|p| p.as_ref())
    }

    /// Page ids of `req` in allocation order (empty slice if unknown).
    pub fn pages_of(&self, req: u64) -> &[PageId] {
        self.by_req.get(&req).map_or(&[], |r| r.ids.as_slice())
    }

    /// Number of `req`'s pages currently host-resident.
    pub fn host_pages_of(&self, req: u64) -> u64 {
        self.by_req.get(&req).map_or(0, |r| r.host)
    }

    /// Number of `req`'s pages currently on `gpu`.
    pub fn gpu_pages_of(&self, req: u64, gpu: usize) -> u64 {
        self.pages_of(req)
            .iter()
            .filter(|&&id| self.page(id).map(|p| p.home) == Some(PageHome::Gpu(gpu)))
            .count() as u64
    }

    /// Pages used in `gpu`'s device pool.
    pub fn gpu_used_pages(&self, gpu: usize) -> u64 {
        self.gpu_used[gpu]
    }

    /// Capacity of `gpu`'s device pool, in pages.
    pub fn gpu_cap_pages(&self, gpu: usize) -> u64 {
        self.gpu_cap[gpu]
    }

    /// Pages used in the pinned-host pool.
    pub fn host_used_pages(&self) -> u64 {
        self.host_used
    }

    /// Capacity of the pinned-host pool, in pages.
    pub fn host_cap_pages(&self) -> u64 {
        self.host_cap
    }

    /// Bytes used in `gpu`'s device pool.
    pub fn gpu_used_bytes(&self, gpu: usize) -> u64 {
        self.gpu_used[gpu] * self.page_bytes
    }

    /// Bytes used in the pinned-host pool.
    pub fn host_used_bytes(&self) -> u64 {
        self.host_used * self.page_bytes
    }

    /// Total live pages across all pools, from the lifetime ledger.
    pub fn live_pages(&self) -> usize {
        let live = (self.allocs - self.frees) as usize;
        debug_assert_eq!(
            live,
            self.pages.iter().filter(|p| p.is_some()).count(),
            "pager ledger diverged from the slab"
        );
        live
    }

    /// Whether no page is live anywhere (all requests fully freed).
    pub fn is_empty(&self) -> bool {
        self.live_pages() == 0 && self.host_used == 0 && self.gpu_used.iter().all(|&u| u == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pager() -> KvPager {
        // 4 pages per GPU, 8 host pages, 1 KiB pages.
        KvPager::new(1024, 2, 4 * 1024, 8 * 1024)
    }

    /// The single LRU victim on `gpu` in `step`, if any.
    fn victim(p: &KvPager, gpu: usize, step: u64) -> Option<PageId> {
        p.spill_victims(gpu, step, 1).first().copied()
    }

    #[test]
    fn alloc_fills_pool_then_fails() {
        let mut p = pager();
        for i in 0..4 {
            assert!(p.try_alloc(7, 0, 1).is_some(), "alloc {i}");
        }
        assert_eq!(p.try_alloc(7, 0, 1), None);
        assert_eq!(p.gpu_used_pages(0), 4);
        assert_eq!(p.gpu_used_pages(1), 0);
        assert_eq!(p.pages_of(7).len(), 4);
    }

    #[test]
    fn spill_recall_roundtrip_preserves_ownership() {
        let mut p = pager();
        let a = p.try_alloc(1, 0, 1).unwrap();
        let b = p.try_alloc(2, 0, 2).unwrap();
        // Victim in step 2 must be `a` (b was touched this step).
        assert_eq!(victim(&p, 0, 2), Some(a));
        assert!(p.spill(a));
        assert_eq!(p.host_used_pages(), 1);
        assert_eq!(p.host_pages_of(1), 1);
        assert!(p.recall(a, 1, 3));
        assert_eq!(p.page(a).unwrap().home, PageHome::Gpu(1));
        assert_eq!(p.page(a).unwrap().owner, 1);
        assert_eq!(p.host_used_pages(), 0);
        // The recall counts as a step-3 touch: `a` is pinned for step 3.
        assert_eq!(victim(&p, 1, 3), None);
        let _ = b;
    }

    #[test]
    fn batched_victims_match_one_at_a_time_selection() {
        let mut p = KvPager::new(1024, 1, 16 * 1024, 16 * 1024);
        for req in 0..6u64 {
            p.try_alloc(req, 0, req).unwrap();
        }
        p.touch(p.pages_of(1)[0], 9); // Hot in step 9: never a victim.
        let batched = p.spill_victims(0, 9, 3);
        let mut serial = p.clone();
        let mut expect = Vec::new();
        for _ in 0..3 {
            let v = victim(&serial, 0, 9).unwrap();
            serial.spill(v);
            expect.push(v);
        }
        assert_eq!(batched, expect);
        assert_eq!(
            batched,
            vec![p.pages_of(0)[0], p.pages_of(2)[0], p.pages_of(3)[0]]
        );
        // Capped by host room: a 2-page host pool yields 2 victims.
        let tight = KvPager::new(1024, 1, 16 * 1024, 2 * 1024);
        let mut tight = {
            let mut t = tight;
            for req in 0..4u64 {
                t.try_alloc(req, 0, req).unwrap();
            }
            t
        };
        assert_eq!(tight.spill_victims(0, 9, 4).len(), 2);
        // Asking for more than is eligible returns only the eligible.
        tight.touch(tight.pages_of(2)[0], 9);
        tight.touch(tight.pages_of(3)[0], 9);
        let got = tight.spill_victims(0, 9, 4);
        assert_eq!(got, vec![tight.pages_of(0)[0], tight.pages_of(1)[0]]);
    }

    #[test]
    fn victim_skips_pages_touched_this_step() {
        let mut p = pager();
        let a = p.try_alloc(1, 0, 1).unwrap();
        let _b = p.try_alloc(2, 0, 1).unwrap();
        // Everything touched in step 1 → no victim within step 1.
        assert_eq!(victim(&p, 0, 1), None);
        p.touch(a, 3);
        // In step 3, `a` is hot; b (older touch) is the victim.
        assert_eq!(victim(&p, 0, 3), Some(_b));
    }

    #[test]
    fn free_request_is_idempotent_and_splits_by_home() {
        let mut p = pager();
        let a = p.try_alloc(9, 0, 1).unwrap();
        let _b = p.try_alloc(9, 0, 1).unwrap();
        assert!(p.spill(a));
        let freed = p.free_request(9);
        assert_eq!(freed, FreedPages { gpu: 1, host: 1 });
        assert_eq!(p.free_request(9), FreedPages::default());
        assert!(p.is_empty());
        // Lifetime ledger reconciles by home: a page spilled before its
        // request died counts once, as a host free, never under both.
        assert_eq!(p.frees_gpu, 1);
        assert_eq!(p.frees_host, 1);
        assert_eq!(p.frees, p.frees_gpu + p.frees_host);
        assert_eq!(p.allocs, p.frees_gpu + p.frees_host);
    }

    #[test]
    fn slab_reuses_freed_slots_deterministically() {
        let mut p = pager();
        let a = p.try_alloc(1, 0, 1).unwrap();
        p.free_request(1);
        let b = p.try_alloc(2, 0, 2).unwrap();
        assert_eq!(a, b, "freed slot must be reused");
        assert_eq!(p.page(b).unwrap().owner, 2);
    }

    #[test]
    fn spill_respects_host_capacity() {
        let mut p = KvPager::new(1024, 1, 4 * 1024, 1024); // 1 host page.
        let a = p.try_alloc(1, 0, 1).unwrap();
        let b = p.try_alloc(1, 0, 1).unwrap();
        assert!(p.spill(a));
        assert!(!p.spill(b), "host pool full");
        assert_eq!(victim(&p, 0, 99), None, "no victim when host full");
        assert_eq!(p.host_used_pages(), 1);
    }

    #[test]
    fn pages_for_rounds_up() {
        let p = pager();
        assert_eq!(p.pages_for(0), 0);
        assert_eq!(p.pages_for(1), 1);
        assert_eq!(p.pages_for(1024), 1);
        assert_eq!(p.pages_for(1025), 2);
    }
}
