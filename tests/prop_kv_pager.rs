//! Property tests for the paged KV-cache allocator: across arbitrary
//! alloc / touch / spill / recall / abort histories, no page is ever
//! leaked or double-freed, the device- and host-pool occupancy counters
//! always equal ground truth, and the LRU spill victim is never a page
//! touched in the current token step.
//!
//! The pager is driven against an independent shadow model (a plain
//! map of live pages) so every invariant is checked against state the
//! pager itself cannot have computed.

use std::collections::{BTreeMap, BTreeSet};

use model_serving::kvcache::{KvPager, PageHome};
use proptest::prelude::*;

const GPUS: usize = 2;
/// Requests the random histories draw from.
const REQS: u64 = 6;

/// One step of a random pager history.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate a fresh page for `req` on `gpu` in the current step.
    Alloc { req: u64, gpu: usize },
    /// Spill the LRU victim of `gpu`, if any.
    Spill { gpu: usize },
    /// Batched victim selection + spill of up to `k` pages.
    BatchSpill { gpu: usize, k: usize },
    /// Recall the `nth` host-resident page (mod population) to `gpu`.
    Recall { gpu: usize, nth: usize },
    /// Touch the `nth` page of `req` in the current step.
    Touch { req: u64, nth: usize },
    /// Abort/complete `req`: free all its pages.
    Free { req: u64 },
    /// Advance to the next token step.
    Step,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..REQS, 0usize..GPUS).prop_map(|(req, gpu)| Op::Alloc { req, gpu }),
            (0usize..GPUS).prop_map(|gpu| Op::Spill { gpu }),
            (0usize..GPUS, 0usize..5).prop_map(|(gpu, k)| Op::BatchSpill { gpu, k }),
            (0usize..GPUS, 0usize..8).prop_map(|(gpu, nth)| Op::Recall { gpu, nth }),
            (0u64..REQS, 0usize..8).prop_map(|(req, nth)| Op::Touch { req, nth }),
            (0u64..REQS).prop_map(|req| Op::Free { req }),
            Just(Op::Step),
        ],
        1..150,
    )
}

/// Ground truth the pager never sees: live pages by id, plus which
/// pages were touched (written, allocated or recalled) this step.
#[derive(Clone, Default)]
struct Shadow {
    live: BTreeMap<usize, (u64, PageHome)>,
    touched_this_step: BTreeSet<usize>,
    allocs: u64,
    frees: u64,
}

impl Shadow {
    fn occupancy(&self, home: PageHome) -> u64 {
        self.live.values().filter(|&&(_, h)| h == home).count() as u64
    }

    fn owned(&self, req: u64, home: PageHome) -> u64 {
        self.live
            .values()
            .filter(|&&(owner, h)| owner == req && h == home)
            .count() as u64
    }

    /// Reference LRU oracle: every page on `gpu` not touched in the
    /// current step, oldest touch first (ties on the lower page id),
    /// by a full scan of the shadow. Ignores host room.
    fn eviction_order(&self, p: &KvPager, gpu: usize) -> Vec<usize> {
        let mut order: Vec<(u64, usize)> = self
            .live
            .iter()
            .filter(|(id, &(_, h))| h == PageHome::Gpu(gpu) && !self.touched_this_step.contains(id))
            .map(|(&id, _)| (p.page(id).expect("shadow page is live").last_touch, id))
            .collect();
        order.sort_unstable();
        order.into_iter().map(|(_, id)| id).collect()
    }

    /// The oracle's single spill victim on `gpu`: the head of its
    /// eviction order, if the host pool has room.
    fn victim(&self, p: &KvPager, gpu: usize) -> Option<usize> {
        if p.host_used_pages() >= p.host_cap_pages() {
            return None;
        }
        self.eviction_order(p, gpu).first().copied()
    }

    fn check(&self, p: &KvPager, step: u64) {
        let room = (p.host_cap_pages() - p.host_used_pages()) as usize;
        for g in 0..GPUS {
            assert_eq!(
                p.gpu_used_pages(g),
                self.occupancy(PageHome::Gpu(g)),
                "gpu {g} occupancy diverged from ground truth"
            );
            assert!(
                p.gpu_used_pages(g) <= p.gpu_cap_pages(g),
                "gpu {g} over cap"
            );
            // Asking for every page walks the whole LRU list, so a
            // missed unlink or re-link shows up at once.
            let mut order = self.eviction_order(p, g);
            order.truncate(room);
            assert_eq!(
                p.spill_victims(g, step, self.live.len()),
                order,
                "gpu {g} LRU walk diverged from the oracle's eviction order"
            );
        }
        for req in 0..REQS {
            assert_eq!(
                p.host_pages_of(req),
                self.owned(req, PageHome::Host),
                "req {req} host pages diverged from ground truth"
            );
            for g in 0..GPUS {
                assert_eq!(
                    p.gpu_pages_of(req, g),
                    self.owned(req, PageHome::Gpu(g)),
                    "req {req} pages on gpu {g} diverged from ground truth"
                );
            }
        }
        assert_eq!(
            p.host_used_pages(),
            self.occupancy(PageHome::Host),
            "host occupancy diverged from ground truth"
        );
        assert!(p.host_used_pages() <= p.host_cap_pages(), "host over cap");
        assert_eq!(p.live_pages() as u64, self.allocs - self.frees, "page leak");
        assert_eq!(p.allocs, self.allocs);
        assert_eq!(p.frees, self.frees);
    }
}

fn spill_one(p: &mut KvPager, shadow: &mut Shadow, step: u64, gpu: usize, victim: usize) {
    // The LRU victim is never a page touched in the current step, is
    // GPU-resident, and is the pager's own idea of a live page.
    assert!(
        !shadow.touched_this_step.contains(&victim),
        "victim {victim} was touched in the current step"
    );
    let (_, home) = shadow.live[&victim];
    assert_eq!(home, PageHome::Gpu(gpu), "victim not resident on gpu {gpu}");
    assert!(p.page(victim).unwrap().touch_step != step);
    assert!(p.spill(victim));
    shadow.live.get_mut(&victim).unwrap().1 = PageHome::Host;
}

proptest! {
    #[test]
    fn random_histories_never_leak_and_counters_match_ground_truth(
        ops in arb_ops(),
        host_pages in prop_oneof![Just(6u64), Just(16)],
    ) {
        // 4 device pages per GPU, 1 KiB each — small enough that random
        // histories hit every full-pool edge. A 6-page host pool fills
        // up; a 16-page one never caps the victim walk, so `check` then
        // compares each GPU's whole LRU list with the oracle.
        let mut p = KvPager::new(1024, GPUS, 4 * 1024, host_pages * 1024);
        let mut shadow = Shadow::default();
        let mut step = 1u64;
        for op in ops {
            match op {
                Op::Alloc { req, gpu } => {
                    let full = p.gpu_used_pages(gpu) >= p.gpu_cap_pages(gpu);
                    match p.try_alloc(req, gpu, step) {
                        Some(id) => {
                            prop_assert!(!full, "alloc succeeded on a full pool");
                            prop_assert!(
                                !shadow.live.contains_key(&id),
                                "page {id} double-allocated while live"
                            );
                            shadow.live.insert(id, (req, PageHome::Gpu(gpu)));
                            shadow.touched_this_step.insert(id);
                            shadow.allocs += 1;
                        }
                        None => prop_assert!(full, "alloc failed with free room"),
                    }
                }
                Op::Spill { gpu } => {
                    let got = p.spill_victims(gpu, step, 1).first().copied();
                    prop_assert_eq!(got, shadow.victim(&p, gpu));
                    if let Some(v) = got {
                        spill_one(&mut p, &mut shadow, step, gpu, v);
                    } else {
                        // No victim: every resident page is hot, or the
                        // host pool is full.
                        let host_full = p.host_used_pages() >= p.host_cap_pages();
                        let all_hot = shadow
                            .live
                            .iter()
                            .filter(|(_, &(_, h))| h == PageHome::Gpu(gpu))
                            .all(|(id, _)| shadow.touched_this_step.contains(id));
                        prop_assert!(host_full || all_hot);
                    }
                }
                Op::BatchSpill { gpu, k } => {
                    // The list walk must equal k rounds of the oracle's
                    // single-victim selection, then actually spill.
                    let batched = p.spill_victims(gpu, step, k);
                    let mut serial = p.clone();
                    let mut serial_shadow = shadow.clone();
                    let mut expect = Vec::new();
                    for _ in 0..k {
                        let Some(v) = serial_shadow.victim(&serial, gpu) else {
                            break;
                        };
                        serial.spill(v);
                        serial_shadow.live.get_mut(&v).unwrap().1 = PageHome::Host;
                        expect.push(v);
                    }
                    prop_assert_eq!(&batched, &expect);
                    for v in batched {
                        spill_one(&mut p, &mut shadow, step, gpu, v);
                    }
                }
                Op::Recall { gpu, nth } => {
                    let host: Vec<usize> = shadow
                        .live
                        .iter()
                        .filter(|(_, &(_, h))| h == PageHome::Host)
                        .map(|(&id, _)| id)
                        .collect();
                    if host.is_empty() {
                        continue;
                    }
                    let id = host[nth % host.len()];
                    let full = p.gpu_used_pages(gpu) >= p.gpu_cap_pages(gpu);
                    if p.recall(id, gpu, step) {
                        prop_assert!(!full, "recall succeeded into a full pool");
                        shadow.live.get_mut(&id).unwrap().1 = PageHome::Gpu(gpu);
                        // A recall is an access: pinned for this step.
                        shadow.touched_this_step.insert(id);
                    } else {
                        prop_assert!(full, "recall failed with free room");
                    }
                }
                Op::Touch { req, nth } => {
                    let pages = p.pages_of(req).to_vec();
                    if pages.is_empty() {
                        continue;
                    }
                    let id = pages[nth % pages.len()];
                    p.touch(id, step);
                    shadow.touched_this_step.insert(id);
                }
                Op::Free { req } => {
                    let owned: Vec<usize> = shadow
                        .live
                        .iter()
                        .filter(|(_, &(owner, _))| owner == req)
                        .map(|(&id, _)| id)
                        .collect();
                    let freed = p.free_request(req);
                    prop_assert_eq!(
                        freed.gpu + freed.host,
                        owned.len() as u64,
                        "free must release exactly the owned pages"
                    );
                    for id in &owned {
                        prop_assert!(p.page(*id).is_none(), "freed page still live");
                        shadow.live.remove(id);
                        shadow.touched_this_step.remove(id);
                    }
                    shadow.frees += owned.len() as u64;
                    // Double-free is a no-op.
                    let again = p.free_request(req);
                    prop_assert_eq!(again.gpu + again.host, 0, "double-free released pages");
                }
                Op::Step => {
                    step += 1;
                    shadow.touched_this_step.clear();
                }
            }
            shadow.check(&p, step);
        }
        // Drain everything: a fully freed pager reports empty.
        for req in 0..REQS {
            let freed = p.free_request(req);
            shadow.frees += freed.gpu + freed.host;
        }
        prop_assert!(p.is_empty(), "pages leaked after freeing every request");
        prop_assert_eq!(p.allocs, p.frees);
    }
}
