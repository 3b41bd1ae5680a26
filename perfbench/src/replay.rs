//! Replays of the traced run through three layers' public APIs, timed
//! in isolation: the calendar queue, the max-min flow network and the
//! KV pager. Each returns host nanoseconds per operation.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use gpu_topology::netmap::NetMap;
use gpu_topology::presets::p3_8xlarge;
use model_serving::KvPager;
use simcore::flow::{FlowId, LinkId};
use simcore::sim::CalendarQueue;
use simcore::time::SimTime;

use crate::sink::KvOp;

/// Events held in the queue while replaying: every popped event is
/// replaced by the traced event this many positions later.
const QUEUE_HOLD: usize = 1024;

/// Pushes and pops the traced event times through a [`CalendarQueue`]
/// in hold-model order; returns host ns per push or pop.
pub fn calendar_queue(times: &[u64]) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    let mut q = CalendarQueue::new();
    let mut ops = 0u64;
    for (i, &at) in times.iter().enumerate() {
        if i >= QUEUE_HOLD {
            black_box(q.pop());
            ops += 1;
        }
        q.push(SimTime::from_nanos(at), i as u64, i);
        ops += 1;
    }
    while let Some(e) = q.pop() {
        black_box(e);
        ops += 1;
    }
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// How often, in completions, the flow replay changes a link capacity
/// and cancels a flow; zero disables either.
#[derive(Debug, Clone, Copy)]
pub struct FlowMix {
    pub concurrent: usize,
    pub capacity_every: usize,
    pub cancel_every: usize,
}

/// Keeps `mix.concurrent` host→GPU flows in flight on the p3.8xlarge
/// flow network, restarting each as it completes, until
/// `completions_wanted` have completed; returns host ns per flow-network operation (add,
/// completion, cancel or capacity change, each of which re-rates).
pub fn flow_net(mix: FlowMix, completions_wanted: usize) -> f64 {
    if mix.concurrent == 0 {
        return 0.0;
    }
    let machine = p3_8xlarge();
    let (mut net, map) = NetMap::build(&machine).expect("p3.8xlarge is a valid topology");
    let paths: Vec<Vec<LinkId>> = (0..machine.gpu_count())
        .map(|g| map.host_to_gpu(&machine, g))
        .collect();
    let pcie = map.gpu_pcie[0];
    let healthy = net.link_capacity(pcie);
    let size = |i: usize| ((1 + i % 7) << 20) as f64;

    let t = Instant::now();
    let mut live: Vec<FlowId> = Vec::with_capacity(mix.concurrent);
    let mut started = 0usize;
    let mut ops = 0u64;
    for _ in 0..mix.concurrent {
        live.push(net.add_flow(size(started), paths[started % paths.len()].clone()));
        started += 1;
        ops += 1;
    }
    let mut now = SimTime::ZERO;
    let mut completions = 0usize;
    while completions < completions_wanted {
        let Some(next) = net.next_completion_time(now) else {
            break;
        };
        now = next;
        net.advance(now);
        for done in net.take_completed() {
            live.retain(|&f| f != done);
            completions += 1;
            ops += 1;
            if mix.capacity_every > 0 && completions.is_multiple_of(mix.capacity_every) {
                let degraded = net.link_capacity(pcie) < healthy;
                net.set_link_capacity(pcie, if degraded { healthy } else { healthy * 0.2 });
                ops += 1;
            }
            if mix.cancel_every > 0
                && completions.is_multiple_of(mix.cancel_every)
                && !live.is_empty()
            {
                let victim = live.swap_remove(completions % live.len());
                net.cancel_flow(victim);
                ops += 1;
            }
            while live.len() < mix.concurrent {
                live.push(net.add_flow(size(started), paths[started % paths.len()].clone()));
                started += 1;
                ops += 1;
            }
        }
    }
    black_box(&net);
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// Pager geometry for the KV replay.
#[derive(Debug, Clone, Copy)]
pub struct PagerShape {
    pub page_bytes: u64,
    pub gpus: usize,
    pub gpu_pool_bytes: u64,
    pub host_pool_bytes: u64,
}

/// Replays the traced allocation, spill, recall and free sequence
/// through a fresh [`KvPager`]. Each traced run of spills is preceded by
/// the batched `spill_victims` scan the server makes for it. Returns
/// host ns per pager call and the calls made.
pub fn kv_pager(ops: &[KvOp], shape: PagerShape) -> (f64, u64) {
    if ops.is_empty() {
        return (0.0, 0);
    }
    let t = Instant::now();
    let mut pager = KvPager::new(
        shape.page_bytes,
        shape.gpus,
        shape.gpu_pool_bytes,
        shape.host_pool_bytes,
    );
    let mut step = vec![0u64; shape.gpus];
    // Traced page id → replayed page id, and each live request's GPU.
    let mut pages: HashMap<usize, usize> = HashMap::new();
    let mut req_gpu: HashMap<u64, usize> = HashMap::new();
    let mut calls = 0u64;
    let mut i = 0;
    while i < ops.len() {
        match ops[i] {
            KvOp::Step { gpu, step: s } => step[gpu] = s,
            KvOp::Alloc { req, gpu, page } => {
                if let Some(id) = pager.try_alloc(req, gpu, step[gpu] + 1) {
                    pages.insert(page, id);
                }
                req_gpu.insert(req, gpu);
                calls += 1;
            }
            KvOp::Spill { gpu, .. } => {
                let run = ops[i..]
                    .iter()
                    .take_while(|op| matches!(op, KvOp::Spill { gpu: g, .. } if *g == gpu))
                    .count();
                black_box(pager.spill_victims(gpu, step[gpu] + 1, run));
                calls += 1;
                for op in &ops[i..i + run] {
                    if let KvOp::Spill { page, .. } = *op {
                        if let Some(&id) = pages.get(&page) {
                            pager.spill(id);
                        }
                        calls += 1;
                    }
                }
                i += run;
                continue;
            }
            KvOp::Recall { gpu, page } => {
                if let Some(&id) = pages.get(&page) {
                    pager.recall(id, gpu, step[gpu] + 1);
                }
                calls += 1;
            }
            KvOp::Free { req } => {
                pager.free_request(req);
                req_gpu.remove(&req);
                calls += 1;
            }
            KvOp::GpuFailed { gpu } => {
                calls += free_where(&mut pager, &mut req_gpu, |g| g == gpu);
            }
            KvOp::RunEnd => {
                calls += free_where(&mut pager, &mut req_gpu, |_| true);
                pages.clear();
                step.fill(0);
            }
        }
        i += 1;
    }
    calls += free_where(&mut pager, &mut req_gpu, |_| true);
    black_box(&pager);
    (t.elapsed().as_nanos() as f64 / calls as f64, calls)
}

/// Frees every live request whose GPU matches, in request order;
/// returns the pager calls made.
fn free_where(
    pager: &mut KvPager,
    req_gpu: &mut HashMap<u64, usize>,
    on: impl Fn(usize) -> bool,
) -> u64 {
    let mut victims: Vec<u64> = req_gpu
        .iter()
        .filter(|&(_, &g)| on(g))
        .map(|(&r, _)| r)
        .collect();
    victims.sort_unstable();
    for req in &victims {
        pager.free_request(*req);
        req_gpu.remove(req);
    }
    victims.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_replay_counts_every_push_and_pop() {
        let times: Vec<u64> = (0..5_000u64).map(|i| i * 10 + i % 3).collect();
        assert!(calendar_queue(&times) > 0.0);
        assert_eq!(calendar_queue(&[]), 0.0);
    }

    #[test]
    fn pager_replay_frees_everything_it_allocated() {
        let shape = PagerShape {
            page_bytes: 1,
            gpus: 1,
            gpu_pool_bytes: 2,
            host_pool_bytes: 8,
        };
        let ops = [
            KvOp::Alloc {
                req: 1,
                gpu: 0,
                page: 0,
            },
            KvOp::Alloc {
                req: 1,
                gpu: 0,
                page: 1,
            },
            KvOp::Step { gpu: 0, step: 1 },
            KvOp::Spill { gpu: 0, page: 0 },
            KvOp::Alloc {
                req: 2,
                gpu: 0,
                page: 2,
            },
            KvOp::Recall { gpu: 0, page: 0 },
            KvOp::Free { req: 1 },
            KvOp::GpuFailed { gpu: 0 },
            KvOp::RunEnd,
            KvOp::Alloc {
                req: 1,
                gpu: 0,
                page: 0,
            },
        ];
        let (ns, calls) = kv_pager(&ops, shape);
        assert!(ns > 0.0);
        // 3 allocs, 1 scan + 1 spill, 1 recall, 1 free, 1 crash free,
        // then the next run's alloc and its final free.
        assert_eq!(calls, 10);
    }

    #[test]
    fn flow_replay_runs_with_and_without_faults() {
        let quiet = FlowMix {
            concurrent: 4,
            capacity_every: 0,
            cancel_every: 0,
        };
        assert!(flow_net(quiet, 500) > 0.0);
        let faulty = FlowMix {
            capacity_every: 5,
            cancel_every: 7,
            ..quiet
        };
        assert!(flow_net(faulty, 500) > 0.0);
        assert_eq!(
            flow_net(
                FlowMix {
                    concurrent: 0,
                    ..quiet
                },
                500
            ),
            0.0
        );
    }
}
