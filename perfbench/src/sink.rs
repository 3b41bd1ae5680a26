//! The traced run's probe sink: it folds the event stream into per-layer
//! counters as it arrives, so memory stays flat however long the run.
//!
//! Three things are kept beyond counters, each bounded: the event times
//! and the KV page operations the queue and pager replays need, and a
//! window of recent events that `attribution::attribute` runs over.

use std::collections::{HashMap, HashSet};

use simcore::attribution::{attribute, Cause};
use simcore::probe::{Event, EventSink, ProbeEvent, StallCause};
use simcore::time::SimTime;

/// Event times kept for the calendar-queue replay.
const MAX_TIMES: usize = 2_000_000;
/// KV page operations kept for the pager replay.
const MAX_KV_OPS: usize = 3_000_000;
/// Events buffered before the attribution window is processed.
const ATTR_WINDOW: usize = 1 << 20;
/// Concurrent-flow counts above this share one histogram bucket.
const MAX_FLOWS: usize = 256;

/// One KV pager operation seen in the probe stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// A token step started on `gpu`; the operations that follow for
    /// that GPU belong to its next step.
    Step {
        gpu: usize,
        step: u64,
    },
    Alloc {
        req: u64,
        gpu: usize,
        page: usize,
    },
    Spill {
        gpu: usize,
        page: usize,
    },
    Recall {
        gpu: usize,
        page: usize,
    },
    /// A decode session finished and freed its pages.
    Free {
        req: u64,
    },
    /// A GPU crashed and its batch's pages were freed.
    GpuFailed {
        gpu: usize,
    },
    /// The run ended: every page still live is freed.
    RunEnd,
}

/// Per-layer counters folded from one traced run.
#[derive(Default)]
pub struct Aggregate {
    pub events: u64,
    pub link_share_updates: u64,
    pub link_capacity_changes: u64,
    /// Histogram of the per-link concurrent-flow counts `LinkShare`
    /// events carry.
    pub flow_hist: Vec<u64>,
    pub flow_starts: u64,
    pub runs: u64,
    pub exec_busy_ns: u64,
    pub stall_ns: u64,
    /// Stall nanoseconds by cause: barrier, pcie-load, nvlink-migrate.
    pub stall_by_cause_ns: [u64; 3],
    pub token_steps: u64,
    pub batch_sum: u64,
    pub step_ms: Vec<f64>,
    pub dha_bytes: u64,
    pub moved_bytes: u64,
    pub times: Vec<u64>,
    pub kv_ops: Vec<KvOp>,
    /// Critical-path nanoseconds by `attribution::Cause`, summed over
    /// attributed requests.
    pub attr_ns: [u64; 8],
    pub attributed: u64,
    /// `RequestCompleted` events, warm-up included.
    pub completions: u64,
    open_stall: Vec<Option<StallCause>>,
    window: Vec<Event>,
    /// First window index of each request with a dispatch or retry but
    /// no completion or shed yet.
    in_flight: HashMap<u64, usize>,
    counted: HashSet<u64>,
    /// Events buffered before the attribution window is processed.
    attr_window: usize,
    /// Window length at which the next pass runs: `attr_window` beyond
    /// what the last pass kept, so a request in flight for a long time
    /// cannot make every new event re-scan the window.
    attr_trigger: usize,
    /// Attribution passes run so far.
    attr_passes: u64,
    /// Added to event times, so that the times of successive runs into
    /// one sink keep increasing.
    time_base: u64,
}

impl Aggregate {
    pub fn new() -> Self {
        Aggregate::with_window(ATTR_WINDOW)
    }

    fn with_window(attr_window: usize) -> Self {
        Aggregate {
            flow_hist: vec![0; MAX_FLOWS + 1],
            attr_window,
            attr_trigger: attr_window,
            ..Aggregate::default()
        }
    }

    /// Attributes every request whose events are all in the window,
    /// then drops the events no in-flight request still needs.
    fn attribute_window(&mut self) {
        for a in attribute(&self.window) {
            if self.counted.insert(a.req) {
                self.attributed += 1;
                for (i, &c) in Cause::ALL.iter().enumerate() {
                    self.attr_ns[i] += a.parts.get(c);
                }
            }
        }
        let keep_from = self
            .in_flight
            .values()
            .copied()
            .min()
            .unwrap_or(self.window.len());
        self.window.drain(..keep_from);
        for idx in self.in_flight.values_mut() {
            *idx -= keep_from;
        }
        self.attr_trigger = self.window.len() + self.attr_window;
        self.attr_passes += 1;
    }

    /// Processes what is left in the attribution window; call when a
    /// run into this sink has ended. Request ids restart with the next
    /// run.
    pub fn end_run(&mut self) {
        self.attribute_window();
        self.window.clear();
        self.in_flight.clear();
        self.counted.clear();
        self.open_stall.clear();
        self.time_base = self.times.last().map_or(0, |&t| t + 1);
        self.push_kv(KvOp::RunEnd);
    }

    /// Share of attributed critical-path time spent in `causes`.
    pub fn attr_share(&self, causes: &[Cause]) -> f64 {
        let total: u64 = self.attr_ns.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let part: u64 = Cause::ALL
            .iter()
            .zip(self.attr_ns)
            .filter(|(c, _)| causes.contains(c))
            .map(|(_, ns)| ns)
            .sum();
        part as f64 / total as f64
    }

    /// The `p`-th percentile of per-link concurrent-flow counts among
    /// `LinkShare` updates that carried at least one flow.
    pub fn flow_count_percentile(&self, p: f64) -> usize {
        let busy: u64 = self.flow_hist[1..].iter().sum();
        if busy == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * busy as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (flows, &n) in self.flow_hist.iter().enumerate().skip(1) {
            seen += n;
            if seen >= rank {
                return flows;
            }
        }
        MAX_FLOWS
    }

    fn push_kv(&mut self, op: KvOp) {
        if self.kv_ops.len() < MAX_KV_OPS {
            self.kv_ops.push(op);
        }
    }
}

impl EventSink for Aggregate {
    fn record(&mut self, at: SimTime, what: ProbeEvent) {
        self.events += 1;
        if self.times.len() < MAX_TIMES {
            self.times.push(self.time_base + at.as_nanos());
        }
        match what {
            ProbeEvent::LinkShare { flows, .. } => {
                self.link_share_updates += 1;
                self.flow_hist[flows.min(MAX_FLOWS)] += 1;
            }
            ProbeEvent::LinkCapacity { .. } => self.link_capacity_changes += 1,
            ProbeEvent::LoadStarted { .. }
            | ProbeEvent::MigrateStarted { .. }
            | ProbeEvent::KvPageSpill { .. }
            | ProbeEvent::KvPageRecall { .. }
            | ProbeEvent::KvCheckpoint { .. } => self.flow_starts += 1,
            ProbeEvent::RunCompleted {
                stall_ns,
                exec_busy_ns,
                ..
            } => {
                self.runs += 1;
                self.stall_ns += stall_ns;
                self.exec_busy_ns += exec_busy_ns;
            }
            ProbeEvent::RequestCompleted { .. } => self.completions += 1,
            ProbeEvent::StallStarted { run, cause, .. } => {
                if self.open_stall.len() <= run {
                    self.open_stall.resize(run + 1, None);
                }
                self.open_stall[run] = Some(cause);
            }
            ProbeEvent::StallEnded { run, ns, .. } => {
                if let Some(cause) = self.open_stall.get_mut(run).and_then(Option::take) {
                    let i = match cause {
                        StallCause::Barrier => 0,
                        StallCause::PcieLoad => 1,
                        StallCause::NvlinkMigrate => 2,
                    };
                    self.stall_by_cause_ns[i] += ns;
                }
            }
            ProbeEvent::TokenStepStarted {
                gpu,
                step,
                batch,
                dha_bytes,
                moved_bytes,
            } => {
                self.token_steps += 1;
                self.batch_sum += batch as u64;
                self.dha_bytes += dha_bytes;
                self.moved_bytes += moved_bytes;
                self.push_kv(KvOp::Step { gpu, step });
            }
            ProbeEvent::TokenStepFinished { ns, .. } => self.step_ms.push(ns as f64 / 1e6),
            ProbeEvent::KvPageAlloc { req, gpu, page } => {
                self.push_kv(KvOp::Alloc { req, gpu, page })
            }
            ProbeEvent::DecodeFinished { req, .. } => self.push_kv(KvOp::Free { req }),
            ProbeEvent::GpuFailed { gpu } => self.push_kv(KvOp::GpuFailed { gpu }),
            _ => {}
        }
        match what {
            ProbeEvent::KvPageSpill { gpu, page, .. } => self.push_kv(KvOp::Spill { gpu, page }),
            ProbeEvent::KvPageRecall { gpu, page, .. } => self.push_kv(KvOp::Recall { gpu, page }),
            _ => {}
        }

        let idx = self.window.len();
        self.window.push(Event { at, what });
        match what {
            ProbeEvent::RequestDispatched { req, .. } | ProbeEvent::RequestRetried { req, .. } => {
                self.in_flight.entry(req).or_insert(idx);
            }
            ProbeEvent::RequestCompleted { req, .. } | ProbeEvent::RequestShed { req, .. } => {
                self.in_flight.remove(&req);
            }
            _ => {}
        }
        if self.window.len() >= self.attr_trigger {
            self.attribute_window();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::attribution::attribute;

    fn ev(at: u64, what: ProbeEvent) -> Event {
        Event {
            at: SimTime::from_nanos(at),
            what,
        }
    }

    /// Two requests whose runs interleave, the second retried once.
    fn log() -> Vec<Event> {
        vec![
            ev(
                0,
                ProbeEvent::RequestEnqueued {
                    req: 1,
                    instance: 0,
                    gpu: 0,
                },
            ),
            ev(
                5,
                ProbeEvent::RequestDispatched {
                    req: 1,
                    instance: 0,
                    gpu: 0,
                    warm: true,
                    run: 0,
                },
            ),
            ev(
                6,
                ProbeEvent::RequestEnqueued {
                    req: 2,
                    instance: 1,
                    gpu: 1,
                },
            ),
            ev(
                7,
                ProbeEvent::ExecStarted {
                    run: 0,
                    layer: 0,
                    gpu: 0,
                    dha: false,
                },
            ),
            ev(
                8,
                ProbeEvent::RequestDispatched {
                    req: 2,
                    instance: 1,
                    gpu: 1,
                    warm: false,
                    run: 1,
                },
            ),
            ev(9, ProbeEvent::RunAborted { run: 1, gpu: 1 }),
            ev(
                10,
                ProbeEvent::RequestRetried {
                    req: 2,
                    instance: 1,
                    gpu: 1,
                    attempt: 1,
                },
            ),
            ev(
                12,
                ProbeEvent::RequestDispatched {
                    req: 2,
                    instance: 1,
                    gpu: 1,
                    warm: false,
                    run: 1,
                },
            ),
            ev(
                13,
                ProbeEvent::StallStarted {
                    run: 1,
                    layer: 0,
                    gpu: 1,
                    cause: StallCause::PcieLoad,
                },
            ),
            ev(
                20,
                ProbeEvent::ExecFinished {
                    run: 0,
                    layer: 0,
                    gpu: 0,
                },
            ),
            ev(
                20,
                ProbeEvent::RequestCompleted {
                    req: 1,
                    instance: 0,
                    gpu: 0,
                    cold: false,
                    latency_ns: 20,
                    queue_wait_ns: 5,
                },
            ),
            ev(
                25,
                ProbeEvent::StallEnded {
                    run: 1,
                    layer: 0,
                    gpu: 1,
                    ns: 12,
                },
            ),
            ev(
                25,
                ProbeEvent::ExecStarted {
                    run: 1,
                    layer: 0,
                    gpu: 1,
                    dha: true,
                },
            ),
            ev(
                30,
                ProbeEvent::ExecFinished {
                    run: 1,
                    layer: 0,
                    gpu: 1,
                },
            ),
            ev(
                30,
                ProbeEvent::RequestCompleted {
                    req: 2,
                    instance: 1,
                    gpu: 1,
                    cold: true,
                    latency_ns: 24,
                    queue_wait_ns: 2,
                },
            ),
        ]
    }

    #[test]
    fn windowed_attribution_equals_whole_log_attribution() {
        let events = log();
        let mut whole = [0u64; 8];
        for a in attribute(&events) {
            for (i, &c) in Cause::ALL.iter().enumerate() {
                whole[i] += a.parts.get(c);
            }
        }
        // Process the window after every event: the most aggressive
        // trimming must still see each request's full history.
        let mut agg = Aggregate::new();
        for e in &events {
            agg.record(e.at, e.what);
            agg.attribute_window();
        }
        agg.end_run();
        assert_eq!(agg.attributed, 2);
        assert_eq!(agg.attr_ns, whole);
        assert_eq!(agg.attr_ns.iter().sum::<u64>(), 44);
        assert!(agg.window.is_empty());
        assert_eq!(agg.stall_by_cause_ns, [0, 12, 0]);
    }

    #[test]
    fn a_long_request_does_not_make_every_event_rescan_the_window() {
        let enqueue = |req| ProbeEvent::RequestEnqueued {
            req,
            instance: 0,
            gpu: 0,
        };
        let dispatch = |req| ProbeEvent::RequestDispatched {
            req,
            instance: 0,
            gpu: 0,
            warm: true,
            run: 0,
        };
        let complete = |req, latency_ns| ProbeEvent::RequestCompleted {
            req,
            instance: 0,
            gpu: 0,
            cold: false,
            latency_ns,
            queue_wait_ns: 0,
        };
        // Request 0 stays in flight while 200 short requests come and
        // go: its dispatch pins the window's start for the whole run.
        let mut events = vec![ev(0, enqueue(0)), ev(0, dispatch(0))];
        for req in 1..=200 {
            let at = req * 10;
            events.push(ev(at, enqueue(req)));
            events.push(ev(at + 1, dispatch(req)));
            events.push(ev(at + 5, complete(req, 5)));
        }
        events.push(ev(3_000, complete(0, 3_000)));
        let mut whole = [0u64; 8];
        for a in attribute(&events) {
            for (i, &c) in Cause::ALL.iter().enumerate() {
                whole[i] += a.parts.get(c);
            }
        }

        let window = 16;
        let mut agg = Aggregate::with_window(window);
        for e in &events {
            agg.record(e.at, e.what);
        }
        let passes = agg.attr_passes;
        agg.end_run();
        assert_eq!(agg.attributed, 201);
        assert_eq!(agg.attr_ns, whole);
        // One pass per `window` new events, not one per event once the
        // window has filled.
        assert_eq!(passes, (events.len() / window) as u64);
    }

    #[test]
    fn flow_percentile_ignores_idle_links() {
        let mut agg = Aggregate::new();
        for flows in [0, 0, 0, 1, 2, 2, 5] {
            agg.record(
                SimTime::ZERO,
                ProbeEvent::LinkShare {
                    link: 0,
                    rate_bps: 1.0,
                    flows,
                },
            );
        }
        assert_eq!(agg.flow_count_percentile(50.0), 2);
        assert_eq!(agg.flow_count_percentile(100.0), 5);
        assert_eq!(Aggregate::new().flow_count_percentile(90.0), 0);
    }
}
