//! The four pinned workloads: how each input is built from the seed,
//! and how one repetition drives the simulator over it.

use std::time::Instant;

use dnn_models::zoo::{build, ModelId};
use exec_planner::generate::PlanMode;
use gpu_topology::netmap::NetMap;
use gpu_topology::presets::p3_8xlarge;
use model_serving::decode::{assign_lengths, LengthDist};
use model_serving::maf::{self, MafShape};
use model_serving::{
    poisson, run_server_faulted, DeployedModel, Request, ServerConfig, ServingReport,
};
use simcore::attribution::{analyze, Analysis};
use simcore::fault::FaultSpec;
use simcore::probe::{parse_jsonl, to_jsonl, to_perfetto, Event, PerfettoOptions, Probe};
use simcore::rng::derive_seed;
use simcore::stats::Samples;
use simcore::time::{SimDur, SimTime};

use crate::spans::Tracer;

/// One pinned workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 15 mix, MAF-like arrivals, cold-start bound, probe off.
    MafOneshot,
    /// GPT-2 continuous batching against a tight KV pool, probe off.
    DecodeKv,
    /// Decode with resilience, recovery and detection under GPU crashes,
    /// a flapping link and silent faults, probe off.
    DecodeChaos,
    /// A shorter MAF trace recorded by the probe, then exported and
    /// analysed.
    MafExplain,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::MafOneshot,
        Workload::DecodeKv,
        Workload::DecodeChaos,
        Workload::MafExplain,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MafOneshot => "maf-oneshot",
            Workload::DecodeKv => "decode-kv",
            Workload::DecodeChaos => "decode-chaos",
            Workload::MafExplain => "maf-explain",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests stream tokens (TTFT/TPOT) rather than finish in
    /// one shot.
    pub fn is_decode(self) -> bool {
        matches!(self, Workload::DecodeKv | Workload::DecodeChaos)
    }
}

/// Fig 15 arrival rate and fleet size.
const MAF_RATE: f64 = 150.0;
const MAF_INSTANCES: usize = 300;
/// Measured horizon of `maf-oneshot`.
const ONESHOT_HORIZON_S: u64 = 180;
/// `maf-explain` keeps the full probe log: one trace's log and its
/// exports peak at about 300 MB, so its traces are short. Below the knee
/// its median latency is steady across seeds; at 150 rps the median of
/// 10 s traces spread 10-13 % across seeds.
const EXPLAIN_RATE: f64 = 75.0;
const EXPLAIN_HORIZON_S: u64 = 16;
/// Simulated seconds every MAF trace runs before latencies count: the
/// fleet starts with empty GPU caches.
const MAF_WARMUP_S: u64 = 5;

/// Decode fleet: GPT-2 instances, Poisson arrivals below saturation.
const DECODE_INSTANCES: usize = 16;
const DECODE_RATE: f64 = 80.0;
const DECODE_REQUESTS: usize = 8_000;
const DECODE_PAGE_BYTES: u64 = 64 << 10;
const DECODE_GPU_POOL_BYTES: u64 = 64 << 20;
/// `decode-chaos` arrivals: slower than `decode-kv`, so that crashes do
/// not tip the fleet into a backlog.
const CHAOS_RATE: f64 = 60.0;
const CHAOS_REQUESTS: usize = 20_000;

/// The chaos soak's decode fault spec, two independently crashing GPUs
/// and a flapping PCIe link, plus silent faults for the gray-failure
/// detector to infer: the first transfer on PCIe 1 and 2 wedges (the
/// fleet's first cold loads, which the detector hedges), and GPU 2
/// computes 3x slower for 2 s (which it quarantines).
const DECODE_CHAOS_SPEC: &str = "gpu-crash:gpu=1,mtbf=2s,mttr=400ms; \
                                 gpu-crash:gpu=3,mtbf=3s,mttr=600ms; \
                                 link-flap:pcie=0,up=700ms,down=150ms,factor=0.2; \
                                 stuck-flow@1ms:pcie=1,stall=300ms; \
                                 stuck-flow@1ms:pcie=2,stall=300ms; \
                                 silent-gpu-slow@20s:gpu=2,factor=3; \
                                 silent-gpu-restore@22s:gpu=2";
const CHAOS_QUEUE_CAP: usize = 64;
/// The fault schedule is part of the workload and fixed; the benchmark
/// seed varies the traffic that meets it.
const CHAOS_FAULT_SEED: u64 = 0xDECA7;

impl Workload {
    /// Independent traces the workload simulates per repetition. A short
    /// trace's latencies swing with the seed (one traffic sample can tip
    /// the fleet into a congested regime for the whole trace), so the
    /// noisier workloads pool several samples. Each trace stays small,
    /// which keeps `maf-explain`'s probe log, and so its memory, flat.
    pub fn sub_runs(self) -> usize {
        match self {
            Workload::MafOneshot => 1,
            Workload::DecodeKv | Workload::MafExplain => 3,
            Workload::DecodeChaos => 4,
        }
    }
}

/// Everything one repetition needs, built from the seed.
pub struct Input {
    pub cfg: ServerConfig,
    pub kinds: Vec<DeployedModel>,
    pub instance_kinds: Vec<usize>,
    /// One arrival trace per sub-run.
    pub traces: Vec<Vec<Request>>,
    /// Requests arriving earlier warm the fleet up and are left out of
    /// the report's latencies and completions.
    pub measure_from: SimTime,
    pub faults: FaultSpec,
    pub perfetto: PerfettoOptions,
}

impl Input {
    /// Requests over all sub-runs.
    pub fn requests(&self) -> u64 {
        self.traces.iter().map(|t| t.len() as u64).sum()
    }

    /// Requests inside the measured windows of all sub-runs.
    pub fn measured_total(&self) -> u64 {
        (0..self.traces.len()).map(|k| self.measured(k)).sum()
    }

    /// Requests of sub-run `k` that arrive inside the measured window.
    pub fn measured(&self, k: usize) -> u64 {
        self.traces[k]
            .iter()
            .filter(|r| r.at >= self.measure_from)
            .count() as u64
    }
}

/// Host seconds spent in each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Model build, profiling and planning (`DeployedModel::prepare`).
    pub prepare_s: f64,
    /// Trace, token-length and fault-schedule generation.
    pub generate_s: f64,
}

impl SetupTimes {
    pub fn total_s(self) -> f64 {
        self.prepare_s + self.generate_s
    }
}

/// Builds the workload's input from `seed`.
pub fn setup(w: Workload, seed: u64, tr: &mut Tracer) -> (Input, SetupTimes) {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    let models: Vec<ModelId> = match w {
        Workload::MafOneshot | Workload::MafExplain => {
            vec![ModelId::BertBase, ModelId::RobertaBase, ModelId::Gpt2]
        }
        Workload::DecodeKv | Workload::DecodeChaos => vec![ModelId::Gpt2],
    };
    if w.is_decode() {
        cfg.decode.enabled = true;
        cfg.decode.page_bytes = DECODE_PAGE_BYTES;
        cfg.decode.gpu_pool_bytes = DECODE_GPU_POOL_BYTES;
    }
    if w == Workload::DecodeChaos {
        cfg.decode_resilience.enabled = true;
        cfg.recovery.enabled = true;
        cfg.detection.enabled = true;
        cfg.admission.queue_cap = Some(CHAOS_QUEUE_CAP);
    }

    let t = Instant::now();
    let kinds: Vec<DeployedModel> = tr.span("DeployedModel::prepare", || {
        models
            .iter()
            .map(|&id| DeployedModel::prepare(&build(id), &machine, mode, cfg.max_pt_gpus))
            .collect()
    });
    let prepare_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (instance_kinds, traces, measure_from, faults) = tr.span("workload::generate", || {
        let seeds = (0..w.sub_runs() as u64).map(|k| derive_seed(seed, k));
        match w {
            Workload::MafOneshot | Workload::MafExplain => {
                let (rate, horizon) = if w == Workload::MafOneshot {
                    (MAF_RATE, ONESHOT_HORIZON_S)
                } else {
                    (EXPLAIN_RATE, EXPLAIN_HORIZON_S)
                };
                let traces: Vec<Vec<Request>> = seeds
                    .map(|s| {
                        maf::generate(
                            rate,
                            MAF_INSTANCES,
                            SimDur::from_secs(MAF_WARMUP_S + horizon),
                            MafShape::default(),
                            s,
                        )
                    })
                    .collect();
                let from = SimTime::ZERO + SimDur::from_secs(MAF_WARMUP_S);
                (fig15_mix(MAF_INSTANCES), traces, from, FaultSpec::none())
            }
            Workload::DecodeKv | Workload::DecodeChaos => {
                let (rate, requests) = if w == Workload::DecodeChaos {
                    (CHAOS_RATE, CHAOS_REQUESTS)
                } else {
                    (DECODE_RATE, DECODE_REQUESTS)
                };
                let traces: Vec<Vec<Request>> = seeds
                    .map(|s| {
                        let mut trace =
                            poisson::generate(rate, DECODE_INSTANCES, requests, SimTime::ZERO, s);
                        assign_lengths(&mut trace, LengthDist::default(), s);
                        trace
                    })
                    .collect();
                let faults = if w == Workload::DecodeChaos {
                    FaultSpec::parse(DECODE_CHAOS_SPEC, CHAOS_FAULT_SEED)
                        .expect("the chaos spec is valid")
                } else {
                    FaultSpec::none()
                };
                (vec![0; DECODE_INSTANCES], traces, SimTime::ZERO, faults)
            }
        }
    });
    let generate_s = t.elapsed().as_secs_f64();

    let (_, map) = NetMap::build(&machine).expect("p3.8xlarge is a valid topology");
    let perfetto = PerfettoOptions {
        link_names: map.link_names(),
    };
    let input = Input {
        cfg,
        kinds,
        instance_kinds,
        traces,
        measure_from,
        faults,
        perfetto,
    };
    (
        input,
        SetupTimes {
            prepare_s,
            generate_s,
        },
    )
}

/// The paper's 4:4:1 BERT-Base / RoBERTa-Base / GPT-2 instance mix.
fn fig15_mix(total: usize) -> Vec<usize> {
    let n_gpt = total / 9;
    let n_bert = (total - n_gpt) / 2;
    let n_roberta = total - n_gpt - n_bert;
    let mut kinds = Vec::with_capacity(total);
    kinds.extend(std::iter::repeat_n(0, n_bert));
    kinds.extend(std::iter::repeat_n(1, n_roberta));
    kinds.extend(std::iter::repeat_n(2, n_gpt));
    kinds
}

/// Runs the simulator over sub-run `k`'s trace with `probe` installed.
pub fn simulate(input: &Input, k: usize, probe: Probe, tr: &mut Tracer) -> ServingReport {
    // Cloned before the span: copying the input is not serving work.
    let cfg = input.cfg.clone();
    let kinds = input.kinds.clone();
    let trace = input.traces[k].clone();
    tr.span("run_server_faulted", || {
        run_server_faulted(
            cfg,
            kinds,
            &input.instance_kinds,
            trace,
            input.measure_from,
            probe,
            &input.faults,
        )
    })
}

/// What the `maf-explain` export pipeline produced.
pub struct Explained {
    pub events: Vec<Event>,
    pub jsonl: String,
    pub analysis: Analysis,
    /// Host seconds of the recorded simulation, then of each export step.
    pub simulate_s: f64,
    pub to_jsonl_s: f64,
    pub parse_jsonl_s: f64,
    pub analyze_s: f64,
    pub to_perfetto_s: f64,
}

/// Records the run's probe log, then runs the steps behind
/// `serve --events-out` followed by `deepplan-cli analyze`:
/// `to_jsonl` → `parse_jsonl` → `analyze` → `to_perfetto`.
pub fn explain(input: &Input, k: usize, tr: &mut Tracer) -> (ServingReport, Explained) {
    let (probe, log) = Probe::logging();
    let t = Instant::now();
    let report = simulate(input, k, probe, tr);
    let simulate_s = t.elapsed().as_secs_f64();
    let events = std::mem::take(&mut log.borrow_mut().events);

    let t = Instant::now();
    let jsonl = tr.span("probe::to_jsonl", || to_jsonl(&events));
    let to_jsonl_s = t.elapsed().as_secs_f64();
    drop(events);

    let t = Instant::now();
    let parsed = tr.span("probe::parse_jsonl", || parse_jsonl(&jsonl));
    let parse_jsonl_s = t.elapsed().as_secs_f64();
    let parsed = parsed.expect("the exporter's own JSONL parses");

    let t = Instant::now();
    let analysis = tr.span("attribution::analyze", || analyze(&parsed));
    let analyze_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    tr.span("probe::to_perfetto", || {
        to_perfetto(&parsed, &input.perfetto)
    });
    let to_perfetto_s = t.elapsed().as_secs_f64();

    (
        report,
        Explained {
            events: parsed,
            jsonl,
            analysis,
            simulate_s,
            to_jsonl_s,
            parse_jsonl_s,
            analyze_s,
            to_perfetto_s,
        },
    )
}

/// The sub-runs' reports as one: counters summed, samples concatenated
/// in sub-run order.
pub fn pool(reports: &[ServingReport]) -> ServingReport {
    let first = reports.first().expect("at least one sub-run");
    let mut p = ServingReport::new(first.slo, SimDur::from_secs(60));
    let cat = |get: fn(&ServingReport) -> &Samples| {
        let mut s = Samples::new();
        for r in reports {
            for &v in get(r).raw() {
                s.push(v);
            }
        }
        s
    };
    p.latencies = cat(|r| &r.latencies);
    p.queue_wait = cat(|r| &r.queue_wait);
    p.ttft = cat(|r| &r.ttft);
    p.tpot = cat(|r| &r.tpot);
    p.recovery_restore_ttft = cat(|r| &r.recovery_restore_ttft);
    p.recovery_reprefill_ttft = cat(|r| &r.recovery_reprefill_ttft);
    for r in reports {
        p.completed += r.completed;
        p.cold_starts += r.cold_starts;
        p.evictions += r.evictions;
        p.host_pinned_bytes = p.host_pinned_bytes.max(r.host_pinned_bytes);
        p.shed += r.shed;
        p.retries += r.retries;
        p.gpu_failures += r.gpu_failures;
        p.aborted_runs += r.aborted_runs;
        p.replans += r.replans;
        p.plan_migrations += r.plan_migrations;
        p.quarantines += r.quarantines;
        p.reinstates += r.reinstates;
        p.canaries += r.canaries;
        p.hedged_transfers += r.hedged_transfers;
        p.checksum_refetches += r.checksum_refetches;
        p.decode_completed += r.decode_completed;
        p.tokens_generated += r.tokens_generated;
        p.kv_spills += r.kv_spills;
        p.kv_recalls += r.kv_recalls;
        p.kv_dha_reads += r.kv_dha_reads;
        p.kv_alloc_failures += r.kv_alloc_failures;
        p.kv_live_pages_at_end += r.kv_live_pages_at_end;
        p.kv_allocs += r.kv_allocs;
        p.kv_frees_gpu += r.kv_frees_gpu;
        p.kv_frees_host += r.kv_frees_host;
        p.ckpt_sessions += r.ckpt_sessions;
        p.ckpt_bytes += r.ckpt_bytes;
        p.restore_decisions += r.restore_decisions;
        p.reprefill_decisions += r.reprefill_decisions;
        p.sessions_restored += r.sessions_restored;
        p.sessions_reprefilled += r.sessions_reprefilled;
        p.sessions_swapped += r.sessions_swapped;
        p.sessions_resumed += r.sessions_resumed;
        p.sessions_truncated += r.sessions_truncated;
        p.sim_events += r.sim_events;
    }
    p
}
