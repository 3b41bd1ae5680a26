//! Cross-crate tests of the observability layer: probe wiring through
//! the serving stack, exporter round-trips, and determinism of the
//! JSONL event log across identical runs.

mod common;

use std::collections::HashSet;

use dnn_models::zoo::{build, ModelId};
use exec_planner::generate::PlanMode;
use gpu_topology::netmap::NetMap;
use gpu_topology::presets::p3_8xlarge;
use model_serving::{poisson, run_server_probed, DeployedModel, ServerConfig};
use simcore::probe::{
    parse_jsonl, to_jsonl, to_perfetto, Event, PerfettoOptions, Probe, ProbeEvent,
};
use simcore::time::SimTime;

use common::fnv1a64;

/// Runs an oversubscribed BERT-Base serving experiment (forcing cold
/// starts, evictions and PT migrations) and returns the event log.
fn probed_run(mode: PlanMode, concurrency: usize, requests: usize) -> Vec<Event> {
    let cfg = ServerConfig::paper_default(p3_8xlarge(), mode);
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::BertBase),
        &p3_8xlarge(),
        mode,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; concurrency];
    let trace = poisson::generate(100.0, concurrency, requests, SimTime::ZERO, 11);
    let (probe, log) = Probe::logging();
    let report = run_server_probed(cfg, kinds, &instance_kinds, trace, SimTime::ZERO, probe);
    assert_eq!(report.completed, requests as u64);
    let events = log.borrow().events.clone();
    events
}

#[test]
fn serving_emits_full_request_lifecycle() {
    let events = probed_run(PlanMode::PtDha, 140, 80);
    let count = |f: &dyn Fn(&ProbeEvent) -> bool| events.iter().filter(|e| f(&e.what)).count();
    let enq = count(&|w| matches!(w, ProbeEvent::RequestEnqueued { .. }));
    let disp = count(&|w| matches!(w, ProbeEvent::RequestDispatched { .. }));
    let comp = count(&|w| matches!(w, ProbeEvent::RequestCompleted { .. }));
    assert_eq!(enq, 80);
    assert_eq!(disp, 80);
    assert_eq!(comp, 80);
    // Every dispatched run id shows up in engine exec events (the causal
    // parent link holds).
    let exec_runs: HashSet<usize> = events
        .iter()
        .filter_map(|e| match e.what {
            ProbeEvent::ExecStarted { run, .. } => Some(run),
            _ => None,
        })
        .collect();
    for e in &events {
        if let ProbeEvent::RequestDispatched { run, .. } = e.what {
            assert!(exec_runs.contains(&run), "dispatched run {run} never ran");
        }
    }
    // Cold starts under PT produce loads; stalls carry a cause and pair
    // with their ends.
    assert!(count(&|w| matches!(w, ProbeEvent::LoadStarted { .. })) > 0);
    let stalls = count(&|w| matches!(w, ProbeEvent::StallStarted { .. }));
    let stall_ends = count(&|w| matches!(w, ProbeEvent::StallEnded { .. }));
    assert_eq!(stalls, stall_ends);
    // Counter tracks are populated.
    assert!(count(&|w| matches!(w, ProbeEvent::QueueDepth { .. })) > 0);
    assert!(count(&|w| matches!(w, ProbeEvent::CacheOccupancy { .. })) > 0);
    assert!(count(&|w| matches!(w, ProbeEvent::LinkShare { .. })) > 0);
    assert!(count(&|w| matches!(w, ProbeEvent::HostPinned { .. })) == 1);
    // Timestamps are monotonically non-decreasing (the sim emits in
    // event order).
    for pair in events.windows(2) {
        assert!(pair[0].at <= pair[1].at);
    }
}

#[test]
fn identical_runs_export_byte_identical_jsonl() {
    let a = to_jsonl(&probed_run(PlanMode::PtDha, 120, 60));
    let b = to_jsonl(&probed_run(PlanMode::PtDha, 120, 60));
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "two identical serving runs must serialise identically"
    );
}

#[test]
fn perfetto_export_parses_with_expected_tracks() {
    let events = probed_run(PlanMode::PtDha, 140, 80);
    let (_, map) = NetMap::build(&p3_8xlarge()).unwrap();
    let opts = PerfettoOptions {
        link_names: map.link_names(),
    };
    let out = to_perfetto(&events, &opts);
    let v: serde_json::Value = serde_json::from_str(&out).expect("Perfetto JSON parses");
    let evs = v["traceEvents"].as_array().unwrap();
    assert!(!evs.is_empty());

    // The three required counter families are all present.
    let counter_names: HashSet<&str> = evs
        .iter()
        .filter(|e| e["ph"] == "C")
        .filter_map(|e| e["name"].as_str())
        .collect();
    assert!(counter_names.iter().any(|n| n.starts_with("queue depth")));
    assert!(counter_names.iter().any(|n| n.starts_with("cache gpu")));
    assert!(counter_names.iter().any(|n| n.starts_with("bw ")));

    // Request spans open and close with matching ids.
    let begins: HashSet<u64> = evs
        .iter()
        .filter(|e| e["ph"] == "b")
        .filter_map(|e| e["id"].as_u64())
        .collect();
    let ends: HashSet<u64> = evs
        .iter()
        .filter(|e| e["ph"] == "e")
        .filter_map(|e| e["id"].as_u64())
        .collect();
    assert_eq!(begins.len(), 80);
    assert_eq!(begins, ends);

    // Stall slices carry a cause attribute.
    let stall = evs
        .iter()
        .find(|e| e["name"] == "stall")
        .expect("cold-start run stalls at least once");
    let cause = stall["args"]["cause"].as_str().unwrap();
    assert!(
        ["barrier", "pcie-load", "nvlink-migrate"].contains(&cause),
        "unknown stall cause {cause}"
    );

    // Flow arrows pair dispatches with first kernels.
    let starts = evs.iter().filter(|e| e["ph"] == "s").count();
    let finishes = evs.iter().filter(|e| e["ph"] == "f").count();
    assert_eq!(starts, 80);
    assert_eq!(finishes, 80);
}

#[test]
fn disabled_probe_matches_plain_run() {
    // run_server_probed with a disabled probe must be run_server.
    let cfg = ServerConfig::paper_default(p3_8xlarge(), PlanMode::PipeSwitch);
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::BertBase),
        &p3_8xlarge(),
        PlanMode::PipeSwitch,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; 40];
    let trace = poisson::generate(100.0, 40, 200, SimTime::ZERO, 7);
    let probed = run_server_probed(
        cfg.clone(),
        kinds.clone(),
        &instance_kinds,
        trace.clone(),
        SimTime::ZERO,
        Probe::disabled(),
    );
    let plain = model_serving::run_server(cfg, kinds, &instance_kinds, trace, SimTime::ZERO);
    assert_eq!(probed.completed, plain.completed);
    assert_eq!(probed.cold_starts, plain.cold_starts);
    assert_eq!(probed.evictions, plain.evictions);
    assert_eq!(probed.p99_ms(), plain.p99_ms());
}

fn perfetto_of(jsonl: &str, opts: &PerfettoOptions) -> String {
    to_perfetto(&parse_jsonl(jsonl).expect("golden parses"), opts)
}

fn p3_link_names() -> PerfettoOptions {
    let (_, map) = NetMap::build(&p3_8xlarge()).unwrap();
    PerfettoOptions {
        link_names: map.link_names(),
    }
}

#[test]
fn golden_trace_perfetto_export_matches_checked_in_bytes() {
    let got = perfetto_of(
        include_str!("data/golden_trace.jsonl"),
        &PerfettoOptions::default(),
    );
    let want = include_str!("data/golden_trace.perfetto.json");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "golden_trace.perfetto.json differs first at line {} (got {} bytes, want {})",
            line + 1,
            got.len(),
            want.len()
        );
    }
}

/// The fault, detection and decode goldens exercise exporter arms the
/// one-shot golden never reaches (aborts, sheds, re-plans, detector
/// verdicts, token steps, KV pages, named link counters). Their Perfetto
/// output is pinned by length and digest.
#[test]
fn variant_golden_perfetto_exports_are_pinned() {
    let named = p3_link_names();
    let default = PerfettoOptions::default();
    let cases: [(&str, &str, &PerfettoOptions, usize, u64); 5] = [
        (
            "golden_faulted.jsonl",
            include_str!("data/golden_faulted.jsonl"),
            &default,
            1_792_879,
            0xd1b7_8713_02ab_eb4e,
        ),
        (
            "golden_detection.jsonl",
            include_str!("data/golden_detection.jsonl"),
            &default,
            8_253_253,
            0x144c_c5a9_79e4_3621,
        ),
        (
            "golden_decode.jsonl",
            include_str!("data/golden_decode.jsonl"),
            &default,
            3_816_107,
            0xeff8_d562_88fb_cd14,
        ),
        (
            "golden_trace.jsonl (p3 link names)",
            include_str!("data/golden_trace.jsonl"),
            &named,
            907_330,
            0xe512_feb5_bbbb_1182,
        ),
        (
            "golden_faulted.jsonl (p3 link names)",
            include_str!("data/golden_faulted.jsonl"),
            &named,
            1_841_285,
            0x2451_64c7_ffc3_bfdf,
        ),
    ];
    for (name, jsonl, opts, len, digest) in cases {
        let out = perfetto_of(jsonl, opts);
        assert_eq!(
            (out.len(), fnv1a64(out.as_bytes())),
            (len, digest),
            "{name}: Perfetto export drifted"
        );
    }
}
