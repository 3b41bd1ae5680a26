//! Invariants of captured execution traces.

use deepplan::{DeepPlan, ModelId, PlanMode};
use exec_engine::launch::LaunchSpec;
use exec_engine::single::run_traced;
use exec_engine::timeline::{lanes, render};
use gpu_topology::presets::p3_8xlarge;
use simcore::probe::{Event, ProbeEvent};

fn traced(mode: PlanMode) -> (exec_engine::InferenceResult, Vec<Event>) {
    traced_model(ModelId::BertBase, mode)
}

fn traced_model(model: ModelId, mode: PlanMode) -> (exec_engine::InferenceResult, Vec<Event>) {
    let machine = p3_8xlarge();
    let dp = DeepPlan::new(machine.clone()).with_exact_profile();
    let b = dp.plan_mode(model, 1, mode);
    let spec = LaunchSpec {
        rt: b.runtime.clone(),
        plan: b.plan.clone(),
        primary: 0,
        secondaries: b.secondaries_for(0),
        warm: false,
        skip_exec: false,
        bulk_migrate: false,
        distributed: false,
        exec_scale: 1.0,
        verify_loads: false,
        hedge: None,
    };
    run_traced(machine, spec)
}

#[test]
fn events_are_time_ordered_and_paired() {
    for mode in [PlanMode::PipeSwitch, PlanMode::Dha, PlanMode::PtDha] {
        let (_, trace) = traced(mode);
        assert!(
            trace.windows(2).all(|w| w[0].at <= w[1].at),
            "{mode}: trace not time-sorted"
        );
        let starts = trace
            .iter()
            .filter(|e| matches!(e.what, ProbeEvent::ExecStarted { .. }))
            .count();
        let ends = trace
            .iter()
            .filter(|e| matches!(e.what, ProbeEvent::ExecFinished { .. }))
            .count();
        assert_eq!(starts, ends, "{mode}: unpaired exec events");
        let ls = trace
            .iter()
            .filter(|e| matches!(e.what, ProbeEvent::LoadStarted { .. }))
            .count();
        let le = trace
            .iter()
            .filter(|e| matches!(e.what, ProbeEvent::LoadFinished { .. }))
            .count();
        assert_eq!(ls, le, "{mode}: unpaired load events");
    }
}

#[test]
fn exec_intervals_never_overlap() {
    let (_, trace) = traced(PlanMode::PtDha);
    let exec = lanes(&trace, 0)
        .into_iter()
        .find(|l| l.label == "exec")
        .expect("exec lane");
    let mut busy: Vec<_> = exec
        .intervals
        .iter()
        .filter(|(_, _, g)| *g != '.')
        .collect();
    busy.sort_by_key(|(a, _, _)| *a);
    for w in busy.windows(2) {
        assert!(
            w[0].1 <= w[1].0,
            "overlapping exec intervals: {:?} and {:?}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn exec_busy_matches_trace_intervals() {
    let (res, trace) = traced(PlanMode::Dha);
    let exec = lanes(&trace, 0)
        .into_iter()
        .find(|l| l.label == "exec")
        .expect("exec lane");
    let busy_ns: u64 = exec
        .intervals
        .iter()
        .filter(|(_, _, g)| *g != '.')
        .map(|(a, b, _)| b.as_nanos() - a.as_nanos())
        .sum();
    let reported = res.exec_busy.as_nanos();
    assert!(
        busy_ns.abs_diff(reported) <= reported / 100,
        "trace busy {busy_ns} vs result {reported}"
    );
    let stall_ns: u64 = exec
        .intervals
        .iter()
        .filter(|(_, _, g)| *g == '.')
        .map(|(a, b, _)| b.as_nanos() - a.as_nanos())
        .sum();
    assert!(
        stall_ns.abs_diff(res.stall.as_nanos()) <= res.stall.as_nanos() / 100 + 1,
        "trace stall {stall_ns} vs result {}",
        res.stall.as_nanos()
    );
}

#[test]
fn pt_trace_contains_two_load_slots_and_migrations() {
    let (_, trace) = traced(PlanMode::PtDha);
    let lane_labels: Vec<String> = lanes(&trace, 0).into_iter().map(|l| l.label).collect();
    assert!(
        lane_labels.contains(&"load s0".to_string()),
        "{lane_labels:?}"
    );
    assert!(
        lane_labels.contains(&"load s1".to_string()),
        "{lane_labels:?}"
    );
    assert!(
        lane_labels.contains(&"migrate".to_string()),
        "{lane_labels:?}"
    );
}

#[test]
fn dha_layers_show_as_dha_glyph() {
    let (_, trace) = traced(PlanMode::Dha);
    let has_dha_exec = trace
        .iter()
        .any(|e| matches!(e.what, ProbeEvent::ExecStarted { dha: true, .. }));
    assert!(has_dha_exec, "no DHA execution in a DHA-mode trace");
}

/// The `examples/timeline.rs` charts (header line + 100-column render,
/// legend omitted) for three models under the three cold-start modes on
/// p3.8xlarge, byte-for-byte as checked in.
#[test]
fn timeline_charts_match_checked_in_golden() {
    let mut out = String::new();
    for model in [ModelId::BertBase, ModelId::Gpt2, ModelId::ResNet50] {
        for mode in [PlanMode::PipeSwitch, PlanMode::Dha, PlanMode::PtDha] {
            let (res, trace) = traced_model(model, mode);
            out.push_str(&format!(
                "== {model} under {} — {:.2} ms (stall {:.2} ms) ==\n{}\n",
                mode.label(),
                res.latency().as_ms_f64(),
                res.stall.as_ms_f64(),
                render(&lanes(&trace, 0), 100)
            ));
        }
    }
    let golden = include_str!("data/golden_timeline.txt");
    assert!(out == golden, "timeline drifted:\n{out}");
}
