//! The DeepPlan simulator benchmark: one command that measures a pinned
//! workload end to end (host time, memory and simulated service) or,
//! with `--trace 1`, layer by layer, and checks the simulator's outputs
//! on the way. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload maf-oneshot --seed 1 --seconds 15 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test --seed 1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A correctness or validity breach prints `correct: false`, counts every
//! request as failed and exits with code 1.

mod checks;
mod metrics;
mod replay;
mod sink;
mod spans;
mod stats;
mod workloads;
mod yardstick;

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use model_serving::ServingReport;
use simcore::attribution::Cause;
use simcore::probe::{to_jsonl, EventSink, Probe, ProbeEvent};

use metrics::{Metrics, END_TO_END, PER_LAYER};
use sink::Aggregate;
use spans::Tracer;
use stats::{median, percentile};
use workloads::{explain, pool, setup, simulate, Explained, Input, SetupTimes, Workload};

/// Set-ups per batch and batches per run; `setup_s` is the median over
/// every set-up.
const SETUP_BATCH: usize = 10;
const SETUP_BATCHES: usize = 10;
const SETUP_REPS: usize = SETUP_BATCH * SETUP_BATCHES;
/// Timed repetitions at least, however long each takes.
const MIN_REPS: usize = 3;
/// Flow completions the flow-network replay runs through.
const FLOW_COMPLETIONS: usize = 50_000;
/// Mixed into the seed for the self-test's held-out input.
const HELD_OUT: u64 = 0x5EED_0FF5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <maf-oneshot|decode-kv|decode-chaos|maf-explain> \
     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test [--seed <n>]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.self_test {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(&args);
    }
    let w = args.workload.expect("checked by parse_args");
    let mut tr = Tracer::new();
    let outcome = if args.trace {
        per_layer(w, &args, &mut tr)
    } else {
        end_to_end(w, &args, &mut tr)
    };
    if args.trace {
        write_spans(w, args.seed, &tr);
    }
    println!("{}", outcome.json());
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        for e in &outcome.errors {
            eprintln!("breach: {e}");
        }
        ExitCode::from(1)
    }
}

/// A run's result: the metrics, the requests simulated and any breach.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    errors: Vec<String>,
}

impl Outcome {
    fn json(&self) -> String {
        let correct = self.errors.is_empty();
        let failed = if correct { 0 } else { self.attempted };
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
            self.attempted.max(1),
            self.metrics.json()
        )
    }
}

/// The set-ups of one run: the last input, and the median host time of
/// each step and of the whole.
struct Setups {
    input: Input,
    per_step: SetupTimes,
    total_s: f64,
    /// The median of the set-up times, each scaled by the yardstick runs
    /// on either side of its batch.
    scaled_s: f64,
}

/// Sets the workload up `SETUP_REPS` times in batches, with a yardstick
/// run before the first batch and after each one; the yardstick times
/// are appended to `yards`.
fn setup_reps(w: Workload, seed: u64, tr: &mut Tracer, yards: &mut Vec<f64>) -> Setups {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut scaled = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    tr.enter("setup");
    yards.push(tr.span("yardstick", yardstick::run));
    for _ in 0..SETUP_BATCHES {
        let batch = times.len();
        for _ in 0..SETUP_BATCH {
            let (i, t) = setup(w, seed, tr);
            times.push(t);
            input = Some(i);
        }
        let before = *yards.last().expect("one yardstick ran before");
        let after = tr.span("yardstick", yardstick::run);
        yards.push(after);
        let k = yardstick::scale(before, after);
        scaled.extend(times[batch..].iter().map(|t| t.total_s() * k));
    }
    tr.exit();
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    Setups {
        input: input.expect("SETUP_REPS > 0"),
        per_step: SetupTimes {
            prepare_s: med(|t| t.prepare_s),
            generate_s: med(|t| t.generate_s),
        },
        total_s: med(|t| t.total_s()),
        scaled_s: median(&scaled),
    }
}

/// Peak resident memory of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency to a request's first output: a one-shot request's
/// completion, a decode session's first token.
fn first_output_ms(w: Workload, r: &ServingReport) -> &[f64] {
    if w.is_decode() {
        r.ttft.raw()
    } else {
        r.latencies.raw()
    }
}

/// Checks one repetition against the first; returns any breach.
fn check_repeat(first: &[ServingReport], subs: &[ServingReport], rep: usize) -> Vec<String> {
    let d = checks::diff(
        &checks::fingerprint(&pool(first)),
        &checks::fingerprint(&pool(subs)),
    );
    if d.is_empty() {
        Vec::new()
    } else {
        vec![format!(
            "repetition {rep} changed deterministic counters: {d:?}"
        )]
    }
}

/// The gate on a workload's first repetition: conservation invariants
/// per sub-run, and the workload's validity checks.
fn check_first(w: Workload, input: &Input, subs: &[ServingReport]) -> Vec<String> {
    let mut errors: Vec<String> = subs
        .iter()
        .enumerate()
        .flat_map(|(k, r)| checks::invariants(r, input.measured(k)))
        .collect();
    errors.extend(checks::validity(w, subs));
    errors
}

/// The gate on one `maf-explain` export: the log survives
/// `to_jsonl` → `parse_jsonl` → `to_jsonl` byte for byte, and the
/// analysis attributes every completed request in it.
fn check_explained(ex: &Explained) -> Vec<String> {
    let mut errors = Vec::new();
    if to_jsonl(&ex.events) != ex.jsonl {
        errors.push("JSONL round trip is not byte-identical".to_string());
    }
    let completed = ex
        .events
        .iter()
        .filter(|e| matches!(e.what, ProbeEvent::RequestCompleted { .. }))
        .count();
    if ex.analysis.requests.len() != completed {
        errors.push(format!(
            "analyze attributed {} of {completed} completed requests",
            ex.analysis.requests.len()
        ));
    }
    errors
}

/// `--trace 0`: untraced repetitions for `--seconds`; end-to-end metrics.
///
/// The yardstick runs before and after every batch of set-ups and after
/// every sub-run. Each measured interval is scaled by the mean of the two
/// yardstick times around it, so each is read at the host speed of its
/// own moment.
fn end_to_end(w: Workload, args: &Args, tr: &mut Tracer) -> Outcome {
    let mut yards = Vec::new();
    let Setups {
        input,
        total_s: setup_raw,
        scaled_s: setup_s,
        ..
    } = setup_reps(w, args.seed, tr, &mut yards);
    let mut errors = Vec::new();
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut first: Option<Vec<ServingReport>> = None;
    let measure = Instant::now();
    while walls.len() < MIN_REPS || measure.elapsed().as_secs_f64() < args.seconds {
        tr.enter("repetition");
        let mut wall = 0.0;
        let mut raw = 0.0;
        let mut subs = Vec::with_capacity(w.sub_runs());
        for k in 0..w.sub_runs() {
            let t = Instant::now();
            let sub_s = if w == Workload::MafExplain {
                let (r, ex) = explain(&input, k, tr);
                let sub_s = t.elapsed().as_secs_f64();
                if first.is_none() {
                    errors.extend(check_explained(&ex));
                }
                subs.push(r);
                sub_s
            } else {
                subs.push(simulate(&input, k, Probe::disabled(), tr));
                t.elapsed().as_secs_f64()
            };
            let before = *yards.last().expect("one yardstick ran before");
            let after = tr.span("yardstick", yardstick::run);
            yards.push(after);
            wall += sub_s * yardstick::scale(before, after);
            raw += sub_s;
        }
        tr.exit();
        walls.push(wall);
        raw_walls.push(raw);
        match &first {
            None => {
                errors.extend(check_first(w, &input, &subs));
                first = Some(subs);
            }
            Some(f) => errors.extend(check_repeat(f, &subs, walls.len())),
        }
    }
    let r = pool(&first.expect("MIN_REPS > 0"));
    let out = first_output_ms(w, &r);
    let slo_ms = input.cfg.slo.as_ms_f64();
    let attempted = input.measured_total() as f64;
    let completed_frac = r.completed as f64 / attempted;
    // Shed and unfinished requests miss the SLO. A decode session
    // re-prefilled after a crash adds a second first-token sample,
    // measured from its arrival; it can be within the SLO only if the
    // re-prefill's crash-to-token time is, so leaving out that many
    // samples counts every session at most once.
    let within = |v: &[f64]| v.iter().filter(|&&ms| ms <= slo_ms).count();
    let good = within(out).saturating_sub(within(r.recovery_reprefill_ttft.raw()));

    let mut m = Metrics::new(&END_TO_END);
    m.set("wall_s", median(&walls), Some(walls.len()));
    m.set("setup_s", setup_s, Some(SETUP_REPS));
    m.set("peak_rss_mib", peak_rss_mib(), None);
    m.set("p50_ms", percentile(out, 50.0), Some(out.len()));
    m.set("goodput", good as f64 / attempted, Some(out.len()));
    m.set("completed_frac", completed_frac, None);
    m.print_table(w);
    let reps: Vec<String> = raw_walls.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "{:<14} unscaled wall_s per repetition: {}",
        w.name(),
        reps.join(" ")
    );
    println!(
        "{:<14} unscaled setup_s {setup_raw:.6}; yardstick median {:.4} s over {} runs, \
         reference {} s",
        w.name(),
        median(&yards),
        yards.len(),
        yardstick::REFERENCE_S
    );
    Outcome {
        metrics: m,
        attempted: input.requests() * walls.len() as u64,
        errors,
    }
}

/// Host seconds of the `maf-explain` export steps in one repetition.
#[derive(Default, Clone, Copy)]
struct ExportTimes {
    to_jsonl_s: f64,
    parse_jsonl_s: f64,
    analyze_s: f64,
    to_perfetto_s: f64,
}

/// What one traced repetition produced.
struct Traced {
    subs: Vec<ServingReport>,
    agg: Aggregate,
    /// Host seconds in the simulations alone, comparable with an
    /// untraced repetition.
    simulate_s: f64,
    export: ExportTimes,
    jsonl_bytes: u64,
}

/// One traced repetition: every sub-run with the probe folding into one
/// [`Aggregate`]. `maf-explain` records its full log and exports it, as
/// in its untraced runs, and the log is folded afterwards.
fn traced_rep(
    w: Workload,
    input: &Input,
    tr: &mut Tracer,
    errors: &mut Vec<String>,
    check: bool,
) -> Traced {
    let agg = Rc::new(RefCell::new(Aggregate::new()));
    let mut subs = Vec::with_capacity(w.sub_runs());
    let mut simulate_s = 0.0;
    let mut export = ExportTimes::default();
    let mut jsonl_bytes = 0;
    for k in 0..w.sub_runs() {
        if w == Workload::MafExplain {
            let (r, ex) = explain(input, k, tr);
            simulate_s += ex.simulate_s;
            if check {
                errors.extend(check_explained(&ex));
            }
            export.to_jsonl_s += ex.to_jsonl_s;
            export.parse_jsonl_s += ex.parse_jsonl_s;
            export.analyze_s += ex.analyze_s;
            export.to_perfetto_s += ex.to_perfetto_s;
            jsonl_bytes += ex.jsonl.len() as u64;
            let mut a = agg.borrow_mut();
            tr.span("fold probe log", || {
                for e in &ex.events {
                    a.record(e.at, e.what);
                }
            });
            subs.push(r);
        } else {
            let t = Instant::now();
            subs.push(simulate(input, k, Probe::with_sink(agg.clone()), tr));
            simulate_s += t.elapsed().as_secs_f64();
        }
        agg.borrow_mut().end_run();
    }
    let agg = Rc::try_unwrap(agg)
        .ok()
        .expect("every probe is dropped when its run returns")
        .into_inner();
    Traced {
        subs,
        agg,
        simulate_s,
        export,
        jsonl_bytes,
    }
}

/// `--trace 1`: untraced and traced repetitions alternate for
/// `--seconds`, then the layer replays; per-layer metrics.
fn per_layer(w: Workload, args: &Args, tr: &mut Tracer) -> Outcome {
    let Setups {
        input,
        per_step: setup_t,
        ..
    } = setup_reps(w, args.seed, tr, &mut Vec::new());
    let mut errors = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut exports = Vec::new();
    let mut first: Option<Traced> = None;
    let measure = Instant::now();
    while traced.is_empty() || measure.elapsed().as_secs_f64() < args.seconds {
        tr.enter("untraced repetition");
        let mut wall = 0.0;
        let mut plain = Vec::with_capacity(w.sub_runs());
        for k in 0..w.sub_runs() {
            let t = Instant::now();
            plain.push(simulate(&input, k, Probe::disabled(), tr));
            wall += t.elapsed().as_secs_f64();
        }
        untraced.push(wall);
        tr.exit();

        tr.enter("traced repetition");
        let t = traced_rep(w, &input, tr, &mut errors, first.is_none());
        traced.push(t.simulate_s);
        exports.push(t.export);
        tr.exit();

        let d = checks::diff(
            &checks::fingerprint(&pool(&plain)),
            &checks::fingerprint(&pool(&t.subs)),
        );
        if !d.is_empty() {
            errors.push(format!("traced run differs from untraced run: {d:?}"));
        }
        match &first {
            None => {
                errors.extend(check_first(w, &input, &t.subs));
                if t.agg.attributed != t.agg.completions {
                    errors.push(format!(
                        "attribution covered {} of {} completed requests",
                        t.agg.attributed, t.agg.completions
                    ));
                }
                first = Some(t);
            }
            Some(f) => errors.extend(check_repeat(&f.subs, &t.subs, traced.len())),
        }
    }
    let Traced {
        subs,
        agg,
        jsonl_bytes,
        ..
    } = first.expect("at least one traced repetition");
    let r = pool(&subs);
    let untraced_s = median(&untraced);
    let traced_s = median(&traced);
    let export_median =
        |f: fn(&ExportTimes) -> f64| median(&exports.iter().map(f).collect::<Vec<_>>());

    let queue_ns = tr.span("replay CalendarQueue", || {
        replay::calendar_queue(&agg.times)
    });
    // One traced event of the kind per this many flow starts; 0 when
    // the trace has none.
    let every = |n: u64| {
        agg.flow_starts
            .checked_div(n)
            .map_or(0, |q| usize::try_from(q.max(1)).unwrap_or(usize::MAX))
    };
    let mix = replay::FlowMix {
        concurrent: agg.flow_count_percentile(99.0),
        capacity_every: every(agg.link_capacity_changes),
        cancel_every: every(r.aborted_runs),
    };
    let rerate_ns = tr.span("replay FlowNet", || replay::flow_net(mix, FLOW_COMPLETIONS));
    let dec = &input.cfg.decode;
    let shape = replay::PagerShape {
        page_bytes: dec.page_bytes,
        gpus: input.cfg.machine.gpu_count(),
        gpu_pool_bytes: dec.gpu_pool_bytes,
        host_pool_bytes: dec.host_pool_bytes,
    };
    let (page_op_ns, _) = tr.span("replay KvPager", || replay::kv_pager(&agg.kv_ops, shape));

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let recovery = checks::recovery_ms(&r);
    let tpot = r.tpot.raw();
    let qw = r.queue_wait.raw();
    let stalls = [
        Cause::StallBarrier,
        Cause::StallPcieLoad,
        Cause::StallNvlinkMigrate,
    ];
    let mut m = Metrics::new(&PER_LAYER);
    m.set("sim.events", r.sim_events as f64, None);
    m.set(
        "sim.events_per_wall_s",
        ratio(r.sim_events as f64, untraced_s),
        Some(untraced.len()),
    );
    m.set("sim.queue_ns_per_op", queue_ns, None);
    m.set(
        "flow.link_share_updates",
        agg.link_share_updates as f64,
        None,
    );
    m.set("flow.rerate_ns", rerate_ns, None);
    m.set("engine.runs", agg.runs as f64, None);
    m.set("engine.exec_busy_s", agg.exec_busy_ns as f64 / 1e9, None);
    m.set("engine.stall_s", agg.stall_ns as f64 / 1e9, None);
    m.set(
        "engine.stall_barrier_s",
        agg.stall_by_cause_ns[0] as f64 / 1e9,
        None,
    );
    m.set(
        "engine.stall_pcie_load_s",
        agg.stall_by_cause_ns[1] as f64 / 1e9,
        None,
    );
    m.set(
        "engine.stall_nvlink_migrate_s",
        agg.stall_by_cause_ns[2] as f64 / 1e9,
        None,
    );
    m.set("engine.aborted_runs", r.aborted_runs as f64, None);
    m.set("decode.token_steps", agg.token_steps as f64, None);
    m.set(
        "decode.mean_batch",
        ratio(agg.batch_sum as f64, agg.token_steps as f64),
        None,
    );
    m.set(
        "decode.p99_step_ms",
        percentile(&agg.step_ms, 99.0),
        Some(agg.step_ms.len()),
    );
    m.set("decode.dha_bytes", agg.dha_bytes as f64, None);
    m.set("decode.moved_bytes", agg.moved_bytes as f64, None);
    m.set(
        "decode.tokens_per_wall_s",
        ratio(r.tokens_generated as f64, untraced_s),
        Some(untraced.len()),
    );
    m.set(
        "decode.p50_tpot_ms",
        percentile(tpot, 50.0),
        Some(tpot.len()),
    );
    m.set(
        "decode.p99_tpot_ms",
        percentile(tpot, 99.0),
        Some(tpot.len()),
    );
    m.set("plan.prepare_s", setup_t.prepare_s, Some(SETUP_REPS));
    m.set("workload.generate_s", setup_t.generate_s, Some(SETUP_REPS));
    m.set("serve.completed", r.completed as f64, None);
    m.set("serve.shed", r.shed as f64, None);
    m.set("serve.retries", r.retries as f64, None);
    m.set("serve.cold_frac", r.cold_rate(), None);
    m.set("serve.evictions", r.evictions as f64, None);
    let out = first_output_ms(w, &r);
    m.set("serve.p99_ms", percentile(out, 99.0), Some(out.len()));
    m.set(
        "serve.p99_queue_wait_ms",
        percentile(qw, 99.0),
        Some(qw.len()),
    );
    let attributed = Some(agg.attributed as usize);
    m.set(
        "attr.queue_share",
        agg.attr_share(&[Cause::Queue]),
        attributed,
    );
    m.set(
        "attr.exec_share",
        agg.attr_share(&[Cause::ExecGpu, Cause::ExecDha]),
        attributed,
    );
    m.set("attr.stall_share", agg.attr_share(&stalls), attributed);
    m.set(
        "attr.retry_share",
        agg.attr_share(&[Cause::Retry]),
        attributed,
    );
    m.set("kv.allocs", r.kv_allocs as f64, None);
    m.set("kv.spills", r.kv_spills as f64, None);
    m.set("kv.recalls", r.kv_recalls as f64, None);
    m.set("kv.dha_reads", r.kv_dha_reads as f64, None);
    m.set("kv.alloc_failures", r.kv_alloc_failures as f64, None);
    m.set(
        "kv.recall_per_spill",
        ratio(r.kv_recalls as f64, r.kv_spills as f64),
        None,
    );
    m.set("kv.page_op_ns", page_op_ns, None);
    m.set("kv.live_pages_at_end", r.kv_live_pages_at_end as f64, None);
    m.set("ckpt.sessions", r.ckpt_sessions as f64, None);
    m.set("ckpt.bytes", r.ckpt_bytes as f64, None);
    m.set("ckpt.restored", r.sessions_restored as f64, None);
    m.set("ckpt.reprefilled", r.sessions_reprefilled as f64, None);
    m.set(
        "ckpt.bytes_per_restore",
        ratio(r.ckpt_bytes as f64, r.sessions_restored as f64),
        None,
    );
    m.set("swap.out", r.sessions_swapped as f64, None);
    m.set("swap.resumed", r.sessions_resumed as f64, None);
    m.set("swap.truncated", r.sessions_truncated as f64, None);
    m.set("fault.gpu_failures", r.gpu_failures as f64, None);
    m.set("recovery.replans", r.replans as f64, None);
    m.set(
        "recovery.p90_ms",
        percentile(&recovery, 90.0),
        Some(recovery.len()),
    );
    m.set("detect.quarantines", r.quarantines as f64, None);
    m.set("detect.hedged_transfers", r.hedged_transfers as f64, None);
    m.set("probe.events", agg.events as f64, None);
    m.set("probe.jsonl_bytes", jsonl_bytes as f64, None);
    m.set(
        "probe.to_jsonl_s",
        export_median(|e| e.to_jsonl_s),
        Some(exports.len()),
    );
    m.set(
        "probe.parse_jsonl_s",
        export_median(|e| e.parse_jsonl_s),
        Some(exports.len()),
    );
    m.set(
        "probe.to_perfetto_s",
        export_median(|e| e.to_perfetto_s),
        Some(exports.len()),
    );
    m.set(
        "attribution.analyze_s",
        export_median(|e| e.analyze_s),
        Some(exports.len()),
    );
    m.set(
        "probe.overhead_frac",
        ratio(traced_s, untraced_s) - 1.0,
        Some(traced.len()),
    );
    m.print_table(w);
    println!(
        "{:<14} flow replay at {} concurrent flows, capacity change every {} and cancel every {} completions",
        w.name(),
        mix.concurrent,
        mix.capacity_every,
        mix.cancel_every
    );
    Outcome {
        metrics: m,
        attempted: input.requests() * (untraced.len() + traced.len()) as u64,
        errors,
    }
}

/// Writes the run's spans to `.bench_out/` under the working directory.
fn write_spans(w: Workload, seed: u64, tr: &Tracer) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
    match written {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("warning: writing {}: {e}", path.display()),
    }
}

/// `--self-test`: every workload on the given seed
/// and on a held-out seed. Both must pass every gate and validity check,
/// and the deterministic counters must differ between them, which shows
/// the seed reaches the inputs.
fn self_test(args: &Args) -> ExitCode {
    let held_out = args.seed ^ HELD_OUT;
    let mut errors = Vec::new();
    for w in Workload::ALL {
        let mut prints = Vec::new();
        for seed in [args.seed, held_out] {
            let mut tr = Tracer::new();
            let (input, _) = setup(w, seed, &mut tr);
            let subs: Vec<ServingReport> = (0..w.sub_runs())
                .map(|k| simulate(&input, k, Probe::disabled(), &mut tr))
                .collect();
            let errs = check_first(w, &input, &subs);
            let r = pool(&subs);
            println!(
                "self-test {} seed {seed}: {} requests, {} completed, {} sim events: {}",
                w.name(),
                input.requests(),
                r.completed,
                r.sim_events,
                if errs.is_empty() { "ok" } else { "FAILED" }
            );
            errors.extend(errs);
            prints.push(checks::fingerprint(&r));
        }
        let changed = checks::diff(&prints[0], &prints[1]);
        println!(
            "self-test {}: {} of {} counters change with the seed",
            w.name(),
            changed.len(),
            prints[0].len()
        );
        if !changed.contains(&"latencies_hash") || !changed.contains(&"sim_events") {
            errors.push(format!("{}: the seed does not reach the inputs", w.name()));
        }
    }
    for e in &errors {
        eprintln!("breach: {e}");
    }
    if errors.is_empty() {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
