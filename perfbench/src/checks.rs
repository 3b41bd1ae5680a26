//! The correctness gate (conservation invariants and exact
//! reproducibility) and the workload-validity checks that keep each
//! workload exercising the layer it is meant to stress.

use model_serving::ServingReport;
use simcore::stats::Samples;

use crate::stats::{percentile, supports};
use crate::workloads::{pool, Workload};

/// The deterministic counters of a report, plus a hash of every sample
/// series: equal fingerprints mean equal simulated statistics.
pub fn fingerprint(r: &ServingReport) -> Vec<(&'static str, u64)> {
    let mut f = vec![
        ("completed", r.completed),
        ("cold_starts", r.cold_starts),
        ("evictions", r.evictions),
        ("host_pinned_bytes", r.host_pinned_bytes),
        ("shed", r.shed),
        ("retries", r.retries),
        ("gpu_failures", r.gpu_failures),
        ("aborted_runs", r.aborted_runs),
        ("replans", r.replans),
        ("plan_migrations", r.plan_migrations),
        ("quarantines", r.quarantines),
        ("reinstates", r.reinstates),
        ("canaries", r.canaries),
        ("hedged_transfers", r.hedged_transfers),
        ("checksum_refetches", r.checksum_refetches),
        ("decode_completed", r.decode_completed),
        ("tokens_generated", r.tokens_generated),
        ("kv_spills", r.kv_spills),
        ("kv_recalls", r.kv_recalls),
        ("kv_dha_reads", r.kv_dha_reads),
        ("kv_alloc_failures", r.kv_alloc_failures),
        ("kv_live_pages_at_end", r.kv_live_pages_at_end),
        ("kv_allocs", r.kv_allocs),
        ("kv_frees_gpu", r.kv_frees_gpu),
        ("kv_frees_host", r.kv_frees_host),
        ("ckpt_sessions", r.ckpt_sessions),
        ("ckpt_bytes", r.ckpt_bytes),
        ("restore_decisions", r.restore_decisions),
        ("reprefill_decisions", r.reprefill_decisions),
        ("sessions_restored", r.sessions_restored),
        ("sessions_reprefilled", r.sessions_reprefilled),
        ("sessions_swapped", r.sessions_swapped),
        ("sessions_resumed", r.sessions_resumed),
        ("sessions_truncated", r.sessions_truncated),
        ("sim_events", r.sim_events),
    ];
    let series: [(&'static str, &Samples); 6] = [
        ("latencies_hash", &r.latencies),
        ("queue_wait_hash", &r.queue_wait),
        ("ttft_hash", &r.ttft),
        ("tpot_hash", &r.tpot),
        ("recovery_restore_hash", &r.recovery_restore_ttft),
        ("recovery_reprefill_hash", &r.recovery_reprefill_ttft),
    ];
    for (name, s) in series {
        f.push((name, hash_samples(s.raw())));
    }
    f
}

/// FNV-1a over the samples' bit patterns, in order.
fn hash_samples(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Names of the counters on which two fingerprints differ.
pub fn diff(a: &[(&'static str, u64)], b: &[(&'static str, u64)]) -> Vec<&'static str> {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x != y)
        .map(|(x, _)| x.0)
        .collect()
}

/// End-of-run conservation invariants. Returns every breach found.
pub fn invariants(r: &ServingReport, attempted: u64) -> Vec<String> {
    let mut errs = Vec::new();
    if r.completed + r.shed != attempted {
        errs.push(format!(
            "completed {} + shed {} != attempted {attempted}",
            r.completed, r.shed
        ));
    }
    if r.kv_live_pages_at_end != 0 {
        errs.push(format!("{} KV pages live at end", r.kv_live_pages_at_end));
    }
    if r.kv_allocs != r.kv_frees_gpu + r.kv_frees_host {
        errs.push(format!(
            "kv allocs {} != frees gpu {} + host {}",
            r.kv_allocs, r.kv_frees_gpu, r.kv_frees_host
        ));
    }
    errs
}

/// TTFT samples in the order requests reached their first token, split
/// into first and last deciles; the median of the last may not exceed
/// this multiple of the first's, or the server is building a backlog.
const BACKLOG_GROWTH: f64 = 2.0;

/// The first- and last-decile median TTFT of one run, in ms.
fn ttft_deciles(r: &ServingReport) -> (f64, f64) {
    let ttft = r.ttft.raw();
    let decile = ttft.len() / 10;
    (
        percentile(&ttft[..decile], 50.0),
        percentile(&ttft[ttft.len() - decile..], 50.0),
    )
}

/// Checks that `w`'s sub-runs still exercise what the workload is meant
/// to. Returns every failed check.
pub fn validity(w: Workload, subs: &[ServingReport]) -> Vec<String> {
    let r = &pool(subs);
    let mut errs = Vec::new();
    let mut need = |ok: bool, what: &str| {
        if !ok {
            errs.push(format!("{}: {what}", w.name()));
        }
    };
    let pager_ops = r.kv_allocs + r.kv_spills + r.kv_recalls + r.kv_dha_reads;
    match w {
        Workload::MafOneshot | Workload::MafExplain => {
            need(r.cold_starts > 0, "no cold starts");
            need(pager_ops == 0, "the KV pager did work");
            need(
                supports(r.latencies.len(), 99.0),
                "too few latencies for p99",
            );
        }
        Workload::DecodeKv => {
            need(r.kv_spills > 0, "no KV spills");
            need(r.kv_dha_reads > 0, "no DHA KV reads");
            need(supports(r.ttft.len(), 99.0), "too few TTFTs for p99");
            need(supports(r.tpot.len(), 99.0), "too few TPOTs for p99");
            for sub in subs {
                let (first, last) = ttft_deciles(sub);
                need(
                    last <= BACKLOG_GROWTH * first,
                    &format!("TTFT grows from {first:.1} ms to {last:.1} ms: a backlog"),
                );
            }
        }
        Workload::DecodeChaos => {
            need(r.gpu_failures > 0, "no GPU failures");
            need(r.sessions_restored > 0, "no restores");
            need(r.sessions_reprefilled > 0, "no re-prefills");
            need(r.sessions_swapped > 0, "no swap-outs");
            need(r.quarantines > 0, "no quarantines");
            need(r.hedged_transfers > 0, "no hedged transfers");
            need(supports(r.ttft.len(), 99.0), "too few TTFTs for p99");
            need(
                supports(recovery_ms(r).len(), 90.0),
                "too few recoveries for p90",
            );
        }
    }
    errs
}

/// Crash-to-next-token recovery latencies, restored and re-prefilled.
pub fn recovery_ms(r: &ServingReport) -> Vec<f64> {
    let mut v = r.recovery_restore_ttft.raw().to_vec();
    v.extend_from_slice(r.recovery_reprefill_ttft.raw());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDur;

    fn report() -> ServingReport {
        let mut r = ServingReport::new(SimDur::from_millis(100), SimDur::from_secs(60));
        r.completed = 90;
        r.shed = 10;
        r.kv_allocs = 5;
        r.kv_frees_gpu = 3;
        r.kv_frees_host = 2;
        r
    }

    #[test]
    fn a_consistent_report_passes() {
        assert!(invariants(&report(), 100).is_empty());
    }

    #[test]
    fn doctored_reports_are_rejected() {
        let mut lost = report();
        lost.completed -= 1;
        assert_eq!(invariants(&lost, 100).len(), 1);

        let mut leaked = report();
        leaked.kv_live_pages_at_end = 2;
        leaked.kv_frees_host = 0;
        let errs = invariants(&leaked, 100);
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn fingerprints_see_sample_changes() {
        let a = report();
        let mut b = report();
        assert!(diff(&fingerprint(&a), &fingerprint(&b)).is_empty());
        b.ttft.push(1.0);
        assert_eq!(diff(&fingerprint(&a), &fingerprint(&b)), vec!["ttft_hash"]);
    }

    #[test]
    fn validity_flags_a_workload_that_stopped_stressing_its_layer() {
        let r = [report()];
        let errs = validity(Workload::DecodeChaos, &r);
        assert!(errs.iter().any(|e| e.contains("no GPU failures")));
        let errs = validity(Workload::MafOneshot, &r);
        assert!(errs.iter().any(|e| e.contains("no cold starts")));
    }

    #[test]
    fn a_growing_ttft_is_a_backlog() {
        let mut steady = report();
        let mut growing = report();
        for i in 0..100 {
            steady.ttft.push(20.0 + f64::from(i % 3));
            growing.ttft.push(20.0 + f64::from(i));
        }
        let backlog = |r: ServingReport| {
            validity(Workload::DecodeKv, &[r])
                .iter()
                .any(|e| e.contains("a backlog"))
        };
        assert!(!backlog(steady));
        assert!(backlog(growing));
    }
}
