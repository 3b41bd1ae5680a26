//! Helpers shared by the integration tests.

/// 64-bit FNV-1a, enough to pin multi-MB exporter outputs without
/// checking them in.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The report counters the decode pins check exactly: KV pager traffic,
/// lost runs and retries, session recovery and checkpoint accounting.
#[allow(dead_code)] // Not every test crate that shares this module pins a decode run.
pub fn decode_counters(r: &model_serving::ServingReport) -> Vec<(&'static str, u64)> {
    vec![
        ("completed", r.completed),
        ("shed", r.shed),
        ("aborted_runs", r.aborted_runs),
        ("retries", r.retries),
        ("kv_allocs", r.kv_allocs),
        ("kv_spills", r.kv_spills),
        ("kv_recalls", r.kv_recalls),
        ("kv_dha_reads", r.kv_dha_reads),
        ("kv_alloc_failures", r.kv_alloc_failures),
        ("kv_live_pages_at_end", r.kv_live_pages_at_end),
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
    ]
}

/// Whether the log holds at least one event named `name`.
#[allow(dead_code)] // Not every test crate that shares this module pins a decode run.
pub fn has_event(events: &[simcore::probe::Event], name: &str) -> bool {
    events.iter().any(|e| e.what.name() == name)
}
