//! The metric tables `BENCHMARK.json` declares, and the JSON the
//! benchmark prints for them.

use crate::stats::{beyond, highest_supported};
use crate::workloads::Workload;

/// A metric's name and unit.
pub type Def = (&'static str, &'static str);

/// What a user of the simulator sees, measured with tracing off. Every
/// workload reports every one of them; none is ever 0.
pub const END_TO_END: [Def; 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("p50_ms", "ms"),
    ("goodput", "frac"),
    ("completed_frac", "frac"),
];

/// One layer each, from the traced run and the layer replays. A metric
/// is 0 on a workload that leaves its layer idle.
pub const PER_LAYER: [Def; 61] = [
    ("sim.events", "count"),
    ("sim.events_per_wall_s", "1/s"),
    ("sim.queue_ns_per_op", "ns"),
    ("flow.link_share_updates", "count"),
    ("flow.rerate_ns", "ns"),
    ("engine.runs", "count"),
    ("engine.exec_busy_s", "s"),
    ("engine.stall_s", "s"),
    ("engine.stall_barrier_s", "s"),
    ("engine.stall_pcie_load_s", "s"),
    ("engine.stall_nvlink_migrate_s", "s"),
    ("engine.aborted_runs", "count"),
    ("decode.token_steps", "count"),
    ("decode.mean_batch", "count"),
    ("decode.p99_step_ms", "ms"),
    ("decode.dha_bytes", "B"),
    ("decode.moved_bytes", "B"),
    ("decode.tokens_per_wall_s", "1/s"),
    ("decode.p50_tpot_ms", "ms"),
    ("decode.p99_tpot_ms", "ms"),
    ("plan.prepare_s", "s"),
    ("workload.generate_s", "s"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.cold_frac", "frac"),
    ("serve.evictions", "count"),
    ("serve.p99_ms", "ms"),
    ("serve.p99_queue_wait_ms", "ms"),
    ("attr.queue_share", "frac"),
    ("attr.exec_share", "frac"),
    ("attr.stall_share", "frac"),
    ("attr.retry_share", "frac"),
    ("kv.allocs", "count"),
    ("kv.spills", "count"),
    ("kv.recalls", "count"),
    ("kv.dha_reads", "count"),
    ("kv.alloc_failures", "count"),
    ("kv.recall_per_spill", "frac"),
    ("kv.page_op_ns", "ns"),
    ("kv.live_pages_at_end", "count"),
    ("ckpt.sessions", "count"),
    ("ckpt.bytes", "B"),
    ("ckpt.restored", "count"),
    ("ckpt.reprefilled", "count"),
    ("ckpt.bytes_per_restore", "B"),
    ("swap.out", "count"),
    ("swap.resumed", "count"),
    ("swap.truncated", "count"),
    ("fault.gpu_failures", "count"),
    ("recovery.replans", "count"),
    ("recovery.p90_ms", "ms"),
    ("detect.quarantines", "count"),
    ("detect.hedged_transfers", "count"),
    ("probe.events", "count"),
    ("probe.jsonl_bytes", "B"),
    ("probe.to_jsonl_s", "s"),
    ("probe.parse_jsonl_s", "s"),
    ("probe.to_perfetto_s", "s"),
    ("attribution.analyze_s", "s"),
    ("probe.overhead_frac", "frac"),
];

/// Values for one metric table, filled by name.
pub struct Metrics {
    defs: &'static [Def],
    values: Vec<Option<f64>>,
    /// Samples behind each value (repetitions, or latencies for a
    /// percentile).
    samples: Vec<Option<usize>>,
}

impl Metrics {
    pub fn new(defs: &'static [Def]) -> Self {
        Metrics {
            defs,
            values: vec![None; defs.len()],
            samples: vec![None; defs.len()],
        }
    }

    /// Sets `name`; panics on a name the table does not declare.
    pub fn set(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let i = self
            .defs
            .iter()
            .position(|d| d.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = Some(value);
        self.samples[i] = samples;
    }

    fn value(&self, i: usize) -> f64 {
        self.values[i].unwrap_or_else(|| panic!("metric {} was never set", self.defs[i].0))
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in table order.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .defs
            .iter()
            .enumerate()
            .map(|(i, (name, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.value(i))
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// One line per metric, with its sample count and, for a
    /// percentile, the samples beyond it.
    pub fn print_table(&self, w: Workload) {
        for (i, (name, unit)) in self.defs.iter().enumerate() {
            let mut note = String::new();
            if let Some(n) = self.samples[i] {
                note = format!("  n={n}");
                if let Some(p) = percentile_of(name) {
                    let top =
                        highest_supported(n).map_or("none".to_string(), |(t, _)| format!("p{t}"));
                    note += &format!(" beyond={} highest_supported={top}", beyond(n, p));
                }
            }
            println!(
                "{:<14} {:<32} {:>18} {:<6}{note}",
                w.name(),
                name,
                json_number(self.value(i)),
                unit
            );
        }
    }
}

/// The percentile a metric name reports (`p99_ms` → 99), if any.
fn percentile_of(name: &str) -> Option<f64> {
    let tail = name.rsplit('.').next().unwrap_or(name);
    let digits: String = tail
        .strip_prefix('p')?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// A finite JSON number with every digit Rust prints; non-finite values
/// become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The grammar `BENCHMARK.json` allows for metric and workload names.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_fits_the_grammar_and_is_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate name");
        for n in ["", "-lead", "has space", "quo\"te", "ok.name-1_x"] {
            assert_eq!(valid_name(n), n == "ok.name-1_x", "{n}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value ends");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = text
            .split("\"workloads\"")
            .nth(1)
            .expect("workloads")
            .split(']')
            .next()
            .expect("workloads end")
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name ends")].to_string())
            .collect();
        let own_workloads: Vec<String> =
            Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn json_lists_every_metric_with_its_unit() {
        let mut m = Metrics::new(&END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, i as f64 + 0.5, None);
        }
        let j = m.json();
        assert!(
            j.starts_with("{\"wall_s\": {\"value\": 0.5, \"unit\": \"s\"}"),
            "{j}"
        );
        assert!(j.contains("\"completed_frac\": {\"value\": 5.5, \"unit\": \"frac\"}"));
    }

    #[test]
    fn percentile_names_are_recognised() {
        assert_eq!(percentile_of("p99_ms"), Some(99.0));
        assert_eq!(percentile_of("recovery.p90_ms"), Some(90.0));
        assert_eq!(percentile_of("serve.p99_queue_wait_ms"), Some(99.0));
        assert_eq!(percentile_of("wall_s"), None);
        assert_eq!(percentile_of("probe.parse_jsonl_s"), None);
    }
}
