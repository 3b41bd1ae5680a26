//! Property tests for the probe exporters: the JSONL and Perfetto
//! serialisations of one `EventLog` must agree with the log (and each
//! other) on event counts, every Perfetto duration/async slice must
//! balance, link counter names must survive JSON escaping, and the
//! Perfetto timestamp formatter must match the float rendering it
//! replaces.

use proptest::prelude::*;
use simcore::probe::{
    parse_jsonl, to_jsonl, to_perfetto, Event, Micros, PerfettoOptions, ProbeEvent, StallCause,
};
use simcore::time::SimTime;

/// Shape of one synthetic request's lifecycle.
#[derive(Debug, Clone)]
struct ReqShape {
    gpu: usize,
    layers: usize,
    stall_at: Option<usize>,
    gap_ns: u64,
    /// Link counter samples emitted after the request completes.
    links: Vec<LinkSample>,
}

/// One bandwidth-share or capacity sample on a link.
#[derive(Debug, Clone)]
struct LinkSample {
    link: usize,
    capacity: bool,
    gbps: f64,
    flows: usize,
}

fn arb_link_samples() -> impl Strategy<Value = Vec<LinkSample>> {
    prop::collection::vec(
        (0usize..6, any::<bool>(), 0.0f64..100.0, 0usize..4).prop_map(
            |(link, capacity, gbps, flows)| LinkSample {
                link,
                capacity,
                gbps,
                flows,
            },
        ),
        0..3,
    )
}

/// Characters link names are drawn from: plain text plus everything the
/// exporter must escape (quote, backslash, control characters).
const NAME_CHARS: [char; 10] = ['a', 'z', '0', ' ', '-', '"', '\\', '/', '\n', '\u{7}'];

/// Up to four link names, so samples on links 4 and 5 always fall back
/// to `link<i>`.
fn arb_link_names() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::collection::vec(0usize..NAME_CHARS.len(), 0..8)
            .prop_map(|ix| ix.into_iter().map(|i| NAME_CHARS[i]).collect::<String>()),
        0..5,
    )
}

fn arb_requests() -> impl Strategy<Value = Vec<ReqShape>> {
    prop::collection::vec(
        (
            0usize..4,
            1usize..5,
            0usize..10,
            1u64..1000,
            arb_link_samples(),
        )
            .prop_map(|(gpu, layers, stall, gap_ns, links)| ReqShape {
                gpu,
                layers,
                // About half the requests stall somewhere mid-run.
                stall_at: (stall < layers).then_some(stall),
                gap_ns,
                links,
            }),
        1..24,
    )
}

/// Materialises well-formed request lifecycles into a probe event log
/// with strictly increasing timestamps.
fn build_log(shapes: &[ReqShape]) -> Vec<Event> {
    let mut events = Vec::new();
    let mut t = 0u64;
    for (i, s) in shapes.iter().enumerate() {
        let req = i as u64;
        let mut push = |t: &mut u64, gap: u64, what: ProbeEvent| {
            *t += gap;
            events.push(Event {
                at: SimTime::from_nanos(*t),
                what,
            });
        };
        push(
            &mut t,
            s.gap_ns,
            ProbeEvent::RequestEnqueued {
                req,
                instance: i,
                gpu: s.gpu,
            },
        );
        let start = t;
        push(
            &mut t,
            s.gap_ns,
            ProbeEvent::RequestDispatched {
                req,
                instance: i,
                gpu: s.gpu,
                warm: s.stall_at.is_none(),
                run: i,
            },
        );
        for layer in 0..s.layers {
            if s.stall_at == Some(layer) {
                push(
                    &mut t,
                    1,
                    ProbeEvent::StallStarted {
                        run: i,
                        layer,
                        gpu: s.gpu,
                        cause: StallCause::PcieLoad,
                    },
                );
                push(
                    &mut t,
                    s.gap_ns,
                    ProbeEvent::StallEnded {
                        run: i,
                        layer,
                        gpu: s.gpu,
                        ns: s.gap_ns,
                    },
                );
            }
            push(
                &mut t,
                1,
                ProbeEvent::ExecStarted {
                    run: i,
                    layer,
                    gpu: s.gpu,
                    dha: false,
                },
            );
            push(
                &mut t,
                s.gap_ns,
                ProbeEvent::ExecFinished {
                    run: i,
                    layer,
                    gpu: s.gpu,
                },
            );
        }
        let latency_ns = t + 1 - start;
        push(
            &mut t,
            1,
            ProbeEvent::RequestCompleted {
                req,
                instance: i,
                gpu: s.gpu,
                cold: s.stall_at.is_some(),
                latency_ns,
                queue_wait_ns: 0,
            },
        );
        for l in &s.links {
            let what = if l.capacity {
                ProbeEvent::LinkCapacity {
                    link: l.link,
                    capacity_bps: l.gbps * 1e9,
                }
            } else {
                ProbeEvent::LinkShare {
                    link: l.link,
                    rate_bps: l.gbps * 1e9,
                    flows: l.flows,
                }
            };
            push(&mut t, 1, what);
        }
    }
    events
}

/// The Perfetto counter-track names the link samples in `events` should
/// decode to: the configured label, or `link<i>` past the list's end.
fn expected_link_counters(events: &[Event], names: &[String]) -> Vec<String> {
    let label = |link: usize| {
        names
            .get(link)
            .cloned()
            .unwrap_or_else(|| format!("link{link}"))
    };
    events
        .iter()
        .filter_map(|e| match e.what {
            ProbeEvent::LinkShare { link, .. } => Some(format!("bw {}", label(link))),
            ProbeEvent::LinkCapacity { link, .. } => Some(format!("cap {}", label(link))),
            _ => None,
        })
        .collect()
}

/// The reference rendering `Micros` must reproduce byte for byte.
fn float_micros(ns: u64) -> String {
    format!("{:?}", ns as f64 / 1e3)
}

proptest! {
    #[test]
    fn exporters_agree_on_event_counts(shapes in arb_requests(), names in arb_link_names()) {
        let events = build_log(&shapes);

        // JSONL: one line per event, and parsing recovers the log.
        let jsonl = to_jsonl(&events);
        prop_assert_eq!(jsonl.lines().count(), events.len());
        let parsed = parse_jsonl(&jsonl).expect("exporter output parses");
        prop_assert_eq!(&parsed, &events);

        // Perfetto: parses as JSON and slice counts match the log.
        let opts = PerfettoOptions {
            link_names: names.clone(),
        };
        let out = to_perfetto(&events, &opts);
        let v: serde_json::Value = serde_json::from_str(&out).expect("Perfetto JSON parses");
        let evs = v["traceEvents"].as_array().unwrap();

        // Link counters decode to the unescaped label or `link<i>`, in
        // log order.
        let counters: Vec<String> = evs
            .iter()
            .filter(|e| e["ph"] == "C")
            .map(|e| e["name"].as_str().unwrap().to_string())
            .collect();
        prop_assert_eq!(counters, expected_link_counters(&events, &names));

        let ph = |p: &str| evs.iter().filter(|e| e["ph"] == p).count();
        let n = shapes.len();
        // Async request spans: one open and one close per request, and
        // both exporters agree with the raw event counts.
        prop_assert_eq!(ph("b"), n);
        prop_assert_eq!(ph("e"), n);
        prop_assert_eq!(
            ph("b"),
            events
                .iter()
                .filter(|e| matches!(e.what, ProbeEvent::RequestEnqueued { .. }))
                .count()
        );
        // Duration slices balance globally...
        prop_assert_eq!(ph("B"), ph("E"));
        // ...and per engine lane (slices never close on another track).
        let keys: Vec<(i64, i64)> = evs
            .iter()
            .filter(|e| e["ph"] == "B" || e["ph"] == "E")
            .map(|e| (e["pid"].as_i64().unwrap(), e["tid"].as_i64().unwrap()))
            .collect();
        let mut lanes: Vec<(i64, i64)> = keys.clone();
        lanes.sort_unstable();
        lanes.dedup();
        for lane in lanes {
            let b = evs
                .iter()
                .filter(|e| {
                    e["ph"] == "B"
                        && (e["pid"].as_i64().unwrap(), e["tid"].as_i64().unwrap()) == lane
                })
                .count();
            let e_ = evs
                .iter()
                .filter(|e| {
                    e["ph"] == "E"
                        && (e["pid"].as_i64().unwrap(), e["tid"].as_i64().unwrap()) == lane
                })
                .count();
            prop_assert_eq!(b, e_, "unbalanced lane {:?}", lane);
        }
        // Flow arrows pair up: one dispatch source per first kernel.
        prop_assert_eq!(ph("s"), n);
        prop_assert_eq!(ph("f"), n);
    }
}

proptest! {
    #[test]
    fn micros_matches_float_rendering_at_every_magnitude(
        samples in prop::collection::vec((0u32..65, any::<u64>(), 0u32..4), 256)
    ) {
        for (bits, raw, zeros) in samples {
            // Spread over every magnitude (most of them below the 2^52 ns
            // fast-path bound, the rest through the fallback), with
            // trailing decimal zeros forced on a quarter of the samples
            // each.
            let scale = 10u64.pow(zeros);
            let ns = if bits == 64 { raw } else { raw % (1u64 << bits) };
            let ns = ns / scale * scale;
            prop_assert_eq!(Micros(ns).to_string(), float_micros(ns), "ns = {}", ns);
        }
    }
}

#[test]
fn micros_matches_float_rendering_at_the_edges() {
    let edges = [
        0,
        1,
        10,
        100,
        999,
        1000,
        1001,
        1010,
        1100,
        123_456_789,
        (1 << 52) - 1,
        // From here on the fallback renders the float itself.
        1 << 52,
        (1 << 52) + 1,
        // Above 2^43 us the f64 ulp exceeds 0.001: exact decimals no
        // longer round-trip, so a 2^53 ns bound would be wrong here.
        8_796_093_022_208_001,
        (1 << 53) - 1,
        1 << 53,
        (1 << 53) + 1,
        u64::MAX,
    ];
    for ns in edges {
        assert_eq!(Micros(ns).to_string(), float_micros(ns), "ns = {ns}");
    }
}
