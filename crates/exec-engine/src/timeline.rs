//! ASCII Gantt rendering of a run's engine probe events (record them
//! with [`crate::single::run_traced`]).
//!
//! Produces the measured counterpart of the paper's Figure 1/7/9
//! schematics: one lane per stream (execution, load per slot, migration),
//! time flowing left to right.
//!
//! ```text
//! exec      |..####=###############|
//! load s0   |#########             |
//! load s1   |####                  |
//! migrate   | ####                 |
//! ```
//!
//! `#` = busy, `=` = DHA execution, `.` = stalled, ` ` = idle.

use std::collections::BTreeMap;

use simcore::probe::{Event, ProbeEvent};
use simcore::time::SimTime;

/// One rendered lane.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Lane label.
    pub label: String,
    /// Busy intervals `(start, end, glyph)`.
    pub intervals: Vec<(SimTime, SimTime, char)>,
}

/// Start/finish pairing for one lane: a finish closes the pending start
/// of the same layer.
#[derive(Default)]
struct Pairs {
    pending: Vec<(usize, SimTime)>,
    done: Vec<(SimTime, SimTime, char)>,
}

impl Pairs {
    fn start(&mut self, layer: usize, at: SimTime) {
        self.pending.push((layer, at));
    }

    fn finish(&mut self, layer: usize, at: SimTime) {
        if let Some(pos) = self.pending.iter().position(|&(l, _)| l == layer) {
            let (_, start) = self.pending.swap_remove(pos);
            self.done.push((start, at, '#'));
        }
    }
}

/// Extracts the lanes of one run from the engine's probe events: the
/// execution lane, one load lane per transmission slot, and one
/// migration lane for all secondaries together.
pub fn lanes(events: &[Event], run: usize) -> Vec<Lane> {
    // Execution lane: '#' for in-memory, '=' for DHA, '.' for stalls.
    let mut exec = Vec::new();
    let mut open: Option<(usize, SimTime, bool)> = None;
    let mut loads: BTreeMap<usize, Pairs> = BTreeMap::new();
    let mut migrate = Pairs::default();
    for e in events {
        match e.what {
            ProbeEvent::ExecStarted {
                run: r, layer, dha, ..
            } if r == run => open = Some((layer, e.at, dha)),
            ProbeEvent::ExecFinished { run: r, layer, .. } if r == run => {
                if let Some((l, start, dha)) = open.take() {
                    if l == layer {
                        exec.push((start, e.at, if dha { '=' } else { '#' }));
                    }
                }
            }
            ProbeEvent::StallEnded { run: r, ns, .. } if r == run => {
                let start = SimTime::from_nanos(e.at.as_nanos().saturating_sub(ns));
                exec.push((start, e.at, '.'));
            }
            ProbeEvent::LoadStarted {
                run: r,
                layer,
                slot,
                ..
            } if r == run => {
                loads.entry(slot).or_default().start(layer, e.at);
            }
            ProbeEvent::LoadFinished {
                run: r,
                layer,
                slot,
                ..
            } if r == run => {
                if let Some(p) = loads.get_mut(&slot) {
                    p.finish(layer, e.at);
                }
            }
            ProbeEvent::MigrateStarted { run: r, layer, .. } if r == run => {
                migrate.start(layer, e.at)
            }
            ProbeEvent::MigrateFinished { run: r, layer, .. } if r == run => {
                migrate.finish(layer, e.at)
            }
            _ => {}
        }
    }
    let mut out = vec![Lane {
        label: "exec".to_string(),
        intervals: exec,
    }];
    out.extend(loads.into_iter().map(|(s, p)| Lane {
        label: format!("load s{s}"),
        intervals: p.done,
    }));
    if !migrate.done.is_empty() {
        out.push(Lane {
            label: "migrate".to_string(),
            intervals: migrate.done,
        });
    }
    out
}

/// Renders lanes into a fixed-width ASCII chart (at least one column
/// wide).
pub fn render(lanes: &[Lane], width: usize) -> String {
    let width = width.max(1);
    let end = lanes
        .iter()
        .flat_map(|l| l.intervals.iter().map(|(_, e, _)| e.as_nanos()))
        .max()
        .unwrap_or(1)
        .max(1);
    let label_w = lanes.iter().map(|l| l.label.len()).max().unwrap_or(4);
    let mut s = String::new();
    for lane in lanes {
        let mut row = vec![' '; width];
        for &(a, b, glyph) in &lane.intervals {
            let c0 = (a.as_nanos() as u128 * width as u128 / end as u128) as usize;
            let c1 = (b.as_nanos() as u128 * width as u128 / end as u128) as usize;
            let c1 = c1.max(c0 + 1).min(width);
            for cell in row
                .iter_mut()
                .take(c1)
                .skip(c0.min(width.saturating_sub(1)))
            {
                // Stall dots never overwrite busy glyphs.
                if glyph != '.' || *cell == ' ' {
                    *cell = glyph;
                }
            }
        }
        s.push_str(&format!(
            "{:<label_w$} |{}|\n",
            lane.label,
            row.iter().collect::<String>()
        ));
    }
    s.push_str(&format!(
        "{:<label_w$}  0{:>w$}\n",
        "",
        format!("{:.2}ms", end as f64 / 1e6),
        w = width - 1
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> Vec<Event> {
        let ev = |at: u64, what| Event {
            at: SimTime::from_nanos(at),
            what,
        };
        vec![
            ev(
                0,
                ProbeEvent::LoadStarted {
                    run: 0,
                    layer: 0,
                    gpu: 0,
                    slot: 0,
                },
            ),
            ev(
                100,
                ProbeEvent::LoadFinished {
                    run: 0,
                    layer: 0,
                    gpu: 0,
                    slot: 0,
                },
            ),
            ev(
                100,
                ProbeEvent::StallEnded {
                    run: 0,
                    layer: 0,
                    gpu: 0,
                    ns: 100,
                },
            ),
            ev(
                100,
                ProbeEvent::ExecStarted {
                    run: 0,
                    layer: 0,
                    gpu: 0,
                    dha: false,
                },
            ),
            ev(
                200,
                ProbeEvent::ExecFinished {
                    run: 0,
                    layer: 0,
                    gpu: 0,
                },
            ),
        ]
    }

    #[test]
    fn lanes_extracted() {
        let lanes = lanes(&toy_trace(), 0);
        assert_eq!(lanes.len(), 2); // exec + load s0 (no migration).
        assert_eq!(lanes[0].label, "exec");
        // Exec lane: one stall interval + one busy interval.
        assert_eq!(lanes[0].intervals.len(), 2);
        assert_eq!(lanes[1].label, "load s0");
        assert_eq!(lanes[1].intervals.len(), 1);
    }

    #[test]
    fn other_runs_are_ignored() {
        let lanes = lanes(&toy_trace(), 1);
        assert_eq!(lanes.len(), 1);
        assert!(lanes[0].intervals.is_empty());
    }

    #[test]
    fn render_produces_expected_shape() {
        let l = lanes(&toy_trace(), 0);
        let chart = render(&l, 20);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3); // exec, load, axis.
        assert!(lines[0].contains('#'), "exec busy missing: {}", lines[0]);
        assert!(lines[0].contains('.'), "stall missing: {}", lines[0]);
        assert!(lines[1].contains('#'));
        // Load occupies the first half, exec the second.
        let exec_row = lines[0];
        let hash_pos = exec_row.find('#').unwrap();
        let load_row = lines[1];
        let load_end = load_row.rfind('#').unwrap();
        assert!(hash_pos >= load_end.saturating_sub(1));
    }

    #[test]
    fn empty_trace_renders() {
        let chart = render(&[], 10);
        assert!(chart.contains("0"));
    }

    #[test]
    fn zero_width_renders_as_one_column() {
        let l = lanes(&toy_trace(), 0);
        assert_eq!(render(&l, 0), render(&l, 1));
        assert_eq!(render(&l, 1).lines().next(), Some("exec    |#|"));
    }
}
