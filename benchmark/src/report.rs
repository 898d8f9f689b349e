//! Rendering an [`Outcome`]: the table a person reads and the one-line
//! JSON object the driver reads.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::run::{Options, Outcome};
use crate::stats::Summary;
use std::fmt::Write;

/// A JSON number: non-finite values (a rep that completed nothing) read 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Every measured metric by name, with unit, median, quartiles and rep
/// count, then the per-layer self times of the replay when there are any.
pub fn table(opts: &Options, out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "workload {} seed {} trace {}: {} operations attempted, {} failed (failed_share {})",
        opts.workload.name,
        opts.seed,
        u8::from(opts.trace),
        out.attempted,
        out.failed,
        num(out.failed_share()),
    );
    for (i, r) in out.reps.iter().enumerate() {
        let lat = if opts.workload.client_mode() {
            r.rtt_us
        } else {
            r.latency_us
        };
        let _ = writeln!(
            s,
            "rep {i}: {}/{} operations, window {:.3} s, cpu {:.2}+{:.2} s, delivered_per_s {:.1}, \
             cpu_us_per_delivery {:.2}, latency_p50_us {:.1}, latency_p99_us {:.1}, setup_s {:.3}",
            r.completed,
            r.asked,
            r.wall_s,
            r.cpu_user_s,
            r.cpu_sys_s,
            r.delivered_per_s(),
            r.cpu_us_per_delivery(),
            lat[0],
            lat[1],
            r.setup_s()
        );
    }
    let _ = writeln!(
        s,
        "{:<40} {:>6} {:>14} {:>14} {:>14} {:>5}",
        "metric", "unit", "median", "q1", "q3", "reps"
    );
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(v) = out.metrics.get(m.name) {
            let _ = writeln!(
                s,
                "{:<40} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>5}",
                m.name, m.unit, v.median, v.q1, v.q3, v.reps
            );
        }
    }
    if !out.layer_self_s.is_empty() {
        let total: f64 = out.layer_self_s.values().sum();
        let _ = writeln!(s, "layer replay, self time per layer ({total:.3} s):");
        for (layer, secs) in &out.layer_self_s {
            let _ = writeln!(
                s,
                "  {layer:<14} {secs:>9.4} s {:>6.1} %",
                100.0 * secs / total
            );
        }
    }
    if let Some(p) = &out.span_file {
        let _ = writeln!(s, "spans written to {}", p.display());
    }
    for e in &out.errors {
        let _ = writeln!(s, "ERROR {e}");
    }
    s
}

/// The result line: `correct`, `attempted`, `failed` and the `metrics` of
/// the list this kind of run reports.
pub fn json_line(out: &Outcome, metrics: &[(&'static Metric, Summary)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(v.median),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}
