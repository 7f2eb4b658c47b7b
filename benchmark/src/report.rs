//! How a run is printed: a table for people, one JSON document per run
//! for `compare`, and the contract's one-line JSON for the driver.

use waves_obs::JsonWriter;

use crate::workloads::{Measured, Outcome};

/// The driver's line: exactly `correct`, `attempted`, `failed`,
/// `metrics`; the end-to-end metrics untraced, the per-layer ones traced.
pub fn contract_line(o: &Outcome, trace: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_bool("correct", o.correct);
    w.field_u64("attempted", o.attempted.max(1));
    w.field_u64("failed", o.failed);
    w.field_object("metrics");
    for m in if trace { &o.per_layer } else { &o.end_to_end } {
        w.field_object(m.name);
        w.field_f64("value", m.value);
        w.field_str("unit", m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn write_metrics(w: &mut JsonWriter, field: &str, metrics: &[Measured]) {
    w.field_object(field);
    for m in metrics {
        w.field_object(m.name);
        w.field_f64("value", m.value);
        w.field_str("unit", m.unit);
        w.field_f64("median", m.median);
        w.field_f64("iqr_ratio", m.iqr_ratio);
        w.end_object();
    }
    w.end_object();
}

/// The `--json-out` document: every workload this process ran.
pub fn run_document(outcomes: &[Outcome], trace: bool, pinned_cpu: Option<usize>) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_bool("trace", trace);
    w.field_i64("pinned_cpu", pinned_cpu.map_or(-1, |c| c as i64));
    w.field_array("runs");
    for o in outcomes {
        w.begin_object();
        w.field_str("workload", o.workload);
        w.field_u64("seed", o.seed);
        w.field_str("input_hash", &format!("{:016x}", o.input_hash));
        w.field_bool("correct", o.correct);
        w.field_u64("attempted", o.attempted);
        w.field_u64("failed", o.failed);
        w.field_bool("noisy", o.noisy);
        w.field_u64("rounds", o.rounds as u64);
        write_metrics(&mut w, "end_to_end", &o.end_to_end);
        write_metrics(&mut w, "per_layer", &o.per_layer);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The table for people: value, then the per-round median and IQR it was
/// taken from.
pub fn human(o: &Outcome, trace: bool) -> String {
    let mut out = format!(
        "== {} seed={} input={:016x} rounds={} attempted={} failed={} correct={}{} ==\n",
        o.workload,
        o.seed,
        o.input_hash,
        o.rounds,
        o.attempted,
        o.failed,
        o.correct,
        if o.noisy { " NOISY" } else { "" },
    );
    let row = |m: &Measured| {
        format!(
            "  {:<34} {:>16.4} {:<7} median {:>16.4}  iqr {:>5.1}%\n",
            m.name,
            m.value,
            m.unit,
            m.median,
            m.iqr_ratio * 100.0
        )
    };
    for m in &o.end_to_end {
        out.push_str(&row(m));
    }
    for m in &o.per_layer {
        // An untraced run fills only some ledger rows; skip the empty ones.
        if trace || m.value != 0.0 {
            out.push_str(&format!("  {:<34} {:>16.4} {}\n", m.name, m.value, m.unit));
        }
    }
    out
}
