//! Rendering shared by the accounting fixtures: every simulated
//! [`Metrics`] field as exact bit patterns, and trace JSONL lines with
//! their host-measured fields removed.

use std::fmt::Write as _;

use graphr_repro::core::Metrics;

/// A float as its exact bit pattern.
fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Every simulated `Metrics` field; `plan.time` is host-measured and
/// left out.
pub fn render_metrics(out: &mut String, m: &Metrics) {
    let t = &m.time_breakdown;
    let e = &m.energy;
    let ev = &m.events;
    let d = &m.disk;
    let net = &m.net;
    let p = &m.plan;
    let _ = writeln!(
        out,
        "iterations {} elapsed {}",
        m.iterations,
        bits(m.elapsed.as_nanos())
    );
    let _ = writeln!(
        out,
        "time program {} compute {} memory {} apply {}",
        bits(t.program.as_nanos()),
        bits(t.compute.as_nanos()),
        bits(t.memory.as_nanos()),
        bits(t.apply.as_nanos()),
    );
    let _ = writeln!(
        out,
        "energy program {} mvm {} driver {} adc {} sample_hold {} shift_add {} salu {} registers {} memory {}",
        bits(e.program.as_joules()),
        bits(e.mvm.as_joules()),
        bits(e.driver.as_joules()),
        bits(e.adc.as_joules()),
        bits(e.sample_hold.as_joules()),
        bits(e.shift_add.as_joules()),
        bits(e.salu.as_joules()),
        bits(e.registers.as_joules()),
        bits(e.memory.as_joules()),
    );
    let _ = writeln!(out, "events {ev:?}");
    let _ = writeln!(
        out,
        "disk bytes_loaded {} blocks_loaded {} blocks_seeked {} io_segments {} time {} demand_time {} overlapped {} bytes_prefetched {} prefetch_hits {} prefetch_wasted {}",
        d.bytes_loaded,
        d.blocks_loaded,
        d.blocks_seeked,
        d.io_segments,
        bits(d.time.as_nanos()),
        bits(d.demand_time.as_nanos()),
        bits(d.overlapped.as_nanos()),
        d.bytes_prefetched,
        d.prefetch_hits,
        d.prefetch_wasted,
    );
    let _ = writeln!(
        out,
        "net bytes_exchanged {} exchanges {} time {} overlapped {} energy {}",
        net.bytes_exchanged,
        net.exchanges,
        bits(net.time.as_nanos()),
        bits(net.overlapped.as_nanos()),
        bits(net.energy.as_joules()),
    );
    let _ = writeln!(
        out,
        "plan full_rebuilds {} delta_patches {} units_reused {} units_patched {} mask_words {} summary_skips {} delta_words {}",
        p.full_rebuilds,
        p.delta_patches,
        p.units_reused,
        p.units_patched,
        p.mask_words,
        p.summary_skips,
        p.delta_words,
    );
    let _ = writeln!(out, "lanes {:?}", m.lanes);
}

/// Drops every `,"host_…":<number>` field from one JSONL line.
pub fn strip_host_fields(line: &str) -> String {
    let mut s = line.to_string();
    while let Some(start) = s.find(",\"host_") {
        let value = start + s[start..].find(':').expect("field has a value") + 1;
        let end = value
            + s[value..]
                .find([',', '}'])
                .expect("value is followed by a delimiter");
        s.replace_range(start..end, "");
    }
    s
}
