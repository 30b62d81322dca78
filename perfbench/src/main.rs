//! The GraphR benchmark: one command that runs a seeded closed-loop
//! workload through the public service API (`Session::submit`,
//! `Server::enqueue`/`drain`), checks every answer against the gold
//! algorithms, and prints every metric by name with its unit and clock.
//!
//! ```text
//! graphr-perfbench --workload traverse_ooc|rank_cluster|serve_mixed \
//!                  --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs every round twice, untraced and traced, and prints the
//! per-layer metrics: self times from benchmark-side spans, counts from
//! the simulated accounting, and the gap between the two as the tracing
//! overhead. The last line of standard output is one JSON
//! object; `perfbench/README.md` defines every metric.

mod probe;
mod spans;
mod tally;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::Probe;
use spans::{span, Name, Recorder, SelfTime, Shared};
use tally::{percentile, percentile_sorted, ratio, Pass, Totals};
use workloads::{ServeLoop, SetupTimes, SubmitLoop, Workload, THREADS};

const USAGE: &str = "usage: graphr-perfbench --workload traverse_ooc|rank_cluster|serve_mixed \
                     --seed N --seconds S --trace 0|1";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Probes whose median divides a round's time (see
/// [`LoopStats::round_probes`]).
const PROBE_WINDOW: usize = 5;

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_out";

/// Rounds whose spans go to the span file (a traversal round holds
/// thousands of spans, so the whole run would take tens of megabytes).
const SPAN_FILE_ROUNDS: u32 = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let known = [
        "traverse_ooc",
        "rank_cluster",
        "serve_mixed",
        "rank_cluster_graph500",
    ];
    if !known.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "traverse_ooc" => bench(&args, SubmitLoop::traverse),
        "rank_cluster" => bench(&args, SubmitLoop::rank),
        "rank_cluster_graph500" => bench(&args, SubmitLoop::rank_graph500),
        _ => bench(&args, ServeLoop::new),
    };
    report.print(&args);
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one closed loop measured.
#[derive(Default)]
struct LoopStats {
    /// Rounds in one pass of the schedule; round `r` of the loop is
    /// schedule round `r % pass_len`.
    pass_len: usize,
    round_ns: Vec<u64>,
    /// The host-speed probe's time just before each round.
    probe_ns: Vec<u64>,
    queries: u64,
    failed: u64,
    failures: Vec<String>,
    pagerank_err: f64,
    /// The deterministic summary of the loop's first pass.
    pass: Pass,
    /// Edges streamed over every round of the loop.
    edges_streamed: u64,
    export_bytes: u64,
    /// Span self times as of the end of the first pass (traced loop).
    pass_spans: Option<[SelfTime; Name::ALL.len()]>,
}

impl LoopStats {
    fn round_ms(&self, p: f64) -> f64 {
        percentile(&self.round_ns, p) as f64 / 1e6
    }

    fn busy_s(&self) -> f64 {
        self.round_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Round time in probe times, as a percentile over the schedule's
    /// rounds. Each time a round runs, its host time is divided by the
    /// median of the probes run before it and before the previous
    /// `PROBE_WINDOW - 1` rounds (that follows the host's drift, which
    /// takes seconds, but not one probe's jitter). A schedule round's
    /// value is the median over its repetitions in the loop, so the
    /// percentile ranks the schedule's rounds by their cost, not by the
    /// host's momentary stalls.
    fn round_probes(&self, p: f64) -> f64 {
        let mut by_round = vec![Vec::new(); self.pass_len];
        for (i, &round) in self.round_ns.iter().enumerate() {
            let mut window = self.probe_ns[(i + 1).saturating_sub(PROBE_WINDOW)..=i].to_vec();
            window.sort_unstable();
            by_round[i % self.pass_len].push(round as f64 / window[window.len() / 2] as f64);
        }
        let mut per_round: Vec<f64> = by_round.iter_mut().map(|v| median(v)).collect();
        per_round.sort_by(f64::total_cmp);
        percentile_sorted(&per_round, p)
    }

    fn probe_ms(&self, p: f64) -> f64 {
        percentile(&self.probe_ns, p) as f64 / 1e6
    }

    /// Runs round `r` of the loop (schedule round `r % pass_len`), timing
    /// the host-speed probe and then the round itself; the gold check
    /// (and, traced, the serve replay) runs after the clock stops.
    fn round<W: Workload>(&mut self, w: &mut W, r: usize, probe: &mut Probe, rec: Option<&Shared>) {
        let pass_len = w.pass_len();
        let i = r % pass_len;
        self.pass_len = pass_len;
        self.probe_ns.push(probe.run());
        let t = Instant::now();
        let out = match rec {
            None => w.run(i),
            Some(rec) => {
                rec.borrow_mut()
                    .set_job(u32::try_from(r).expect("fewer than 2^32 rounds"));
                span(rec, Name::Round, || w.run_traced(i, rec))
            }
        };
        let ns = u64::try_from(t.elapsed().as_nanos()).expect("a round lasts under 584 years");
        let mut res = w.check(i, out, rec);
        self.round_ns.push(ns);
        self.queries += res.queries;
        self.failed += res.failed;
        self.failures.append(&mut res.failures);
        self.pagerank_err = self.pagerank_err.max(res.pagerank_err);
        self.edges_streamed += res.totals.edges_streamed;
        self.export_bytes += res.export_bytes;
        if r < pass_len {
            self.pass.add(&res);
        }
        if r + 1 == pass_len {
            self.pass_spans = rec.map(|rec| rec.borrow().self_times());
        }
    }
}

/// Runs closed-loop rounds until the budget is spent and at least one
/// full pass of the schedule is done. With a recorder, every schedule
/// round runs twice, untraced and traced, in alternating order: the two
/// halves then see the same host drift, and their gap is the tracing
/// overhead.
fn run_loop<W: Workload>(
    w: &mut W,
    budget: Duration,
    probe: &mut Probe,
    rec: Option<&Shared>,
) -> (LoopStats, LoopStats) {
    let pass_len = w.pass_len();
    let (mut untraced, mut traced) = (LoopStats::default(), LoopStats::default());
    let start = Instant::now();
    let mut r = 0usize;
    while r < pass_len || start.elapsed() < budget {
        match rec {
            None => untraced.round(w, r, probe, None),
            Some(rec) if r.is_multiple_of(2) => {
                untraced.round(w, r, probe, None);
                traced.round(w, r, probe, Some(rec));
            }
            Some(rec) => {
                traced.round(w, r, probe, Some(rec));
                untraced.round(w, r, probe, None);
            }
        }
        r += 1;
    }
    (untraced, traced)
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    clock: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, clock: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        clock,
        note: String::new(),
    }
}

/// Everything a run prints.
struct Report {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    /// Deterministic values of the first pass (the determinism check).
    deterministic: Vec<(&'static str, f64)>,
    idle: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    fn print(&self, args: &Args) {
        for line in &self.lines {
            println!("{line}");
        }
        for m in &self.metrics {
            println!(
                "  {:<28} {:>16} {:<8} {:<5} {}",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.clock,
                m.note
            );
        }
        if args.trace {
            println!(
                "idle layers on {} (each should read 0 on this workload):",
                args.workload
            );
            for (name, value) in &self.idle {
                let verdict = if *value == 0.0 { "ok" } else { "NOT IDLE" };
                println!("  {name:<28} {value:>16} {verdict}");
            }
        }
        let mut det = String::new();
        for (i, (name, value)) in self.deterministic.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(det, "{sep}\"{name}\":{value}");
        }
        println!("deterministic: {{{det}}}");
        for f in self.failures.iter().take(20) {
            eprintln!("FAILED: {f}");
        }
        let mut json = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                json,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        );
    }
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn bench<W: Workload>(args: &Args, setup: fn(u64, &mut SetupTimes) -> W) -> Report {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut times = SetupTimes::default();
    let mut setup_s = Vec::with_capacity(repeats);
    let mut w = None;
    for _ in 0..repeats {
        drop(w.take());
        let t = Instant::now();
        w = Some(setup(args.seed, &mut times));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let t = Instant::now();
    w.compute_gold();
    let gold_ms = t.elapsed().as_secs_f64() * 1e3;

    let lines = vec![format!(
        "graphr-perfbench: workload {}, seed {}, {} s, trace {}, session threads {THREADS}, \
         available parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    )];
    let seconds = Duration::from_secs(args.seconds);
    let mut probe = Probe::new();
    probe.run();
    if args.trace {
        per_layer(args, &mut w, seconds, &mut probe, times, gold_ms, lines)
    } else {
        end_to_end(&mut w, seconds, &mut probe, setup_s, lines)
    }
}

/// The untraced run: every end-to-end metric.
fn end_to_end<W: Workload>(
    w: &mut W,
    seconds: Duration,
    probe: &mut Probe,
    mut setup_s: Vec<f64>,
    mut lines: Vec<String>,
) -> Report {
    let cache = w.session().cache_stats();
    let (a, _) = run_loop(w, seconds, probe, None);
    let after = w.session().cache_stats();
    let pass = &a.pass;
    lines.push(format!(
        "closed loop: 1 client, {} rounds ({} queries) in {:.3} s of rounds; first pass \
         {} rounds / {} queries / {} machine runs; cache {} hits, {} misses",
        a.round_ns.len(),
        a.queries,
        a.busy_s(),
        pass.rounds,
        pass.queries,
        pass.totals.runs,
        after.hits - cache.hits,
        after.misses - cache.misses,
    ));
    let n_rounds = a.round_ns.len();
    let n_lat = pass.latency_ns.len();
    let mut metrics = vec![
        Metric {
            note: format!("median of {} set-ups", setup_s.len()),
            ..metric("setup_s", median(&mut setup_s), "s", "host")
        },
        Metric {
            note: format!("n = {} schedule rounds over {n_rounds} rounds", a.pass_len),
            ..metric("round_probes_p50", a.round_probes(0.50), "probes", "host")
        },
        Metric {
            note: format!("n = {} schedule rounds over {n_rounds} rounds", a.pass_len),
            ..metric("round_probes_p90", a.round_probes(0.90), "probes", "host")
        },
        metric("peak_rss_mib", peak_rss_mib(), "MiB", "host"),
        Metric {
            note: format!("{} machine runs, first pass", pass.totals.runs),
            ..metric("sim_wall_ms", pass.totals.wall_ns / 1e6, "ms", "sim")
        },
        metric("sim_energy_mj", pass.totals.energy_j * 1e3, "mJ", "sim"),
        Metric {
            note: format!("n = {n_lat} queries, first pass"),
            ..metric(
                "sim_latency_ms_p50",
                percentile(&pass.latency_ns, 0.50) as f64 / 1e6,
                "ms",
                "sim",
            )
        },
        Metric {
            note: format!("n = {n_lat} queries, first pass"),
            ..metric(
                "sim_latency_ms_p99",
                percentile(&pass.latency_ns, 0.99) as f64 / 1e6,
                "ms",
                "sim",
            )
        },
    ];
    for m in &mut metrics {
        if m.name == "round_probes_p90" && a.pass_len < 100 {
            m.note.push_str(" (under 10 schedule rounds beyond p90)");
        }
        if m.name == "sim_latency_ms_p99" && n_lat < 1000 {
            m.note.push_str(" (fewer than 10 samples beyond p99)");
        }
    }
    lines.push(format!(
        "host clock, not normalised (drifts with the host's load): round_ms p50 {:.3} p90 {:.3}, \
         queries_per_s {:.3}, probe_ms p50 {:.3}",
        a.round_ms(0.50),
        a.round_ms(0.90),
        a.queries as f64 / a.busy_s(),
        a.probe_ms(0.50),
    ));
    lines.push(format!(
        "gates: failed_frac {} ({} of {} queries), pagerank_err_max {} (limit 0.5)",
        ratio(a.failed as f64, a.queries as f64),
        a.failed,
        a.queries,
        a.pagerank_err
    ));
    Report {
        lines,
        metrics,
        deterministic: deterministic(pass, None),
        idle: Vec::new(),
        attempted: a.queries,
        failed: a.failed,
        failures: a.failures,
    }
}

/// The traced run: every per-layer metric.
fn per_layer<W: Workload>(
    args: &Args,
    w: &mut W,
    seconds: Duration,
    probe: &mut Probe,
    times: SetupTimes,
    gold_ms: f64,
    mut lines: Vec<String>,
) -> Report {
    w.prepare_trace();
    let cache = w.session().cache_stats();
    let rec = Recorder::shared();
    let (a, mut b) = run_loop(w, seconds, probe, Some(&rec));
    let after = w.session().cache_stats();
    if a.pass.totals != b.pass.totals || a.pass.latency_ns != b.pass.latency_ns {
        b.failed += 1;
        b.failures
            .push("the traced pass's simulated accounting differs from the untraced pass".into());
    }
    std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| {
            rec.borrow().write_csv(
                &std::path::Path::new(SPAN_DIR)
                    .join(format!("spans-{}-seed{}.csv", args.workload, args.seed)),
                SPAN_FILE_ROUNDS,
            )
        })
        .unwrap_or_else(|e| eprintln!("could not write spans: {e}"));
    let st = rec.borrow().self_times();
    let self_ns = |name: Name| st[name.index()].self_ns;
    let calls = |name: Name| st[name.index()].calls;
    let rounds_b = b.round_ns.len() as f64;
    let per_round_ms = |ns: u64| ns as f64 / 1e6 / rounds_b;
    let p = &a.pass;
    let t = &p.totals;
    let scan_ns =
        self_ns(Name::ExecScanMac) + self_ns(Name::ExecScanAddOp) + self_ns(Name::ExecScanLanes);
    let plan_calls = b.pass_spans.map_or(0, |s| s[Name::ExecPlan.index()].calls);
    let sim_ms = |ns: &[u64], q: f64| percentile(ns, q) as f64 / 1e6;
    // Solo workloads have no server: their queries neither wait nor share
    // machine runs, so the serve layer reads 0 there.
    let serves = args.workload == "serve_mixed";
    let served = |v: f64| if serves { v } else { 0.0 };
    let attempted = a.queries + b.queries;
    let failed = a.failed + b.failed;
    let metrics = vec![
        metric(
            "graph.generate_ms",
            times.generate_ns as f64 / 1e6,
            "ms",
            "host",
        ),
        metric("graph.gold_ms", gold_ms, "ms", "host"),
        metric(
            "preprocess.tile_ms",
            times.tile_ns as f64 / 1e6,
            "ms",
            "host",
        ),
        metric(
            "sim.driver_self_ms",
            per_round_ms(self_ns(Name::SimDriver)),
            "ms",
            "host",
        ),
        metric(
            "exec.plan_ms",
            per_round_ms(self_ns(Name::ExecPlan)),
            "ms",
            "host",
        ),
        metric("exec.plan_calls", plan_calls as f64, "count", "sim"),
        metric("plan.delta_patches", t.delta_patches as f64, "count", "sim"),
        metric("plan.full_rebuilds", t.full_rebuilds as f64, "count", "sim"),
        metric(
            "plan.unit_reuse_ratio",
            ratio(
                t.units_reused as f64,
                (t.units_reused + t.units_patched) as f64,
            ),
            "ratio",
            "sim",
        ),
        metric(
            "exec.scan_add_op_ms",
            per_round_ms(self_ns(Name::ExecScanAddOp)),
            "ms",
            "host",
        ),
        metric(
            "exec.scan_lanes_ms",
            per_round_ms(self_ns(Name::ExecScanLanes)),
            "ms",
            "host",
        ),
        metric(
            "exec.scan_mac_ms",
            per_round_ms(self_ns(Name::ExecScanMac)),
            "ms",
            "host",
        ),
        metric(
            "exec.end_iteration_ms",
            per_round_ms(self_ns(Name::ExecEndIteration)),
            "ms",
            "host",
        ),
        metric(
            "exec.host_ns_per_edge",
            ratio(scan_ns as f64, b.edges_streamed as f64),
            "ns/edge",
            "host",
        ),
        metric(
            "events.edges_streamed",
            t.edges_streamed as f64,
            "count",
            "sim",
        ),
        metric(
            "events.subgraphs_processed",
            t.subgraphs_processed as f64,
            "count",
            "sim",
        ),
        metric(
            "events.subgraphs_pruned",
            t.subgraphs_pruned as f64,
            "count",
            "sim",
        ),
        metric(
            "events.skip_fraction",
            ratio(
                t.slots_skipped as f64,
                (t.slots_skipped + t.subgraphs_processed) as f64,
            ),
            "ratio",
            "sim",
        ),
        metric("events.tile_fill", tile_fill(t), "ratio", "sim"),
        metric(
            "outofcore.bytes_loaded",
            t.bytes_loaded as f64,
            "bytes",
            "sim",
        ),
        metric("outofcore.demand_io_ms", t.demand_io_ns / 1e6, "ms", "sim"),
        metric(
            "outofcore.bytes_prefetched",
            t.bytes_prefetched as f64,
            "bytes",
            "sim",
        ),
        metric(
            "outofcore.prefetch_hit_ratio",
            ratio(
                (t.bytes_prefetched - t.prefetch_wasted) as f64,
                t.bytes_prefetched as f64,
            ),
            "ratio",
            "sim",
        ),
        metric(
            "outofcore.io_segments",
            t.io_segments as f64,
            "count",
            "sim",
        ),
        metric(
            "multinode.self_ms",
            per_round_ms(
                self_ns(Name::MultinodeBuild)
                    + self_ns(Name::MultinodeScan)
                    + self_ns(Name::MultinodeEndIteration),
            ),
            "ms",
            "host",
        ),
        metric(
            "multinode.bytes_exchanged",
            t.bytes_exchanged as f64,
            "bytes",
            "sim",
        ),
        metric("multinode.exchanges", t.exchanges as f64, "count", "sim"),
        metric("multinode.net_ms", t.net_ns / 1e6, "ms", "sim"),
        metric(
            "multinode.net_overlapped_ms",
            t.net_overlapped_ns / 1e6,
            "ms",
            "sim",
        ),
        metric(
            "bound.compute_utilization",
            ratio(t.compute_ns, t.wall_ns),
            "ratio",
            "sim",
        ),
        metric(
            "bound.disk_utilization",
            ratio(t.disk_ns, t.wall_ns),
            "ratio",
            "sim",
        ),
        metric(
            "session.cache_hit_ratio",
            ratio(
                (after.hits - cache.hits) as f64,
                (after.hits - cache.hits + after.misses - cache.misses) as f64,
            ),
            "ratio",
            "host",
        ),
        metric(
            "serve.enqueue_us",
            ratio(
                self_ns(Name::ServeEnqueue) as f64 / 1e3,
                calls(Name::ServeEnqueue) as f64,
            ),
            "us",
            "host",
        ),
        metric(
            "serve.drain_ms",
            per_round_ms(self_ns(Name::ServeDrain)),
            "ms",
            "host",
        ),
        metric("serve.waves", p.fused_waves as f64, "count", "sim"),
        metric(
            "serve.fused_frac",
            ratio(p.fused_queries as f64, p.queries as f64),
            "ratio",
            "sim",
        ),
        metric(
            "serve.lanes_mean",
            served(ratio(p.queries as f64, t.runs as f64)),
            "lanes",
            "sim",
        ),
        metric("serve.wait_ms_p50", sim_ms(&p.wait_ns, 0.50), "ms", "sim"),
        metric("serve.wait_ms_p99", sim_ms(&p.wait_ns, 0.99), "ms", "sim"),
        metric(
            "serve.service_ms_p50",
            served(sim_ms(&p.service_ns, 0.50)),
            "ms",
            "sim",
        ),
        metric(
            "export.report_json_us",
            ratio(
                self_ns(Name::ExportReportJson) as f64 / 1e3,
                calls(Name::ExportReportJson) as f64,
            ),
            "us",
            "host",
        ),
        metric(
            "export.stats_ms",
            per_round_ms(self_ns(Name::ExportStats)),
            "ms",
            "host",
        ),
        metric(
            "export.bytes",
            b.export_bytes as f64 / rounds_b,
            "bytes",
            "host",
        ),
        Metric {
            note: format!(
                "traced round p50 {:.3} ms vs untraced {:.3} ms",
                b.round_ms(0.5),
                a.round_ms(0.5)
            ),
            ..metric(
                "trace.overhead_frac",
                b.round_ms(0.5) / a.round_ms(0.5) - 1.0,
                "ratio",
                "host",
            )
        },
        metric("host.round_ms_p50", a.round_ms(0.50), "ms", "host"),
        metric("host.round_ms_p90", a.round_ms(0.90), "ms", "host"),
        metric(
            "host.queries_per_s",
            a.queries as f64 / a.busy_s(),
            "1/s",
            "host",
        ),
        metric("host.probe_ms_p50", a.probe_ms(0.50), "ms", "host"),
        metric(
            "gate.failed_frac",
            ratio(failed as f64, attempted as f64),
            "ratio",
            "host",
        ),
        metric(
            "gate.pagerank_err_max",
            a.pagerank_err.max(b.pagerank_err),
            "err",
            "sim",
        ),
    ];
    lines.push(format!(
        "interleaved loop: {} untraced and {} traced rounds; per-round host times are means over \
         the traced rounds; counts and sim values cover the first pass ({} rounds)",
        a.round_ns.len(),
        b.round_ns.len(),
        p.rounds
    ));
    lines.push("self time per traced round, by span:".into());
    for (s, name) in st.iter().zip(Name::ALL) {
        if s.calls > 0 {
            lines.push(format!(
                "  {:<28} {:>12.4} ms  ({} calls)",
                name.as_str(),
                s.self_ns as f64 / 1e6 / rounds_b,
                s.calls
            ));
        }
    }
    lines.push("self time per traced round, by layer:".into());
    for layer in ["session", "sim", "exec", "multinode", "serve", "export"] {
        let ns: u64 = st
            .iter()
            .zip(Name::ALL)
            .filter(|(_, n)| n.as_str().split('.').next() == Some(layer))
            .map(|(s, _)| s.self_ns)
            .sum();
        lines.push(format!("  {layer:<28} {:>12.4} ms", per_round_ms(ns)));
    }
    lines.push(
        "  graph, preprocess: set-up only (graph.generate_ms, graph.gold_ms, \
         preprocess.tile_ms)"
            .into(),
    );
    lines.push(
        "  outofcore: no boundary of its own; its host time is inside exec.end_iteration \
         (ScanDriver) and the scans (disk pricing)"
            .into(),
    );
    lines.push(
        "  analyze: no boundary of its own; BottleneckReport::classify runs inside \
         export.report_json"
            .into(),
    );
    if calls(Name::Replay) > 0 {
        lines.push(
            "  serve.drain runs its waves' engines inside the program, so its self time \
             includes them; the sim and exec rows come from the replay of those waves"
                .into(),
        );
    }
    let idle_names = idle_layers(&args.workload);
    let idle = metrics
        .iter()
        .filter(|m| idle_names.iter().any(|i| m.name.starts_with(i)))
        .map(|m| (m.name, m.value))
        .collect();
    let mut failures = a.failures;
    failures.extend(b.failures);
    Report {
        lines,
        metrics,
        deterministic: deterministic(p, Some(plan_calls)),
        idle,
        attempted,
        failed,
        failures,
    }
}

/// Edges loaded per crossbar cell programmed: `edges_loaded ÷ (tiles ×
/// C²)` with the session's crossbar size.
fn tile_fill(t: &Totals) -> f64 {
    let c = graphr_core::GraphRConfig::default().crossbar_size as f64;
    ratio(t.edges_loaded as f64, t.tiles_loaded as f64 * c * c)
}

/// Per-layer metrics (by name or name prefix) that a workload must leave
/// at exactly zero; a nonzero value means it was routed through a layer it
/// is meant to bypass.
fn idle_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "traverse_ooc" => &[
            "exec.scan_mac_ms",
            "exec.scan_lanes_ms",
            "multinode.",
            "serve.",
            "export.",
        ],
        "rank_cluster" | "rank_cluster_graph500" => &[
            "plan.delta_patches",
            "exec.scan_add_op_ms",
            "exec.scan_lanes_ms",
            "outofcore.",
            "serve.",
            "export.",
        ],
        _ => &["outofcore.", "multinode."],
    }
}

/// The values that must repeat bit for bit under the same seed: every
/// simulated end-to-end metric and per-layer count of the first pass.
fn deterministic(p: &Pass, plan_calls: Option<u64>) -> Vec<(&'static str, f64)> {
    let t = &p.totals;
    let mut out = vec![
        ("sim_wall_ms", t.wall_ns / 1e6),
        ("sim_energy_mj", t.energy_j * 1e3),
        (
            "sim_latency_ms_p50",
            percentile(&p.latency_ns, 0.50) as f64 / 1e6,
        ),
        (
            "sim_latency_ms_p99",
            percentile(&p.latency_ns, 0.99) as f64 / 1e6,
        ),
        ("machine_runs", t.runs as f64),
        ("plan.delta_patches", t.delta_patches as f64),
        ("plan.full_rebuilds", t.full_rebuilds as f64),
        ("plan.units_reused", t.units_reused as f64),
        ("events.edges_streamed", t.edges_streamed as f64),
        ("events.subgraphs_processed", t.subgraphs_processed as f64),
        ("events.subgraphs_pruned", t.subgraphs_pruned as f64),
        ("events.edges_loaded", t.edges_loaded as f64),
        ("outofcore.bytes_loaded", t.bytes_loaded as f64),
        ("outofcore.demand_io_ms", t.demand_io_ns / 1e6),
        ("outofcore.bytes_prefetched", t.bytes_prefetched as f64),
        ("outofcore.io_segments", t.io_segments as f64),
        ("multinode.bytes_exchanged", t.bytes_exchanged as f64),
        ("multinode.exchanges", t.exchanges as f64),
        ("multinode.net_ms", t.net_ns / 1e6),
        ("serve.waves", p.fused_waves as f64),
        (
            "serve.wait_ms_p99",
            percentile(&p.wait_ns, 0.99) as f64 / 1e6,
        ),
    ];
    if let Some(calls) = plan_calls {
        out.push(("exec.plan_calls", calls as f64));
    }
    out
}
