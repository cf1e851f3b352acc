//! Layered host-time benchmark of the skyward simulator.
//!
//! One invocation runs one workload (see [`workloads`]) in its own
//! process for about `--seconds`, as a sequence of *episodes*: each
//! episode builds a fresh seeded world (the set-up) and runs the
//! workload's whole shape, one closed-loop step at a time. Episodes cycle
//! over [`WORLDS`] worlds seeded from `--seed`; every episode must
//! reproduce its world's first `sim_digest`.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` (the
//! `perfbench-traced` binary, with its counting allocator) reports the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it is the run record.

// A benchmark measures host wall time by definition: the repository's
// clippy and sky-lint bans on `Instant::now` (for simulation code) are
// lifted here, as they are for the bench crate.
// sky-lint: allow-file(D002, a benchmark measures host wall time by definition)
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

pub mod alloc;
pub mod calibrate;
pub mod clock;
pub mod digest;
pub mod probe;
pub mod replay;
pub mod stats;
pub mod workloads;

use digest::Digest;
use probe::{Layer, LayerTable, Probe};
use sky_core::sim::SimRng;
use workloads::{Episode, Length, Workload};

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 42;

/// Host time the traced run gives the heap-vs-wheel replay.
const REPLAY_BUDGET: Duration = Duration::from_millis(1_500);

/// Parsed command line.
pub struct Options {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Source revision, for the run record.
    pub rev: String,
}

/// Parse `--workload <name> [--seed N] [--seconds S] [--trace 0|1]
/// [--rev R]`.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut rev = "unknown".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                }
            }
            "--rev" => rev = value.clone(),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rev,
    })
}

/// Worlds a run cycles through: episode `i` runs world `i % WORLDS`,
/// each seeded from the run's seed, so one world's quirks (say, its
/// zones' CPU mix) do not set a run's figures.
pub const WORLDS: usize = 16;

/// The seed of world `k` of a run seeded with `seed`.
pub fn world_seed(seed: u64, k: usize) -> u64 {
    SimRng::seed_from(seed)
        .derive("perfbench-world")
        .derive(&k.to_string())
        .next_u64()
}

/// What a run keeps of one episode once it has been checked: a few
/// numbers, so a long run's heap does not fill with per-episode data
/// (which would make `peak_rss_mb` grow with the run's length).
#[derive(Debug, Clone, Copy)]
struct Tally {
    world: usize,
    traced: bool,
    setup_s: Option<f64>,
    timed_ns: f64,
    /// Median host time of the episode's steps, ms.
    step_p50_ms: f64,
    /// Invocations and engine events of a completed episode.
    completed: Option<(u64, u64)>,
    failed: u64,
}

/// A metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// Whether every check passed and every episode agreed.
    pub correct: bool,
    /// Steps attempted.
    pub attempted: u64,
    /// Steps that failed.
    pub failed: u64,
    /// The reported metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// The run's `sim_digest`: the fold of its worlds' digests.
    pub digest: Option<u64>,
    /// Episodes made.
    pub episodes: usize,
    /// Steps timed.
    pub steps: usize,
    /// Per-episode set-up seconds.
    pub setup_s: Vec<f64>,
    /// Per-episode timed-phase seconds.
    pub timed_s: Vec<f64>,
    /// Per-episode host slowdown measured after the episode; the
    /// end-to-end times are divided by their median.
    pub slowdown: Vec<f64>,
}

/// Run `w` for about `seconds` (at least two passes over the worlds when
/// traced, one otherwise) and collect its metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, len: Length) -> RunReport {
    let start = Instant::now();
    let min = if trace { 2 * WORLDS } else { WORLDS };
    let planned = (w.steps)(len);
    let mut refs: Vec<Option<Episode>> = vec![None; WORLDS];
    let mut tallies: Vec<Tally> = Vec::new();
    let mut steps_ms = Vec::new();
    let mut slowdowns = Vec::new();
    let mut layers = LayerTable::default();
    // Allocations per invocation of each world's first traced episode.
    let mut allocs: [Option<(f64, f64)>; WORLDS] = [None; WORLDS];
    // `VmHWM` once every world has run: later episodes repeat the same
    // worlds, and reading it then would let the run's growing step log
    // move the figure with the number of episodes the host had time for.
    let mut peak_rss = 0.0;
    while tallies.len() < min || start.elapsed().as_secs_f64() < seconds {
        let world = tallies.len() % WORLDS;
        // The traced run alternates untraced and traced passes over the
        // worlds, so the two timed phases can be compared
        // (`trace.overhead_ratio`).
        let traced = trace && (tallies.len() / WORLDS) % 2 == 1;
        let mut probe = Probe::new(traced);
        let episode = catch_unwind(AssertUnwindSafe(|| {
            (w.episode)(world_seed(seed, world), len, &mut probe)
        }))
        .ok();
        let setup_ns = (probe.setup_s().unwrap_or(0.0) * 1e9) as u64;
        slowdowns.push(calibrate::slowdown((setup_ns + probe.timed_ns()) / 6));
        let episode_ms: Vec<f64> = probe.step_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        steps_ms.extend_from_slice(&episode_ms);
        let completed = episode.as_ref().map(|e| (e.invocations, e.events));
        if traced {
            layers.add(&probe.layers);
            if let Some((invocations, _)) = completed {
                let (count, bytes) = probe.timed_allocs;
                allocs[world].get_or_insert((ratio(count, invocations), ratio(bytes, invocations)));
            }
        }
        // A world's first completed episode is its reference; every other
        // episode of that world must reproduce it exactly.
        let agrees = match (episode, &mut refs[world]) {
            (Some(e), Some(reference)) => e == *reference,
            (Some(e), reference) => {
                *reference = Some(e);
                true
            }
            (None, _) => false,
        };
        let ok_steps = probe.steps_done() as u64 - probe.failed_steps;
        tallies.push(Tally {
            world,
            traced,
            setup_s: probe.setup_s(),
            timed_ns: probe.timed_ns() as f64,
            step_p50_ms: stats::median(&episode_ms),
            completed,
            failed: if agrees { planned - ok_steps } else { planned },
        });
        if tallies.len() == WORLDS {
            peak_rss = peak_rss_mb();
        }
    }

    let attempted = planned * tallies.len() as u64;
    let mut failed = tallies.iter().map(|t| t.failed).sum();
    let refs: Option<Vec<Episode>> = refs.into_iter().collect();
    let digest = refs.as_ref().map(|refs| {
        let mut d = Digest::default();
        refs.iter().for_each(|e| d.u64(e.digest));
        d.value()
    });
    let metrics = match (refs, trace) {
        (None, _) => Vec::new(),
        (Some(_), false) => end_to_end(&tallies, &steps_ms, peak_rss, stats::median(&slowdowns)),
        (Some(refs), true) => {
            if let Some(check) = w.traced_extra {
                let mut probe = Probe::new(true);
                let checked = catch_unwind(AssertUnwindSafe(|| {
                    check(world_seed(seed, 0), len, &refs[0], &mut probe)
                }));
                if !matches!(checked, Ok(Ok(()))) {
                    if let Ok(Err(why)) = checked {
                        eprintln!("perfbench: {why}");
                    }
                    failed = attempted;
                }
                layers.add(&probe.layers);
            }
            traced_metrics(w, seed, &tallies, &refs, &layers, &allocs)
        }
    };
    RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        digest,
        episodes: tallies.len(),
        steps: steps_ms.len(),
        setup_s: tallies.iter().filter_map(|t| t.setup_s).collect(),
        timed_s: tallies.iter().map(|t| t.timed_ns / 1e9).collect(),
        slowdown: slowdowns,
    }
}

/// The per-layer metrics of a traced run: layer timings from its traced
/// episodes (and the fleet's two-shard re-run), counters averaged over
/// its worlds' reference episodes.
fn traced_metrics(
    w: &Workload,
    seed: u64,
    tallies: &[Tally],
    refs: &[Episode],
    layers: &LayerTable,
    allocs: &[Option<(f64, f64)>],
) -> Vec<Metric> {
    let (mut ns, mut events, mut windows) = (0.0, 0u64, 0.0);
    let (mut traced_timed, mut untraced_timed) = (Vec::new(), Vec::new());
    for t in tallies {
        let Some((_, episode_events)) = t.completed else {
            continue;
        };
        if t.traced {
            traced_timed.push(t.timed_ns);
            ns += t.timed_ns;
            events += episode_events;
            windows += counter(&refs[t.world], "faas.sharded.windows");
        } else {
            untraced_timed.push(t.timed_ns);
        }
    }
    // Exact counts, so the mean over worlds repeats run to run.
    let allocs: Vec<(f64, f64)> = allocs.iter().flatten().copied().collect();
    let mean_alloc =
        |f: fn(&(f64, f64)) -> f64| allocs.iter().map(f).sum::<f64>() / allocs.len().max(1) as f64;
    let schedule = (w.schedule)(world_seed(seed, 0), &refs[0].sent);
    let (wheel, heap) = replay::measure(&schedule, REPLAY_BUDGET);
    let fleet_ns = layers.get(Layer::FleetRun).ns as f64;
    per_layer(
        refs,
        layers,
        &[
            ("faas.engine.ns_per_event", ns / events.max(1) as f64),
            (
                "faas.sharded.ns_per_window",
                if windows > 0.0 {
                    fleet_ns / windows
                } else {
                    0.0
                },
            ),
            ("sim.events.wheel_ns_per_op", wheel),
            ("sim.events.heap_ns_per_op", heap),
            ("alloc.count_per_invocation", mean_alloc(|a| a.0)),
            ("alloc.bytes_per_invocation", mean_alloc(|a| a.1)),
            (
                "trace.overhead_ratio",
                stats::median(&traced_timed) / stats::median(&untraced_timed),
            ),
        ],
    )
}

/// One of an episode's per-layer counters (0 if the workload has none).
fn counter(e: &Episode, name: &str) -> f64 {
    e.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The end-to-end metrics of an untraced run.
///
/// A shared host can run ~1.5x slower for tens of seconds at a time. A
/// median over a run's episodes or steps then flips between the two
/// speeds from run to run, so the figures are means where the definition
/// allows, which move smoothly with the share of the run spent at each
/// speed: throughput sums the timed phases, `step_ms_p50` averages each
/// episode's median step, and set-up drops its slowest and fastest tenth.
/// Every time is then divided by the run's host slowdown `slow` (see
/// [`calibrate`]): one factor per run, because a single episode's
/// calibration is noisier than the speed changes it would track.
fn end_to_end(tallies: &[Tally], steps_ms: &[f64], peak_rss_mb: f64, slow: f64) -> Vec<Metric> {
    let setup: Vec<f64> = tallies.iter().filter_map(|t| t.setup_s).collect();
    let p50 = tallies.iter().map(|t| t.step_p50_ms).sum::<f64>() / tallies.len().max(1) as f64;
    let (invocations, timed_ns) = tallies
        .iter()
        .filter_map(|t| Some((t.completed?.0, t.timed_ns)))
        .fold((0, 0.0), |(i, n), (ti, tn)| (i + ti, n + tn));
    let values = [
        invocations as f64 / (timed_ns / 1e9 / slow),
        p50 / slow,
        stats::quantile(steps_ms, 0.9) / slow,
        stats::trimmed_mean(&setup, 0.1) / slow,
        peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

/// Every end-to-end metric with its unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_invocations_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("cloud.catalog.build_ms", "ms"),
    ("faas.engine.events", "count"),
    ("faas.engine.ns_per_event", "ns"),
    ("faas.engine.events_per_invocation", "count"),
    ("faas.engine.deploy_us", "us"),
    ("faas.engine.advance_ms", "ms"),
    ("faas.engine.advance_events", "count"),
    ("faas.platform.attempts", "count"),
    ("faas.platform.cold_starts", "count"),
    ("faas.platform.no_capacity", "count"),
    ("faas.platform.warm_starts", "count"),
    ("faas.platform.gated_retries", "count"),
    ("faas.platform.keepalive_evictions", "count"),
    ("faas.platform.warm_hit_ratio", "fraction"),
    ("faas.platform.pooled_starts", "count"),
    ("faas.platform.restored_starts", "count"),
    ("faas.platform.branched_starts", "count"),
    ("faas.platform.throttled", "count"),
    ("faas.platform.result_cache_hits", "count"),
    ("faas.platform.result_cache_misses", "count"),
    ("faas.platform.hosts_recycled", "count"),
    ("faas.sharded.run_ms", "ms"),
    ("faas.sharded.windows", "count"),
    ("faas.sharded.forwards", "count"),
    ("faas.sharded.ns_per_window", "ns"),
    ("faas.sharded.shards2_run_ms", "ms"),
    ("sim.events.wheel_ns_per_op", "ns"),
    ("sim.events.heap_ns_per_op", "ns"),
    ("core.sampling.poll_ms", "ms"),
    ("core.sampling.new_fis_per_request", "fraction"),
    ("core.sampling.failure_share", "fraction"),
    ("core.sampling.campaign_new_us", "us"),
    ("core.store.record_us", "us"),
    ("core.router.burst_ms", "ms"),
    ("core.router.choose_az_us", "us"),
    ("core.router.retried_fraction", "fraction"),
    ("core.router.attempts_per_request", "count"),
    ("core.resilience.burst_ms", "ms"),
    ("core.resilience.attempts_per_request", "count"),
    ("core.resilience.hedges", "count"),
    ("core.resilience.breaker_trips", "count"),
    ("core.resilience.goodput", "fraction"),
    ("core.streaming.observe_ns", "ns"),
    ("core.streaming.take_observations_us", "us"),
    ("core.streaming.observations", "count"),
    ("core.streaming.fires", "count"),
    ("core.profiler.profile_ms", "ms"),
    ("alloc.count_per_invocation", "count"),
    ("alloc.bytes_per_invocation", "B"),
    ("trace.overhead_ratio", "ratio"),
];

/// The per-layer metrics: inclusive layer times are means per call (per
/// unit where a call covers several), counts are means over the worlds'
/// reference episodes, and `measured` holds the run-level figures.
fn per_layer(refs: &[Episode], layers: &LayerTable, measured: &[(&str, f64)]) -> Vec<Metric> {
    let n = refs.len() as f64;
    let mean = |name: &str| refs.iter().map(|e| counter(e, name)).sum::<f64>() / n;
    let events = refs.iter().map(|e| e.events as f64).sum::<f64>() / n;
    let invocations = refs.iter().map(|e| e.invocations as f64).sum::<f64>() / n;
    let ms = |l: Layer| layers.get(l).ns_per_unit() / 1e6;
    let us = |l: Layer| layers.get(l).ns_per_unit() / 1e3;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "cloud.catalog.build_ms" => ms(Layer::CatalogBuild),
                "faas.engine.events" => events,
                "faas.engine.events_per_invocation" => events / invocations.max(1.0),
                "faas.engine.deploy_us" => us(Layer::Deploy),
                "faas.engine.advance_ms" => ms(Layer::Advance),
                "faas.engine.advance_events" => layers.get(Layer::Advance).events_per_call(),
                "faas.sharded.run_ms" => ms(Layer::FleetRun),
                "faas.sharded.shards2_run_ms" => ms(Layer::FleetRunShards2),
                "core.sampling.poll_ms" => ms(Layer::Poll),
                "core.sampling.campaign_new_us" => us(Layer::CampaignNew),
                "core.store.record_us" => us(Layer::StoreRecord),
                "core.router.burst_ms" => ms(Layer::RouterBurst),
                "core.router.choose_az_us" => us(Layer::ChooseAz),
                "core.resilience.burst_ms" => ms(Layer::ResilientBurst),
                "core.streaming.observe_ns" => layers.get(Layer::StreamObserve).ns_per_unit(),
                "core.streaming.take_observations_us" => us(Layer::TakeObservations),
                "core.profiler.profile_ms" => ms(Layer::Profile),
                _ => measured
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or_else(|| mean(name), |m| m.1),
            };
            (name, value, unit)
        })
        .collect()
}

/// `VmHWM` of this process, in MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number: finite values print in full (Rust's shortest
/// round-trip form, never an exponent); anything else prints as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    s.push('}');
    s
}

fn list_json(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|&v| num(v)).collect();
    format!("[{}]", parts.join(", "))
}

/// Run the benchmark from command-line arguments; returns the exit code.
/// `counting` says whether the counting allocator is installed (only
/// then is a traced run allowed).
pub fn main_with(args: &[String], counting: bool) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    if opts.trace != counting {
        eprintln!(
            "perfbench: --trace {} needs the {} binary",
            u8::from(opts.trace),
            if opts.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return 2;
    }
    let report = run(
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        Length::Bench,
    );
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let digest = report
        .digest
        .map_or("none".to_string(), |d| format!("{d:016x}"));
    let error_rate = ratio(report.failed, report.attempted);
    for (name, value, unit) in &report.metrics {
        eprintln!("{name:<40} {:>24} {unit}", num(*value));
    }
    eprintln!("{:<40} {:>24} fraction", "error_rate", num(error_rate));
    eprintln!(
        "{} seed={} sim_digest={digest} episodes={} steps={}",
        opts.workload.name, opts.seed, report.episodes, report.steps
    );
    println!(
        "{{\"record\": {{\"rev\": \"{}\", \"host_cores\": {host_cores}, \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"sim_digest\": \"{digest}\", \
         \"error_rate\": {}, \"episodes\": {}, \"steps\": {}, \"setup_s\": {}, \"timed_s\": {}, \
         \"host_slowdown\": {}, \"metrics\": {}}}}}",
        opts.rev.replace(['"', '\\'], ""),
        opts.workload.name,
        opts.seed,
        num(opts.seconds),
        u8::from(opts.trace),
        num(error_rate),
        report.episodes,
        report.steps,
        list_json(&report.setup_s),
        list_json(&report.timed_s),
        list_json(&report.slowdown),
        metrics_json(&report.metrics),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    );
    0
}
