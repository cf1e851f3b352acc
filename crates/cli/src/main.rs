//! `skyward` — command-line driver for the serverless sky-computing
//! toolkit. `skyward help` lists the commands and the flags each one
//! reads; any other flag exits 2.
//!
//! Everything runs against the seeded simulator; the same seed always
//! reproduces the same world and the same numbers.

mod args;

use args::{Args, ArgsError};
use sky_bench::registry;
use sky_bench::sweep::{self, Jobs};
use sky_bench::Scale;
use sky_core::cloud::{Arch, AzId, Catalog, CpuType, Provider};
use sky_core::faas::{FaasEngine, FleetConfig};
use sky_core::sim::series::Table;
use sky_core::sim::SimDuration;
use sky_core::workloads::{PerfModel, WorkloadKind};
use sky_core::{
    savings_fraction, CampaignConfig, CharacterizationStore, Characterizer, PollConfig, RetryMode,
    RouterConfig, RoutingPolicy, SamplingCampaign, SmartRouter, StreamingCharacterizer,
    StreamingConfig, WorkloadProfiler,
};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(raw) {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `skyward help` for usage");
            2
        }
    };
    std::process::exit(code);
}

fn run(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse_with_switches(raw, &["all", "json", "fix-pragmas", "write", "stream"])?;
    match args.positional(0) {
        None | Some("help") => {
            args.expect_flags(&[])?;
            print_help();
            Ok(())
        }
        Some("world") => {
            expect_arity(&args, 1)?;
            args.expect_flags(&["seed"])?;
            cmd_world(seed(&args)?)
        }
        Some("workloads") => {
            expect_arity(&args, 1)?;
            args.expect_flags(&[])?;
            cmd_workloads()
        }
        Some("exp") => cmd_exp(&args),
        Some("characterize") => {
            expect_arity(&args, 2)?;
            args.expect_flags(&["polls", "jobs", "seed", "json", "stream"])?;
            cmd_characterize(&args, seed(&args)?)
        }
        Some("saturate") => {
            expect_arity(&args, 2)?;
            args.expect_flags(&["seed"])?;
            cmd_saturate(&args, seed(&args)?)
        }
        Some("profile") => {
            expect_arity(&args, 3)?;
            args.expect_flags(&["runs", "seed"])?;
            cmd_profile(&args, seed(&args)?)
        }
        Some("route") => {
            expect_arity(&args, 2)?;
            args.expect_flags(&["baseline", "candidates", "policy", "burst", "seed"])?;
            cmd_route(&args, seed(&args)?)
        }
        Some("report") => {
            expect_arity(&args, 1)?;
            args.expect_flags(&["jobs", "scale", "seed", "format"])?;
            cmd_report(&args, seed(&args)?)
        }
        Some("lint") => {
            expect_arity(&args, 1)?;
            args.expect_flags(&["root", "format", "fix-pragmas", "write"])?;
            cmd_lint(&args)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

/// Caps on the count flags. Each count sizes work up front, so an
/// unbounded one aborts on allocation or runs for hours.
const MAX_POLLS: u64 = 1_000;
const MAX_RUNS: u64 = 100_000;
const MAX_BURST: u64 = 100_000;

/// Reject stray positional arguments (typos like `characterize us west`).
fn expect_arity(args: &Args, n: usize) -> Result<(), String> {
    if args.n_positionals() > n {
        return Err(format!(
            "unexpected extra argument {:?}",
            args.positional(n).unwrap_or("")
        ));
    }
    Ok(())
}

/// `--seed N`, default 42, for the commands that build a seeded world.
fn seed(args: &Args) -> Result<u64, ArgsError> {
    args.flag_u64("seed", 42)
}

fn print_help() {
    println!(
        "skyward — serverless sky computing toolkit (simulated cloud)\n\
         \n\
         commands:\n\
         \x20 world        [--seed N]                 list regions and zones\n\
         \x20 workloads                               the Table-1 workload suite\n\
         \x20 exp          list                       the registered experiments\n\
         \x20 exp          describe <name>            one experiment's parameters\n\
         \x20 exp          run <name>... | run --all  run experiments through the\n\
         \x20              [--scale quick|full]       registry (writes DIR/<name>.txt\n\
         \x20              [--jobs N] [--seed N]      per experiment, else stdout)\n\
         \x20              [--out DIR]\n\
         \x20 characterize <az>[,<az>...] [--polls N] estimate zones' CPU mixes\n\
         \x20              [--jobs N] [--seed N]      (zones characterized in parallel)\n\
         \x20              [--json] [--stream]        --stream: follow the campaign with\n\
         \x20                                         observed production traffic through\n\
         \x20                                         the streaming estimator (EWMA + CUSUM)\n\
         \x20 saturate     <az> [--seed N]            poll a zone to its failure point\n\
         \x20 profile      <workload> <az> [--runs N] per-CPU runtimes for a workload\n\
         \x20              [--seed N]\n\
         \x20 route        <workload> --baseline <az> [--candidates a,b,c]\n\
         \x20              [--policy baseline|regional|retry-slow|focus|hybrid\n\
         \x20               |ucb-az|thompson-az]\n\
         \x20              [--burst N] [--seed N]     compare a policy against the baseline\n\
         \x20 report       [--jobs N] [--seed N]      deterministic metrics rollup of the\n\
         \x20              [--scale quick|full]       standard experiments (per-AZ and\n\
         \x20              [--format table|prom|json] per-policy breakdowns)\n\
         \x20 lint         [--root PATH] [--format human|json]\n\
         \x20                                         determinism lint, one parse per\n\
         \x20                                         file (rules D001-D011; exits 1\n\
         \x20                                         on findings)\n\
         \x20 lint --fix-pragmas [--write]            delete unused sky-lint pragmas\n\
         \x20                                         (P002); prints a diff, applies\n\
         \x20                                         only with --write\n\
         \n\
         defaults:     --seed 42, --scale full, --jobs the host's available\n\
         \x20             parallelism; --polls 1..={MAX_POLLS} (default 6), --runs\n\
         \x20             1..={MAX_RUNS} (default 600), --burst 1..={MAX_BURST} (default 400)\n\
         exit 2:       a flag the command does not list, or a value out of range"
    );
}

fn parse_az(name: &str) -> Result<AzId, String> {
    name.parse()
        .map_err(|_| format!("invalid availability zone {name:?}"))
}

fn parse_workload(name: &str) -> Result<WorkloadKind, String> {
    WorkloadKind::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        format!(
            "unknown workload {name:?}; choose one of: {}",
            names.join(", ")
        )
    })
}

fn engine_for(seed: u64) -> FaasEngine {
    FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed))
}

fn cmd_world(seed: u64) -> Result<(), String> {
    let catalog = Catalog::paper_world(seed);
    let mut table = Table::new(
        format!("skyward world (seed {seed}): 41 regions, 3 providers"),
        &["provider", "region", "zones"],
    );
    for region in catalog.regions() {
        let zones: Vec<String> = catalog
            .azs_in_region(&region.id)
            .map(|az| az.id.to_string())
            .collect();
        table.row(&[
            region.provider.platform_name().to_string(),
            region.id.to_string(),
            zones.join(" "),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_workloads() -> Result<(), String> {
    let mut table = Table::new(
        "Table-1 workload suite",
        &["name", "vCPUs", "base runtime", "description"],
    );
    for kind in WorkloadKind::ALL {
        table.row(&[
            kind.name().to_string(),
            format!("{:.1}", kind.vcpus()),
            format!("{}", PerfModel::base_runtime(kind)),
            kind.description().to_string(),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_characterize(args: &Args, seed: u64) -> Result<(), String> {
    let raw = args.positional(1).ok_or("characterize needs an <az>")?;
    let azs: Vec<AzId> = raw
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| parse_az(s.trim()))
        .collect::<Result<_, _>>()?;
    if azs.is_empty() {
        return Err("characterize needs at least one <az>".into());
    }
    let polls = args.flag_count("polls", 6, MAX_POLLS)? as usize;
    let json = args.flag("json").is_some();
    let stream = args.flag("stream").is_some();
    let jobs = resolve_jobs(args)?;

    // Each zone is an independent sweep cell with its own seeded engine,
    // so multi-zone characterizations fan out over `--jobs` threads and
    // print in the order the zones were named.
    let reports = sweep::run(azs, jobs, |_, az| {
        characterize_zone(az, polls, seed, json, stream)
    });
    for report in reports {
        println!("{}", report?);
    }
    Ok(())
}

/// Characterize one zone in a fresh engine and render its report (one
/// JSON document per zone under `--json`). With `stream`, the one-shot
/// campaign seeds a [`StreamingCharacterizer`] that then watches a round
/// of production traffic through the engine's observation hook.
fn characterize_zone(
    az: &AzId,
    polls: usize,
    seed: u64,
    json: bool,
    stream: bool,
) -> Result<String, String> {
    let mut engine = engine_for(seed);
    let spec = engine
        .catalog()
        .az(az)
        .ok_or_else(|| format!("{az} is not in the catalog (try `skyward world`)"))?;
    let account = engine.create_account(spec.provider);
    let mut campaign = SamplingCampaign::new(
        &mut engine,
        account,
        az,
        CampaignConfig {
            deployments: polls.max(2),
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    campaign.run_polls(&mut engine, polls);
    let mix = campaign.characterization().to_mix();
    let streaming = if stream {
        Some(stream_production_round(
            &mut engine,
            account,
            az,
            seed,
            &mix,
        )?)
    } else {
        None
    };
    if json {
        let mut value = serde_json::json!({
            "az": az.to_string(),
            "polls": polls,
            "unique_fis": campaign.characterization().unique_fis(),
            "cost_usd": campaign.total_cost_usd(),
            "mix": mix.iter().map(|(cpu, share)| {
                serde_json::json!({"cpu": cpu.model_name(), "share": share})
            }).collect::<Vec<_>>(),
        });
        if let Some(s) = &streaming {
            let entry = serde_json::json!({
                "observations": s.observations,
                "cusum_x10k": s.cusum_x10k,
                "detector_fired": s.fired,
                "mix": s.mix.iter().map(|(cpu, share)| {
                    serde_json::json!({"cpu": cpu.model_name(), "share": share})
                }).collect::<Vec<_>>(),
            });
            if let serde_json::Value::Map(entries) = &mut value {
                entries.push(("streaming".to_string(), entry));
            }
        }
        return Ok(serde_json::to_string_pretty(&value).expect("serializable"));
    }
    let mut table = Table::new(
        format!("{az}: CPU characterization after {polls} poll(s)"),
        &["cpu", "share %", "model"],
    );
    for (cpu, share) in mix.iter() {
        table.row(&[
            cpu.short_label().to_string(),
            format!("{:.1}", share * 100.0),
            cpu.model_name().to_string(),
        ]);
    }
    let mut report = format!(
        "{}\n{} unique FIs from {} reports; spend ${:.4}",
        table.render(),
        campaign.characterization().unique_fis(),
        campaign.characterization().reports(),
        campaign.total_cost_usd()
    );
    if let Some(s) = &streaming {
        let mut out = Table::new(
            format!(
                "{az}: streaming estimate after {} observed completion(s)",
                s.observations
            ),
            &["cpu", "share %", "model"],
        );
        for (cpu, share) in s.mix.iter() {
            out.row(&[
                cpu.short_label().to_string(),
                format!("{:.1}", share * 100.0),
                cpu.model_name().to_string(),
            ]);
        }
        report.push_str(&format!(
            "\n{}\ndetector: cusum {} x10k, {}",
            out.render(),
            s.cusum_x10k,
            if s.fired {
                "FIRED (re-probe recommended)"
            } else {
                "quiet"
            }
        ));
    }
    Ok(report)
}

/// What one `--stream` round observed.
struct StreamingReport {
    observations: u64,
    cusum_x10k: i64,
    fired: bool,
    mix: sky_core::cloud::CpuMix,
}

/// Seed a streaming characterizer with the campaign's snapshot, then run
/// a short round of production traffic through the observation hook and
/// report the decayed estimate plus the detector state.
fn stream_production_round(
    engine: &mut FaasEngine,
    account: sky_core::faas::AccountId,
    az: &AzId,
    seed: u64,
    probed: &sky_core::cloud::CpuMix,
) -> Result<StreamingReport, String> {
    let dep = engine
        .deploy(account, az, 2048, Arch::X86_64)
        .map_err(|e| e.to_string())?;
    let mut chr = StreamingCharacterizer::new(StreamingConfig::default());
    chr.record_probe(az, engine.now(), probed);
    engine.advance_by(SimDuration::from_mins(10));
    engine.set_observation_hook(true);
    let mut profiler = WorkloadProfiler::new();
    profiler.profile(engine, dep, WorkloadKind::Zipper, 160, 200, seed);
    engine.set_observation_hook(false);
    for report in engine.take_observations(az) {
        chr.observe(az, &report);
    }
    let mix = chr
        .estimate(az)
        .ok_or("no completions observed in the production round")?;
    Ok(StreamingReport {
        observations: chr.observations(az),
        cusum_x10k: chr.cusum_x10k(az),
        fired: chr.detector_fired(az),
        mix,
    })
}

fn cmd_saturate(args: &Args, seed: u64) -> Result<(), String> {
    let az = parse_az(args.positional(1).ok_or("saturate needs an <az>")?)?;
    let mut engine = engine_for(seed);
    let spec = engine
        .catalog()
        .az(&az)
        .ok_or_else(|| format!("{az} is not in the catalog"))?;
    let account = engine.create_account(spec.provider);
    let mut campaign = SamplingCampaign::new(&mut engine, account, &az, CampaignConfig::default())
        .map_err(|e| e.to_string())?;
    let result = campaign.run_until_saturation(&mut engine);
    let mut table = Table::new(
        format!("{az}: sequential polls to the failure point"),
        &["poll", "new FIs", "cumulative", "failure %"],
    );
    for p in &result.polls {
        table.row(&[
            (p.index + 1).to_string(),
            p.new_fis.to_string(),
            p.cumulative_fis.to_string(),
            format!("{:.1}", p.failure_rate() * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "saturated={} after {} polls; {} unique FIs; ${:.3} spent; polls to 95% accuracy: {}",
        result.saturated,
        result.polls.len(),
        result.total_fis(),
        result.total_cost_usd,
        result
            .polls_to_accuracy(5.0)
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".into()),
    );
    Ok(())
}

fn cmd_profile(args: &Args, seed: u64) -> Result<(), String> {
    let kind = parse_workload(args.positional(1).ok_or("profile needs a <workload>")?)?;
    let az = parse_az(args.positional(2).ok_or("profile needs an <az>")?)?;
    let runs = args.flag_count("runs", 600, MAX_RUNS)? as usize;
    let mut engine = engine_for(seed);
    let account = engine.create_account(Provider::Aws);
    let dep = engine
        .deploy(account, &az, 2048, Arch::X86_64)
        .map_err(|e| e.to_string())?;
    let mut profiler = WorkloadProfiler::new();
    let run = profiler.profile(&mut engine, dep, kind, runs, 200, seed);
    let table = profiler.table();
    let mut out = Table::new(
        format!(
            "{kind} in {az}: observed runtime by CPU ({} completed)",
            run.completed
        ),
        &["cpu", "mean ms", "vs 2.5GHz", "samples"],
    );
    for (cpu, ms) in table.ranking(kind) {
        let norm = table
            .normalized(kind, CpuType::IntelXeon2_5)
            .iter()
            .find(|&&(c, _)| c == cpu)
            .map(|&(_, f)| format!("{f:.2}x"))
            .unwrap_or_else(|| "-".into());
        out.row(&[
            cpu.short_label().to_string(),
            format!("{ms:.0}"),
            norm,
            table.samples(kind, cpu).to_string(),
        ]);
    }
    println!("{}", out.render());
    println!("profiling spend ${:.3}", run.cost_usd);
    Ok(())
}

/// `--scale`, default `full`, through the one strict parser: near-misses
/// like `Quick` or `ful` are errors, not silent fallbacks.
fn resolve_scale(args: &Args) -> Result<Scale, String> {
    Scale::parse(args.flag("scale").unwrap_or("full"))
}

/// `--jobs N`, default one worker per host hardware thread.
fn resolve_jobs(args: &Args) -> Result<Jobs, ArgsError> {
    let host = Jobs::host().get() as u64;
    Ok(Jobs::new(args.flag_u64("jobs", host)? as usize))
}

/// `skyward exp` — the experiment registry multiplexer. Replaces the 24
/// former one-off binaries: every figure/table/ablation is a registered
/// [`registry::Experiment`] run through one entry point.
fn cmd_exp(args: &Args) -> Result<(), String> {
    match args.positional(1) {
        None | Some("list") => {
            expect_arity(args, 2)?;
            args.expect_flags(&[])?;
            cmd_exp_list()
        }
        Some("describe") => {
            expect_arity(args, 3)?;
            args.expect_flags(&[])?;
            cmd_exp_describe(args)
        }
        Some("run") => {
            args.expect_flags(&["all", "scale", "jobs", "seed", "out"])?;
            cmd_exp_run(args, seed(args)?)
        }
        Some(other) => Err(format!(
            "unknown exp subcommand {other:?} (list|describe|run)"
        )),
    }
}

fn cmd_exp_list() -> Result<(), String> {
    let mut table = Table::new(
        format!("registered experiments ({})", registry::all().len()),
        &["name", "description"],
    );
    for exp in registry::all() {
        table.row(&[exp.name().to_string(), exp.description().to_string()]);
    }
    println!("{}", table.render());
    println!("run one with `skyward exp run <name>`, everything with `skyward exp run --all`.");
    Ok(())
}

fn cmd_exp_describe(args: &Args) -> Result<(), String> {
    let name = args.positional(2).ok_or("describe needs an <experiment>")?;
    let exp = registry::find(name).ok_or_else(|| unknown_experiment(name))?;
    println!("{}: {}", exp.name(), exp.description());
    for scale in [Scale::Full, Scale::Quick] {
        let params = exp.params(scale);
        if params.is_empty() {
            continue;
        }
        let mut table = Table::new(
            format!("parameters at {} scale", scale.name()),
            &["parameter", "value"],
        );
        for (key, value) in params {
            table.row(&[key.to_string(), value]);
        }
        println!("{}", table.render());
    }
    println!("artifact: results/{}.txt", exp.name());
    Ok(())
}

fn unknown_experiment(name: &str) -> String {
    let names: Vec<&str> = registry::all().iter().map(|e| e.name()).collect();
    format!(
        "unknown experiment {name:?}; choose one of: {}",
        names.join(", ")
    )
}

fn cmd_exp_run(args: &Args, seed: u64) -> Result<(), String> {
    let scale = resolve_scale(args)?;
    let jobs = resolve_jobs(args)?;
    let exps: Vec<&'static dyn registry::Experiment> = if args.flag("all").is_some() {
        registry::all().to_vec()
    } else {
        let names: Vec<&str> = (2..args.n_positionals())
            .filter_map(|i| args.positional(i))
            .collect();
        if names.is_empty() {
            return Err("exp run needs experiment names or --all".into());
        }
        names
            .iter()
            .map(|name| registry::find(name).ok_or_else(|| unknown_experiment(name)))
            .collect::<Result<_, _>>()?
    };
    let out_dir = args.flag("out").map(std::path::PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }

    eprintln!(
        "running {} experiment(s) at {} scale, seed {seed}, {} worker(s)...",
        exps.len(),
        scale.name(),
        jobs.get()
    );
    #[allow(clippy::disallowed_methods)]
    // sky-lint: allow(D002, the run timer goes to stderr only; no experiment text reads it)
    let started = std::time::Instant::now();
    let outcomes = registry::run_many(&exps, scale, jobs, seed);
    let elapsed = started.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    for (name, outcome) in outcomes {
        match outcome {
            Ok(output) => match &out_dir {
                Some(dir) => {
                    let path = dir.join(format!("{name}.txt"));
                    std::fs::write(&path, output.text.as_bytes())
                        .map_err(|e| format!("writing {}: {e}", path.display()))?;
                    eprintln!("  ok {name} -> {}", path.display());
                }
                None => print!("{}", output.text),
            },
            Err(message) => {
                eprintln!("  FAILED {name}: {message}");
                failures.push(name);
            }
        }
    }
    eprintln!("finished in {elapsed:.1}s");
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} experiment(s) failed: {}",
            failures.len(),
            failures.join(", ")
        ))
    }
}

fn cmd_report(args: &Args, seed: u64) -> Result<(), String> {
    let scale = resolve_scale(args)?;
    let jobs = resolve_jobs(args)?;
    let format = args.flag("format").unwrap_or("table");
    let snapshot = sky_bench::report::report_snapshot(scale, jobs, seed);
    match format {
        "table" => print!("{}", sky_bench::report::render_report(&snapshot)),
        "prom" => print!("{}", snapshot.to_prometheus_text()),
        "json" => print!("{}", snapshot.to_json()),
        other => return Err(format!("unknown format {other:?} (table|prom|json)")),
    }
    Ok(())
}

/// `skyward lint` — the determinism static-analysis pass (`sky_lint`),
/// run serially over the workspace. Exits 1 when findings exist so
/// scripts and CI can gate on it. `--fix-pragmas` switches to the
/// stale-pragma cleanup mode: print the planned edits as a diff, apply
/// them only under `--write`.
fn cmd_lint(args: &Args) -> Result<(), String> {
    let format = args.flag("format").unwrap_or("human");
    if format != "human" && format != "json" {
        return Err(format!("unknown format {format:?} (human|json)"));
    }
    let root = match args.flag("root") {
        Some(path) => std::path::PathBuf::from(path),
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            sky_lint::find_workspace_root(&cwd)
                .ok_or("no workspace root (Cargo.toml with [workspace]) above the current directory; pass --root PATH")?
        }
    };
    if args.flag("fix-pragmas").is_some() {
        let fixes = sky_lint::plan_pragma_fixes(&root).map_err(|e| e.to_string())?;
        print!("{}", sky_lint::render_pragma_fixes(&fixes));
        if fixes.is_empty() {
            return Ok(());
        }
        if args.flag("write").is_some() {
            let n = sky_lint::apply_pragma_fixes(&root, &fixes).map_err(|e| e.to_string())?;
            println!("applied fixes in {n} file(s)");
        } else {
            println!("dry run: pass --write to apply");
        }
        return Ok(());
    }
    let findings = sky_lint::lint_workspace(&root).map_err(|e| e.to_string())?;
    match format {
        "json" => print!("{}", sky_lint::render_json(&findings)),
        _ => print!("{}", sky_lint::render_human(&findings)),
    }
    if findings.is_empty() {
        Ok(())
    } else {
        std::process::exit(1);
    }
}

fn cmd_route(args: &Args, seed: u64) -> Result<(), String> {
    let kind = parse_workload(args.positional(1).ok_or("route needs a <workload>")?)?;
    let baseline_az = parse_az(args.flag("baseline").ok_or("route needs --baseline <az>")?)?;
    let mut candidates: Vec<AzId> = Vec::new();
    for name in args.flag_list("candidates") {
        candidates.push(parse_az(&name)?);
    }
    if candidates.is_empty() {
        candidates.push(baseline_az.clone());
    }
    let burst = args.flag_count("burst", 400, MAX_BURST)? as usize;
    let policy_name = args.flag("policy").unwrap_or("hybrid");
    let policy = match policy_name {
        "baseline" => RoutingPolicy::Baseline {
            az: baseline_az.clone(),
        },
        "regional" => RoutingPolicy::Regional {
            candidates: candidates.clone(),
        },
        "retry-slow" => RoutingPolicy::Retry {
            az: baseline_az.clone(),
            mode: RetryMode::RetrySlow,
        },
        "focus" => RoutingPolicy::Retry {
            az: baseline_az.clone(),
            mode: RetryMode::FocusFastest,
        },
        "hybrid" => RoutingPolicy::Hybrid {
            candidates: candidates.clone(),
            mode: RetryMode::RetrySlow,
        },
        "ucb-az" => RoutingPolicy::UcbAz {
            candidates: candidates.clone(),
        },
        "thompson-az" => RoutingPolicy::ThompsonAz {
            candidates: candidates.clone(),
        },
        other => return Err(format!("unknown policy {other:?}")),
    };

    let mut engine = engine_for(seed);
    let account = engine.create_account(Provider::Aws);
    let mut deployments = std::collections::BTreeMap::new();
    let mut zones = candidates.clone();
    if !zones.contains(&baseline_az) {
        zones.push(baseline_az.clone());
    }
    for az in &zones {
        let dep = engine
            .deploy(account, az, 2048, Arch::X86_64)
            .map_err(|e| e.to_string())?;
        deployments.insert(az.clone(), dep);
    }

    eprintln!("profiling {kind} (600 runs)...");
    let mut profiler = WorkloadProfiler::new();
    profiler.profile(&mut engine, deployments[&baseline_az], kind, 600, 200, seed);
    let table = profiler.into_table();
    engine.advance_by(SimDuration::from_mins(20));

    eprintln!("characterizing {} zone(s)...", zones.len());
    let mut store = CharacterizationStore::new();
    for az in &zones {
        store
            .probe(&mut engine, account, az, 4, PollConfig::default())
            .map_err(|e| e.to_string())?;
    }

    let router = SmartRouter::new(store, table, RouterConfig::default());
    let resolve = |az: &AzId| deployments.get(az).copied();
    let base = router.run_burst(
        &mut engine,
        kind,
        burst,
        &RoutingPolicy::Baseline {
            az: baseline_az.clone(),
        },
        resolve,
    );
    engine.advance_by(SimDuration::from_mins(15));
    let optimized = router.run_burst(&mut engine, kind, burst, &policy, resolve);
    let per = |r: &sky_core::BurstReport| r.total_cost_usd() / r.completed.max(1) as f64;

    let mut out = Table::new(
        format!("{kind}: {policy_name} vs baseline ({baseline_az})"),
        &[
            "strategy",
            "az",
            "$ / 1k requests",
            "mean ms",
            "retried",
            "errors",
        ],
    );
    for (label, report) in [("baseline", &base), (policy_name, &optimized)] {
        out.row(&[
            label.to_string(),
            report.az.to_string(),
            format!("{:.4}", 1_000.0 * per(report)),
            format!("{:.0}", report.mean_billed_ms),
            report.retried.to_string(),
            report.errors.to_string(),
        ]);
    }
    println!("{}", out.render());
    println!(
        "savings: {:+.1}% (characterization spend ${:.3})",
        savings_fraction(per(&base), per(&optimized)) * 100.0,
        router.store.total_cost_usd()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::run;

    #[test]
    fn flags_a_command_does_not_read_are_rejected() {
        for line in ["world --sed 7", "exp list --scal quick", "workloads --json"] {
            let argv = line.split_whitespace().map(String::from).collect();
            let err = run(argv).expect_err(line);
            assert!(err.starts_with("unknown flag --"), "{line}: {err}");
        }
        let err = run(vec!["world".into(), "--sed".into(), "7".into()]).unwrap_err();
        assert_eq!(err, "unknown flag --sed; this command accepts --seed");
    }
}
