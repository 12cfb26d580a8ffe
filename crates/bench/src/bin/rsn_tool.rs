//! `rsn-tool` — command-line front end for the robust-RSN pipeline.
//!
//! ```text
//! rsn-tool stats     <network.rsn>                  network statistics
//! rsn-tool tree      <network.rsn>                  decomposition tree (ASCII)
//! rsn-tool analyze   <network.rsn> [--seed N] [--exact-double]
//!                                  criticality ranking; --exact-double adds
//!                                  exact damage statistics over every
//!                                  unordered pair of single faults
//! rsn-tool harden    <network.rsn> [--seed N] [--generations N]
//!                                  [--solver spea2|nsga2|greedy|exact]
//!                                  [--damage-cap PCT] [--cost-cap PCT]
//!                                  [--threads N]
//!                                  pareto front + constrained solutions
//! rsn-tool bench     <table-i-design-name> [--generations N]
//!                                  run a registered Table I design
//! rsn-tool validate  <network.rsn|design> [--threads N] [--json]
//!                                  replay every single-fault mode in the
//!                                  bit-level simulator and cross-validate
//!                                  the criticality analysis (nonzero exit
//!                                  on any disagreement)
//! rsn-tool export-icl <network.rsn>                flat ICL module on stdout
//! rsn-tool diagnose  <network.rsn> --fault <node>[:port]
//!                                  inject a fault, print the accessibility
//!                                  signature and the dictionary candidates
//! rsn-tool serve     [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!                                  [--store PATH]
//!                                  run the rsnd analysis daemon in-process
//! rsn-tool submit    <network.rsn> --addr HOST:PORT
//!                                  [--endpoint analyze|harden|validate|whatif]
//!                                  [--network-hash SHA256]
//!                                  [--seed N] [--solver ...] [--generations N]
//!                                  [--op harden|exclude|set_weights] [--target NAME]
//!                                  [--obs-weight N] [--set-weight N]
//!                                  [--retries N] [--timeout-ms N] [--json]
//!                                  submit to a running daemon, print the JSON;
//!                                  503s are retried with Retry-After-honoring
//!                                  jittered backoff (submissions are
//!                                  idempotent); --json wraps the response in
//!                                  {"attempts":..,"status":..,"response":..};
//!                                  with --network-hash the file argument is
//!                                  dropped and the job references a network
//!                                  previously registered via `networks put`
//! rsn-tool networks  put <network.rsn> --addr HOST:PORT
//!                                  register a network with the daemon and
//!                                  print its canonical content hash
//! rsn-tool networks  list --addr HOST:PORT
//!                                  list the daemon's registered networks
//! rsn-tool gen       <deep-sib|rings|chiplets> [--segments N] [--seed N]
//!                                  print a giant generated network (at
//!                                  least N segments) on stdout
//! rsn-tool sweep     <network.rsn> [--seed N] [--threads N] [--json]
//!                                  full batched single-fault sweep via the
//!                                  graph kernel (no decomposition tree —
//!                                  works on 100k+-segment networks)
//! rsn-tool loadgen   [network.rsn|design] (--addr HOST:PORT | --spawn)
//!                                  [--network-shape deep-sib|rings|chiplets]
//!                                  [--segments N]
//!                                  [--requests N] [--connections N]
//!                                  [--rate RPS] [--mix SPEC] [--seed N]
//!                                  [--slo-ms N] [--chaos SPEC] [--json]
//!                                  replay a seeded analyze/whatif/validate/
//!                                  harden mix against rsnd over keep-alive
//!                                  connections and report throughput plus
//!                                  p50/p99/p999 latency against the SLO;
//!                                  --network-shape generates the network
//!                                  with the giant `gen` shapes (sized by
//!                                  --segments) instead of reading a file,
//!                                  driving the generators through the
//!                                  serving path end to end; --addr may
//!                                  point at rsnd or an rsnc cluster
//!                                  coordinator; --spawn boots an
//!                                  in-process daemon (composable with
//!                                  --chaos for latency-under-faults runs)
//! rsn-tool --version               print the version
//! ```
//!
//! Networks are read in the textual format of `rsn_model::format`; weights
//! use the paper's randomized §VI specification seeded by `--seed`
//! (default 2022), or instrument-kind defaults with `--kind-weights`.

use std::process::ExitCode;

use moea::{Nsga2Config, Spea2Config};
use robust_rsn::{
    accessibility_under, analyze, double_fault_damage, report, AnalysisOptions, AnalysisPlan,
    CancelToken, CostModel, CriticalitySpec, Diagnosis, ExactSolveError, FaultDictionary,
    HardeningProblem, PaperSpecParams, Parallelism, SessionError, Solver,
};
use rsn_model::{format::parse_network, icl::import_icl, ScanNetwork, Structure};
use rsn_serve::{parse_error, Client, Endpoint, JobRequest, RetryPolicy, Server, ServerConfig};
use rsn_sp::{recognize, render::render_tree, tree_from_structure, DecompTree, Leaf};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    seed: u64,
    generations: usize,
    solver: String,
    damage_cap_pct: u64,
    cost_cap_pct: u64,
    kind_weights: bool,
    fault: Option<String>,
    threads: Option<usize>,
    json: bool,
    addr: Option<String>,
    endpoint: String,
    workers: usize,
    queue: usize,
    cache: usize,
    retries: u32,
    timeout_ms: Option<u64>,
    op: Option<String>,
    target: Option<String>,
    obs_weight: Option<u64>,
    set_weight: Option<u64>,
    network_hash: Option<String>,
    store: Option<String>,
    exact_double: bool,
    segments: usize,
    requests: usize,
    connections: usize,
    rate: Option<f64>,
    mix: Option<String>,
    slo_ms: u64,
    spawn: bool,
    chaos: Option<String>,
    network_shape: Option<String>,
}

impl Options {
    /// `--threads N` if given, else the `RSN_THREADS` environment variable
    /// (0 or unset = one thread per core). Never changes any result — only
    /// how the evaluation loops are sharded.
    fn parallelism(&self) -> Parallelism {
        self.threads.map_or_else(Parallelism::from_env, Parallelism::new)
    }
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    if matches!(command.as_str(), "--version" | "-V") {
        println!("rsn-tool {}", env!("CARGO_PKG_VERSION"));
        return Ok(());
    }
    // `serve` runs a daemon and takes no target file; `submit` may replace
    // its file with `--network-hash`; everything else reads a network (or a
    // Table I design name, or a `networks` subcommand) as its first
    // positional argument.
    let mut positionals: Vec<String> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    for arg in args {
        if arg.starts_with("--") || !rest.is_empty() {
            rest.push(arg);
        } else {
            positionals.push(arg);
        }
    }
    let mut positionals = positionals.into_iter();
    // `loadgen` may generate its network via `--network-shape` instead of
    // reading a file, so its positional is optional too.
    let target = if command == "serve" {
        String::new()
    } else if command == "submit" || command == "loadgen" {
        positionals.next().unwrap_or_default()
    } else {
        positionals.next().ok_or_else(usage)?
    };
    // `networks put <file>` takes the network file as a second positional.
    let extra = positionals.next();
    let mut opts = Options {
        seed: 2022,
        generations: 300,
        solver: "spea2".into(),
        damage_cap_pct: 10,
        cost_cap_pct: 10,
        kind_weights: false,
        fault: None,
        threads: None,
        json: false,
        addr: None,
        endpoint: "analyze".into(),
        workers: 0,
        queue: 64,
        cache: 128,
        retries: 4,
        timeout_ms: None,
        op: None,
        target: None,
        obs_weight: None,
        set_weight: None,
        network_hash: None,
        store: None,
        exact_double: false,
        segments: 100_000,
        requests: 200,
        connections: 4,
        rate: None,
        mix: None,
        slo_ms: 500,
        spawn: false,
        chaos: None,
        network_shape: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--seed" => opts.seed = parse(&value("--seed")?)?,
            "--generations" => opts.generations = parse(&value("--generations")?)?,
            "--solver" => opts.solver = value("--solver")?,
            "--damage-cap" => opts.damage_cap_pct = parse(&value("--damage-cap")?)?,
            "--cost-cap" => opts.cost_cap_pct = parse(&value("--cost-cap")?)?,
            "--kind-weights" => opts.kind_weights = true,
            "--fault" => opts.fault = Some(value("--fault")?),
            "--threads" => opts.threads = Some(parse(&value("--threads")?)?),
            "--json" => opts.json = true,
            "--addr" => opts.addr = Some(value("--addr")?),
            "--endpoint" => opts.endpoint = value("--endpoint")?,
            "--workers" => opts.workers = parse(&value("--workers")?)?,
            "--queue" => opts.queue = parse(&value("--queue")?)?,
            "--cache" => opts.cache = parse(&value("--cache")?)?,
            "--retries" => opts.retries = parse(&value("--retries")?)?,
            "--timeout-ms" => opts.timeout_ms = Some(parse(&value("--timeout-ms")?)?),
            "--op" => opts.op = Some(value("--op")?),
            "--target" => opts.target = Some(value("--target")?),
            "--obs-weight" => opts.obs_weight = Some(parse(&value("--obs-weight")?)?),
            "--set-weight" => opts.set_weight = Some(parse(&value("--set-weight")?)?),
            "--network-hash" => opts.network_hash = Some(value("--network-hash")?),
            "--store" => opts.store = Some(value("--store")?),
            "--exact-double" => opts.exact_double = true,
            "--segments" => opts.segments = parse(&value("--segments")?)?,
            "--requests" => opts.requests = parse(&value("--requests")?)?,
            "--connections" => opts.connections = parse(&value("--connections")?)?,
            "--rate" => opts.rate = Some(parse(&value("--rate")?)?),
            "--mix" => opts.mix = Some(value("--mix")?),
            "--slo-ms" => opts.slo_ms = parse(&value("--slo-ms")?)?,
            "--spawn" => opts.spawn = true,
            "--chaos" => opts.chaos = Some(value("--chaos")?),
            "--network-shape" => opts.network_shape = Some(value("--network-shape")?),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }

    match command.as_str() {
        "stats" => {
            let (net, _, _) = load(&target)?;
            let s = net.stats();
            println!("network:     {}", net.name());
            println!("segments:    {}", s.segments);
            println!("muxes:       {}", s.muxes);
            println!("fan-outs:    {}", s.fanouts);
            println!("instruments: {}", s.instruments);
            println!("scan cells:  {}", s.scan_cells);
            Ok(())
        }
        "tree" => {
            let (net, tree, _) = load(&target)?;
            print!("{}", render_tree(&tree, &net, |_| None));
            Ok(())
        }
        "analyze" => {
            let (net, tree, _) = load(&target)?;
            let spec = weights(&net, &opts);
            let crit = analyze(&net, &tree, &spec, &AnalysisOptions::default());
            println!("total single-fault damage: {}", crit.total_damage());
            print!("{}", report::criticality_table(&net, &crit, 25));
            if opts.exact_double {
                let plan = AnalysisPlan::new(&net, AnalysisOptions::default().sib_policy);
                let summary = double_fault_damage(
                    &plan,
                    &net,
                    &spec,
                    &[],
                    opts.parallelism(),
                    &CancelToken::none(),
                )
                .map_err(|e| e.to_string())?;
                println!("exact double-fault damage over {} pairs:", summary.pairs);
                println!("  mean {:.2}  max {}  min {}", summary.mean, summary.max, summary.min);
            }
            Ok(())
        }
        "harden" => {
            let (net, tree, _) = load(&target)?;
            harden(&net, &tree, &opts)
        }
        "export-icl" => {
            let (net, _, _) = load(&target)?;
            print!("{}", rsn_model::icl::export_icl(&net));
            Ok(())
        }
        "diagnose" => {
            let (net, _, _) = load(&target)?;
            let spec = opts.fault.as_deref().ok_or("diagnose needs --fault <node>[:port]")?;
            let (node_name, port) = match spec.split_once(':') {
                Some((n, p)) => (n, Some(p.parse::<u16>().map_err(|_| format!("bad port {p:?}"))?)),
                None => (spec, None),
            };
            let node = net
                .nodes()
                .find(|(_, n)| n.name.as_deref() == Some(node_name))
                .map(|(id, _)| id)
                .ok_or_else(|| format!("unknown node {node_name:?}"))?;
            let fault = match port {
                Some(p) => rsn_model::Fault::mux_stuck_at(node, p),
                None => rsn_model::Fault::broken_segment(node),
            };
            if !fault.is_applicable(&net) {
                return Err(format!("{fault:?} is not applicable to {node_name}"));
            }
            let observed = accessibility_under(&net, &[fault]);
            println!("accessibility under {fault:?}:");
            for (i, inst) in net.instruments() {
                println!(
                    "  {:<20} observable={:<5} settable={}",
                    inst.label(i),
                    observed.observable[i.index()],
                    observed.settable[i.index()]
                );
            }
            let dict = FaultDictionary::build(&net);
            println!(
                "dictionary: {} distinct signatures, resolution {:.0}%",
                dict.distinct_signatures(),
                100.0 * dict.resolution()
            );
            match dict.diagnose(&observed) {
                Diagnosis::FaultFree => println!("diagnosis: fault-free signature"),
                Diagnosis::Unknown => println!("diagnosis: outside the single-fault model"),
                Diagnosis::Candidates(c) => {
                    println!("diagnosis candidates:");
                    for f in c {
                        println!("  {:?} at {}", f.kind, net.node(f.node).label(f.node));
                    }
                }
            }
            Ok(())
        }
        "bench" => {
            let spec = rsn_benchmarks::by_name(&target)
                .ok_or_else(|| format!("unknown Table I design {target:?}"))?;
            let structure = spec.generate();
            let (net, built) = structure.build(spec.name).map_err(|e| e.to_string())?;
            let tree = tree_from_structure(&net, &built);
            harden(&net, &tree, &opts)
        }
        "validate" => validate(&target, &opts),
        "serve" => serve(&opts),
        "submit" => submit(&target, &opts),
        "networks" => networks(&target, extra.as_deref(), &opts),
        "gen" => gen(&target, &opts),
        "sweep" => sweep(&target, &opts),
        "loadgen" => loadgen(&target, &opts),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

/// Generates one of the fleet-scale shapes with at least `--segments`
/// segments and prints it in the textual `.rsn` format.
fn gen(shape: &str, opts: &Options) -> Result<(), String> {
    let (name, structure) = giant_shape(shape, opts.segments, opts.seed)?;
    print!("{}", rsn_model::format::print_network(&name, &structure));
    Ok(())
}

/// Resolves a `gen` shape name to a generated structure of at least
/// `segments` segments.
fn giant_shape(shape: &str, segments: usize, seed: u64) -> Result<(String, Structure), String> {
    let segments = segments.max(1);
    let (name, structure) = match shape {
        "deep-sib" => {
            // segments = 2*depth + 1 at one register per level.
            let depth = (segments / 2).max(1);
            (format!("deep{depth}"), rsn_benchmarks::giant::deep_sib_tree(depth, 1, seed))
        }
        "rings" => {
            // segments = 10*rings at ring_size 9.
            let rings = segments.div_ceil(10).max(1);
            (format!("rings{rings}"), rsn_benchmarks::giant::ring_of_rings(rings, 9, seed))
        }
        "chiplets" => {
            // segments = 1000*chiplets at 999 segments per chiplet.
            let chiplets = segments.div_ceil(1000).max(1);
            (
                format!("chiplets{chiplets}"),
                rsn_benchmarks::giant::multi_chiplet(chiplets, 999, 399, seed),
            )
        }
        other => return Err(format!("unknown shape {other:?} (expected deep-sib|rings|chiplets)")),
    };
    Ok((name, structure))
}

/// Full batched single-fault sweep through the graph kernel — the scale
/// path: no decomposition tree is built, so 100k+-segment networks (deep
/// SIB towers included) sweep in bounded memory.
fn sweep(target: &str, opts: &Options) -> Result<(), String> {
    let text = std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?;
    let parse_started = std::time::Instant::now();
    let (name, structure) = parse_network(&text).map_err(|e| e.to_string())?;
    let (net, _built) = structure.build(name).map_err(|e| e.to_string())?;
    let build_elapsed = parse_started.elapsed();
    let spec = weights(&net, opts);
    let stats = net.stats();
    let relaxed_before = robust_rsn::kernel_counters().nodes_relaxed;
    let sweep_started = std::time::Instant::now();
    let options = AnalysisOptions::default();
    let plan = AnalysisPlan::new(&net, options.sib_policy);
    let crit = robust_rsn::analyze_graph(
        &plan,
        &net,
        &spec,
        options.mode,
        opts.parallelism(),
        &CancelToken::none(),
    )
    .map_err(|e| e.to_string())?;
    let sweep_elapsed = sweep_started.elapsed();
    let nodes_relaxed = robust_rsn::kernel_counters().nodes_relaxed - relaxed_before;
    if opts.json {
        println!(
            "{{\"network\":{:?},\"segments\":{},\"muxes\":{},\"primitives\":{},\
             \"total_damage\":{},\"parse_build_ms\":{},\"sweep_ms\":{},\"nodes_relaxed\":{}}}",
            net.name(),
            stats.segments,
            stats.muxes,
            crit.primitives().len(),
            crit.total_damage(),
            build_elapsed.as_millis(),
            sweep_elapsed.as_millis(),
            nodes_relaxed
        );
    } else {
        println!("network:            {}", net.name());
        println!("segments:           {}", stats.segments);
        println!("muxes:              {}", stats.muxes);
        println!("fault primitives:   {}", crit.primitives().len());
        println!("total damage:       {}", crit.total_damage());
        println!("parse+build:        {:.2?}", build_elapsed);
        println!("sweep:              {:.2?}", sweep_elapsed);
        println!("nodes relaxed:      {nodes_relaxed}");
    }
    Ok(())
}

/// Replays a seeded job mix against a running daemon (`--addr`) or an
/// in-process one (`--spawn`, composable with `--chaos` for
/// latency-under-faults runs) and prints the throughput/latency report.
fn loadgen(target: &str, opts: &Options) -> Result<(), String> {
    let network = if let Some(shape) = &opts.network_shape {
        // Drive the giant generators through the serving path end to end:
        // the generated text is registered and hammered like any file.
        let (name, structure) = giant_shape(shape, opts.segments, opts.seed)?;
        rsn_model::format::print_network(&name, &structure)
    } else if target.is_empty() {
        return Err("loadgen needs a network file, a Table I design, or --network-shape".into());
    } else if target.ends_with(".rsn") {
        std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?
    } else {
        let spec = rsn_benchmarks::by_name(target)
            .ok_or_else(|| format!("unknown network file or Table I design {target:?}"))?;
        rsn_model::format::print_network(spec.name, &spec.generate())
    };
    let mix = match &opts.mix {
        Some(spec) => rsn_serve::Mix::from_spec(spec)?,
        None => rsn_serve::Mix::default(),
    };
    let mut config = rsn_serve::LoadgenConfig {
        network,
        requests: opts.requests,
        connections: opts.connections,
        rate: opts.rate,
        mix,
        seed: opts.seed,
        slo_ms: opts.slo_ms,
        ..rsn_serve::LoadgenConfig::default()
    };
    if let Some(ms) = opts.timeout_ms {
        config.timeout = std::time::Duration::from_millis(ms);
    }

    // `--spawn` boots rsnd in-process on an ephemeral port; otherwise the
    // run targets `--addr`.
    let spawned = if opts.spawn {
        let chaos = match &opts.chaos {
            Some(spec) => Some(std::sync::Arc::new(rsn_serve::Chaos::from_spec(spec)?)),
            None => None,
        };
        let server_config = ServerConfig {
            workers: Parallelism::new(opts.workers),
            queue_capacity: opts.queue,
            cache_capacity: opts.cache,
            chaos,
            ..ServerConfig::default()
        };
        let server = Server::bind(server_config).map_err(|e| format!("bind failed: {e}"))?;
        config.addr = server.local_addr().to_string();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Some((handle, thread))
    } else {
        if opts.chaos.is_some() {
            return Err("--chaos needs --spawn (a remote daemon's schedule is its own)".into());
        }
        config.addr = opts.addr.clone().ok_or("loadgen needs --addr HOST:PORT or --spawn")?;
        None
    };

    let result = rsn_serve::loadgen::run(&config);
    if let Some((handle, thread)) = spawned {
        handle.shutdown();
        thread.join().map_err(|_| "server thread panicked")?.map_err(|e| e.to_string())?;
    }
    let report = result?;
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
    } else {
        print!("{}", rsn_serve::loadgen::render(&report));
    }
    Ok(())
}

/// Runs the operational fault-simulation campaign on a network file or a
/// registered Table I design and diffs it against the criticality analysis.
/// Exits nonzero on any disagreement.
fn validate(target: &str, opts: &Options) -> Result<(), String> {
    let net = if target.ends_with(".rsn") || target.ends_with(".icl") {
        load(target)?.0
    } else {
        let spec = rsn_benchmarks::by_name(target)
            .ok_or_else(|| format!("unknown network file or Table I design {target:?}"))?;
        let (net, _) = spec.generate().build(spec.name).map_err(|e| e.to_string())?;
        net
    };
    let spec = weights(&net, opts);
    let started = std::time::Instant::now();
    let options = AnalysisOptions::default();
    let report = robust_rsn::validate_criticality(
        &AnalysisPlan::new(&net, options.sib_policy),
        &net,
        &spec,
        options.mode,
        opts.parallelism(),
        &CancelToken::none(),
    )
    .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
    } else {
        println!("network:              {}", report.network);
        println!("fault primitives:     {}", report.primitives);
        println!("fault modes:          {}", report.modes);
        println!("simulated modes:      {}", report.simulated_modes);
        println!("unrealizable modes:   {}", report.skipped_unrealizable_modes);
        println!("simulator replays:    {}", report.replays);
        println!("failed retargets:     {}", report.failed_retargets);
        println!("unverifiable pairs:   {}", report.unverifiable_pairs);
        println!("instrument checks:    {}", report.instrument_checks);
        println!("analysis damage:      {}", report.analysis_total_damage);
        println!("operational damage:   {}", report.operational_total_damage);
        println!("campaign runtime:     {:.2?}", elapsed);
        println!("disagreements:        {}", report.total_disagreements);
        for d in &report.disagreements {
            let inst = d.instrument.as_deref().unwrap_or("-");
            let access = d.access.as_deref().unwrap_or("-");
            println!(
                "  {} mode {} ({}) instrument {} access {}: {}",
                d.primitive, d.mode_index, d.fault, inst, access, d.detail
            );
        }
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("analysis and simulation disagree on {} check(s)", report.total_disagreements))
    }
}

/// Runs the `rsnd` daemon in-process until SIGTERM/ctrl-c.
fn serve(opts: &Options) -> Result<(), String> {
    let mut config = ServerConfig::default();
    if let Some(addr) = &opts.addr {
        config.addr = addr.clone();
    }
    config.workers = Parallelism::new(opts.workers);
    config.queue_capacity = opts.queue;
    config.cache_capacity = opts.cache;
    config.store_path = opts.store.as_ref().map(Into::into);
    let server = Server::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    println!("rsnd listening on {}", server.local_addr());
    rsn_serve::signal::install();
    let handle = server.shutdown_handle();
    std::thread::spawn(move || loop {
        if rsn_serve::signal::triggered() {
            handle.shutdown();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    server.run().map_err(|e| format!("serve failed: {e}"))?;
    println!("rsnd shut down cleanly");
    Ok(())
}

/// Submits the network at `target` to a running daemon and prints the JSON
/// response body; `503 overloaded` answers are retried up to `--retries`
/// attempts with `Retry-After`-honoring jittered backoff (safe: submissions
/// are idempotent). With `--json` the response is wrapped in an envelope
/// that surfaces the attempt count. Non-200 final statuses become errors
/// (nonzero exit).
fn submit(target: &str, opts: &Options) -> Result<(), String> {
    let addr = opts.addr.clone().ok_or("submit needs --addr HOST:PORT")?;
    let network = match (&opts.network_hash, target.is_empty()) {
        (Some(_), false) => {
            return Err("submit takes either a network file or --network-hash, not both".into())
        }
        (Some(_), true) => None,
        (None, true) => return Err("submit needs a <network.rsn> file or --network-hash".into()),
        (None, false) => {
            Some(std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?)
        }
    };
    let endpoint = match opts.endpoint.as_str() {
        "analyze" => Endpoint::Analyze,
        "harden" => Endpoint::Harden,
        "validate" => Endpoint::Validate,
        "whatif" => Endpoint::Whatif,
        other => {
            return Err(format!(
                "unknown endpoint {other:?} (expected analyze|harden|validate|whatif)"
            ))
        }
    };
    let job = JobRequest {
        network,
        network_hash: opts.network_hash.clone(),
        seed: Some(opts.seed),
        kind_weights: opts.kind_weights.then_some(true),
        solver: Some(opts.solver.clone()),
        generations: Some(opts.generations),
        timeout_ms: opts.timeout_ms,
        op: opts.op.clone(),
        target: opts.target.clone(),
        obs_weight: opts.obs_weight,
        set_weight: opts.set_weight,
        exact_double: opts.exact_double.then_some(true),
        ..Default::default()
    };
    let policy = RetryPolicy {
        max_attempts: opts.retries.max(1),
        jitter_seed: opts.seed,
        ..RetryPolicy::default()
    };
    let outcome =
        Client::new(addr).submit_with_retry(endpoint, &job, &policy).map_err(|e| e.to_string())?;
    if opts.json {
        // The response body is itself JSON (success and error envelopes
        // alike), so it embeds verbatim.
        println!(
            "{{\"attempts\":{},\"status\":{},\"response\":{}}}",
            outcome.attempts, outcome.response.status, outcome.response.body
        );
    } else if outcome.response.status == 200 {
        println!("{}", outcome.response.body);
    }
    if outcome.response.status == 200 {
        Ok(())
    } else if let Some(err) = parse_error(&outcome.response) {
        // The daemon's structured error envelope: surface the stable code
        // and whether a retry may help instead of dumping raw JSON.
        Err(format!(
            "rsnd returned {} ({}, retryable={}) after {} attempt(s): {}",
            outcome.response.status, err.code, err.retryable, outcome.attempts, err.message
        ))
    } else {
        Err(format!(
            "rsnd returned {} after {} attempt(s): {}",
            outcome.response.status,
            outcome.attempts,
            outcome.response.body.trim()
        ))
    }
}

/// `networks put <file>` registers a network with a running daemon and
/// prints the `{"hash":..,"name":..,"registered":..}` response; `networks
/// list` prints the daemon's registry listing. Hashes printed here are what
/// `submit --network-hash` accepts.
fn networks(sub: &str, file: Option<&str>, opts: &Options) -> Result<(), String> {
    let addr = opts.addr.clone().ok_or("networks needs --addr HOST:PORT")?;
    let client = Client::new(addr);
    let response = match sub {
        "put" => {
            let path = file.ok_or("networks put needs a <network.rsn> file")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            client.put_network(&text).map_err(|e| e.to_string())?
        }
        "list" => client.list_networks().map_err(|e| e.to_string())?,
        other => return Err(format!("unknown networks subcommand {other:?} (expected put|list)")),
    };
    if response.status == 200 {
        println!("{}", response.body);
        Ok(())
    } else if let Some(err) = parse_error(&response) {
        Err(format!("rsnd returned {} ({}): {}", response.status, err.code, err.message))
    } else {
        Err(format!("rsnd returned {}: {}", response.status, response.body.trim()))
    }
}

fn harden(net: &ScanNetwork, tree: &DecompTree, opts: &Options) -> Result<(), String> {
    let spec = weights(net, opts);
    let crit = analyze(net, tree, &spec, &AnalysisOptions::default());
    let problem = HardeningProblem::new(net, &crit, &CostModel::default())
        .with_parallelism(opts.parallelism());
    println!(
        "initial assessment: max cost {}, max damage {}",
        problem.max_cost(),
        problem.total_damage()
    );
    let solver = match opts.solver.as_str() {
        "spea2" => Solver::Spea2 {
            config: Spea2Config {
                population_size: 100,
                archive_size: 100,
                generations: opts.generations,
                ..Default::default()
            },
            seed: opts.seed,
        },
        "nsga2" => Solver::Nsga2 {
            config: Nsga2Config {
                population_size: 100,
                generations: opts.generations,
                ..Default::default()
            },
            seed: opts.seed,
        },
        "greedy" => Solver::Greedy,
        "exact" => Solver::Exact { max_states: 4_000_000 },
        other => return Err(format!("unknown solver {other:?}")),
    };
    let front = solver.run(&problem, &CancelToken::none()).map_err(|e| match e {
        // The CLI reports the solver's own budget text, not the served one.
        SessionError::BudgetExceeded { states } => {
            ExactSolveError::BudgetExceeded { states }.to_string()
        }
        e => e.to_string(),
    })?;
    print!("{}", report::front_table(&problem, &front));
    let dmg_cap = problem.total_damage() * opts.damage_cap_pct / 100;
    match front.min_cost_with_damage_at_most(dmg_cap) {
        Some(s) => {
            println!(
                "\nminimize cost, damage <= {}%: cost {} damage {} ({} primitives)",
                opts.damage_cap_pct,
                s.cost,
                s.damage,
                s.hardened_count()
            );
            println!("  protects important instruments: {}", s.protects_important(&crit));
            let names: Vec<String> =
                s.hardened.iter().take(20).map(|&n| net.node(n).label(n)).collect();
            println!(
                "  hardened: {}{}",
                names.join(", "),
                if s.hardened_count() > 20 { ", ..." } else { "" }
            );
        }
        None => println!("\nminimize cost, damage <= {}%: not reached", opts.damage_cap_pct),
    }
    let cost_cap = problem.max_cost() * opts.cost_cap_pct / 100;
    match front.min_damage_with_cost_at_most(cost_cap) {
        Some(s) => println!(
            "minimize damage, cost <= {}%: cost {} damage {} ({} primitives)",
            opts.cost_cap_pct,
            s.cost,
            s.damage,
            s.hardened_count()
        ),
        None => println!("minimize damage, cost <= {}%: not reached", opts.cost_cap_pct),
    }
    Ok(())
}

fn weights(net: &ScanNetwork, opts: &Options) -> CriticalitySpec {
    if opts.kind_weights {
        CriticalitySpec::from_kinds(net)
    } else {
        CriticalitySpec::paper_random(net, &PaperSpecParams::default(), opts.seed)
    }
}

type Loaded = (ScanNetwork, DecompTree, Option<Structure>);

/// Loads `.rsn` (structural DSL) or `.icl` (flat IEEE 1687 subset) files.
fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if path.ends_with(".icl") {
        let net = import_icl(&text).map_err(|e| e.to_string())?;
        let tree = recognize(&net).map_err(|e| e.to_string())?;
        return Ok((net, tree, None));
    }
    let (name, structure) = parse_network(&text).map_err(|e| e.to_string())?;
    let (net, built) = structure.build(name).map_err(|e| e.to_string())?;
    let tree = tree_from_structure(&net, &built);
    // Leaf is re-exported for annotation closures; silence unused warning.
    let _: Option<Leaf> = None;
    Ok((net, tree, Some(structure)))
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

fn usage() -> String {
    "usage: rsn-tool <stats|tree|analyze|harden|bench|validate|export-icl|diagnose|serve|submit|networks|gen|sweep|loadgen> \
     <network.rsn|network.icl|design|put|list|shape> [--seed N] [--generations N] \
     [--solver spea2|nsga2|greedy|exact] [--damage-cap PCT] [--cost-cap PCT] \
     [--kind-weights] [--fault <node>[:port]] [--threads N] [--json] \
     [--addr HOST:PORT] [--endpoint analyze|harden|validate|whatif] [--network-hash SHA256] \
     [--workers N] [--queue N] [--cache N] [--store PATH] \
     [--retries N] [--timeout-ms N] [--exact-double] \
     [--segments N] [--requests N] [--connections N] [--rate RPS] [--mix SPEC] \
     [--slo-ms N] [--spawn] [--chaos SPEC] [--network-shape deep-sib|rings|chiplets]\n\
     rsn-tool --version"
        .to_string()
}
