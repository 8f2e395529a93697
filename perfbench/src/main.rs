//! `perfbench` — end-to-end and per-layer benchmark of the IDDQ
//! synthesis flow and its engines.
//!
//! ```text
//! perfbench --workload flow|faultsim|resynth|serve --seed N --seconds S
//!           --trace 0|1 [--small]
//! ```
//!
//! One run builds its inputs from the seed, sets up several times, then
//! repeats whole rounds of the workload until `S` seconds have passed,
//! checks the outputs and prints one JSON object as its last line:
//! `correct`, operations `attempted` and `failed`, and the metrics —
//! the end-to-end ones with `--trace 0`, the per-layer ones (from spans
//! recorded around every call into a layer) with `--trace 1`. `--small`
//! shrinks every input so a run takes seconds (the benchmark's own
//! tests use it). See `README.md` for the workloads and metrics.

mod check;
mod eval;
mod faultsim;
mod flow;
mod resynth;
mod serve;
#[cfg(test)]
mod tests;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

use iddq_netlist::{bench, Netlist};

use util::{median, metric, percentile, timed, Metric};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the rounds run.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Small inputs (tests).
    pub small: bool,
}

impl RunArgs {
    /// How many times the set-up runs; its median is `setup_s`.
    #[must_use]
    pub fn setup_reps(&self) -> usize {
        if self.small {
            1
        } else {
            15
        }
    }
}

/// What a workload run yields.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Median round time.
    pub wall_s: f64,
    /// Wall time of each round.
    pub round_s: Vec<f64>,
    /// Wall time of every operation in ms: one circuit through the
    /// workload's pipeline, or one served request.
    pub op_ms: Vec<f64>,
    /// Workload-specific per-layer counts, rates and model figures.
    pub layers: Vec<Metric>,
    /// Failed checks.
    pub failures: Vec<String>,
}

impl Outcome {
    /// An outcome for `times.len()` rounds of `ops` operations each.
    #[must_use]
    pub fn new(setup_s: f64, times: &[f64], ops: usize) -> Self {
        Outcome {
            attempted: (times.len() * ops) as u64,
            setup_s,
            wall_s: median(times),
            round_s: times.to_vec(),
            ..Outcome::default()
        }
    }

    /// Records a failed check.
    pub fn fail_check(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Records the result of a check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(why) = result {
            self.failures.push(why);
        }
    }
}

/// Generates each named circuit (an ISCAS-85-like `c*` or ISCAS-89-like
/// `s*` profile) from `gen_seed(name)`, writes it as `.bench` text and
/// parses it back, as a user of `iddq gen` and `iddq test` would.
///
/// # Panics
///
/// Panics on an unknown profile name or a `.bench` text the parser
/// rejects (the benchmark's lists only name known profiles).
pub fn circuits<T: Copy>(list: &[(&str, T)], gen_seed: impl Fn(&str) -> u64) -> Vec<(Netlist, T)> {
    list.iter()
        .enumerate()
        .map(|(k, &(name, extra))| {
            let (nl, _) = timed("gen.generate", k as u64, || generate(name, gen_seed(name)));
            let text = bench::to_bench(&nl);
            let (parsed, _) = timed("netlist.parse", k as u64, || bench::parse(name, &text));
            (parsed.expect("generated .bench text parses"), extra)
        })
        .collect()
}

/// One synthetic circuit by profile name.
///
/// # Panics
///
/// Panics on an unknown name.
#[must_use]
pub fn generate(name: &str, seed: u64) -> Netlist {
    if let Some(p) = iddq_gen::iscas::IscasProfile::by_name(name) {
        iddq_gen::iscas::generate(p, seed)
    } else {
        let p = iddq_gen::seq::SeqProfile::by_name(name).expect("known circuit profile");
        iddq_gen::seq::generate(p, seed)
    }
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--small" => args.small = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["flow", "faultsim", "resynth", "serve"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be flow, faultsim, resynth or serve (got `{}`)",
            args.workload
        ));
    }
    Ok(args)
}

/// Per-layer metrics, with their units, in the order `BENCHMARK.json`
/// lists them. A traced run of every workload reports each one; a metric
/// of a layer the workload does not reach (no span of that layer, no
/// figure of that kind) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.calib_ms", "ms"),
    ("host.calib_mem_ms", "ms"),
    ("trace.round_s", "s"),
    ("trace.gap_s", "s"),
    ("gen.generate_s", "s"),
    ("netlist.parse_s", "s"),
    ("context.build_s", "s"),
    ("context.build_gatesep_s", "s"),
    ("faults.enumerate_s", "s"),
    ("faults.defects", "count"),
    ("atpg.generate_s", "s"),
    ("atpg.vectors", "count"),
    ("evolution.optimize_s", "s"),
    ("evolution.evaluations", "count"),
    ("evolution.eval_us", "us"),
    ("standard.partition_s", "s"),
    ("flow.report_s", "s"),
    ("bic.sensors", "count"),
    ("sensor_area", "area"),
    ("test_time_us", "us"),
    ("defects_detected", "count"),
    ("iddq.simulate_s", "s"),
    ("iddq.fault_vectors_per_s", "1/s"),
    ("fault_sweep.sweep_s", "s"),
    ("fault_sweep.seq_sweep_s", "s"),
    ("fault_sweep.faults", "count"),
    ("fault_sweep.fault_patterns", "count"),
    ("fault_sweep.fault_patterns_per_s", "1/s"),
    ("fault_sweep.mean_dirty_nodes", "nodes"),
    ("fault_sweep.detected_frac", "ratio"),
    ("faults_detected", "count"),
    ("synth.cost_aware_s", "s"),
    ("synth.per_gate_s", "s"),
    ("synth.probes", "count"),
    ("synth.probe_ms", "ms"),
    ("resynth_cost", "cost"),
    ("serve.start_s", "s"),
    ("serve.warm_s", "s"),
    ("serve.sim_p50_ms", "ms"),
    ("serve.faults_p50_ms", "ms"),
    ("serve.stats_p50_ms", "ms"),
    ("serve.inline_p50_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.store_hits", "count"),
    ("serve.evictions", "count"),
    ("throughput_rps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// Per-layer metrics from the recorded spans: each span name's self time
/// per set-up or per round (whichever encloses it) as `<name>_s`, the part
/// of each round no other span covers, and the traced round time.
fn span_metrics() -> Vec<Metric> {
    let spans = trace::spans();
    let selfs = trace::self_times_ns(&spans);
    let roots = trace::roots(&spans);
    let count = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_none())
            .count()
    };
    let mut per_layer: BTreeMap<&str, (u64, &str)> = BTreeMap::new();
    for ((s, &own), &root) in spans.iter().zip(&selfs).zip(&roots) {
        per_layer.entry(s.name).or_insert((0, root)).0 += own;
    }
    let mut out: Vec<Metric> = per_layer
        .iter()
        .filter(|(&name, _)| name != "round" && name != "setup")
        .map(|(name, &(ns, root))| {
            let per = ns as f64 / 1e9 / count(root).max(1) as f64;
            metric(&format!("{name}_s"), per, "s")
        })
        .collect();
    let rounds = count("round").max(1) as f64;
    let gap = per_layer.get("round").map_or(0, |&(ns, _)| ns);
    out.push(metric("trace.gap_s", gap as f64 / 1e9 / rounds, "s"));
    let round_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    out.push(metric("trace.round_s", median(&round_s), "s"));
    out
}

/// The metrics a run reports: with tracing off the end-to-end ones, each
/// from every workload; with tracing on every metric of [`PER_LAYER`].
pub fn report(
    args: &RunArgs,
    out: &mut Outcome,
    calib_ms: f64,
    calib_mem_ms: Option<f64>,
) -> Vec<Metric> {
    if !args.trace {
        return vec![
            metric("wall_s", out.wall_s, "s"),
            metric("setup_s", out.setup_s, "s"),
            metric("peak_rss_mb", util::peak_rss_mb(), "MiB"),
        ];
    }
    let mut measured = vec![
        metric("host.calib_ms", calib_ms, "ms"),
        metric("p50_ms", median(&out.op_ms), "ms"),
    ];
    let total_s: f64 = out.round_s.iter().sum();
    if total_s > 0.0 {
        let rate = out.attempted as f64 / total_s;
        measured.push(metric("throughput_rps", rate, "1/s"));
    }
    if let Some(ms) = calib_mem_ms {
        measured.push(metric("host.calib_mem_ms", ms, "ms"));
    }
    // A tail needs at least ten samples beyond it.
    if out.op_ms.len() >= 1000 {
        measured.push(metric("p99_ms", percentile(&out.op_ms, 0.99), "ms"));
    }
    measured.extend(span_metrics());
    measured.append(&mut out.layers);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}

/// Writes the spans as JSON lines under `.bench_build/perfbench-run/`.
fn write_spans(args: &RunArgs) -> Option<String> {
    let dir = std::path::Path::new(".bench_build").join("perfbench-run");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, trace::to_json_lines(&trace::spans())).ok()?;
    Some(path.display().to_string())
}

/// Runs [`util::memory_calibration_ms`] in a child process of this
/// binary and waits for it; `None` if the child cannot run.
fn memory_calibration_ms() -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .arg("--calibrate-memory")
        .output()
        .ok()?;
    String::from_utf8_lossy(&out.stdout).trim().parse().ok()
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--calibrate-memory") {
        println!("{}", util::memory_calibration_ms());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let calib_ms = util::host_calibration_ms();
    let calib_mem_ms = memory_calibration_ms();
    eprintln!("host calibration: {calib_ms:.3} ms integer loop, {calib_mem_ms:.3?} ms memory walk");
    if args.trace {
        trace::enable();
    }
    let mut out = match args.workload.as_str() {
        "flow" => flow::run(&args),
        "faultsim" => faultsim::run(&args),
        "resynth" => resynth::run(&args),
        _ => serve::run(&args),
    };
    let metrics = report(&args, &mut out, calib_ms, calib_mem_ms);
    if args.trace {
        if let Some(path) = write_spans(&args) {
            eprintln!("spans written to {path}");
        }
    }
    for why in &out.failures {
        eprintln!("CHECK FAILED: {why}");
    }
    eprintln!(
        "{}: {} rounds of {:.4?} s, setup {:.4} s (median)",
        args.workload,
        out.round_s.len(),
        out.round_s,
        out.setup_s
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted,
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
