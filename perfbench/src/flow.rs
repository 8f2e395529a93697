//! `flow`: the paper's experiment as `iddq test` runs it, plus the Table 1
//! comparison against §5 standard partitioning at equal module count.

use iddq_atpg::AtpgConfig;
use iddq_celllib::Library;
use iddq_core::evolution::EvolutionConfig;
use iddq_core::flow::{self, SynthesisReport};
use iddq_core::{standard, EvalContext, Evaluated, Partition, PartitionConfig};
use iddq_logicsim::faults::{self, FaultUniverseConfig, IddqFault};
use iddq_logicsim::iddq::{self as iddq_sim, SweepOptions};
use iddq_netlist::Netlist;

use crate::util::{circuit_seed, metric, op, repeat_rounds, setup, timed};
use crate::{check, circuits, Outcome, RunArgs};

/// What one circuit's pipeline produced.
struct CircuitRun {
    defects: Vec<IddqFault>,
    vectors: Vec<Vec<bool>>,
    evolved: Partition,
    report: SynthesisReport,
    standard: Partition,
    standard_report: SynthesisReport,
    leakage_ua: Vec<f64>,
    first_detection: Vec<Option<usize>>,
    evaluations: usize,
    optimize_s: f64,
}

impl CircuitRun {
    /// The figures that must repeat exactly from round to round.
    fn fingerprint(&self) -> (u64, usize, usize, usize) {
        (
            self.report.cost.sensor_area.to_bits(),
            self.vectors.len(),
            self.first_detection.iter().flatten().count(),
            self.evaluations,
        )
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let list: &[(&str, usize)] = if args.small {
        &[("c432", 1), ("s298", 2)]
    } else {
        &[
            ("c1908", 1),
            ("c2670", 1),
            ("c3540", 1),
            ("c5315", 1),
            ("c6288", 1),
            ("c7552", 1),
            ("s5378", 3),
        ]
    };
    let (cuts, setup_s) = setup(args.setup_reps(), || circuits(list, circuit_seed));
    let library = Library::generic_1um();
    let config = PartitionConfig::paper_default();
    let mut op_ms = Vec::new();
    let (first, times, differing) = repeat_rounds(
        args.seconds,
        || {
            cuts.iter()
                .enumerate()
                .map(|(k, (nl, frames))| {
                    op(&mut op_ms, || {
                        pipeline(nl, *frames, &library, &config, args.seed, k as u64)
                    })
                })
                .collect::<Vec<_>>()
        },
        |a, b| {
            a.iter().zip(b).all(|(x, y)| match (x, y) {
                (Ok(x), Ok(y)) => x.fingerprint() == y.fingerprint(),
                (Err(x), Err(y)) => x == y,
                _ => false,
            })
        },
    );
    let mut out = Outcome::new(setup_s, &times, cuts.len());
    out.op_ms = op_ms;
    out.failed = (first.iter().filter(|r| r.is_err()).count() * times.len()) as u64;
    for r in differing {
        out.fail_check(format!("round {r} differs from round 0"));
    }
    let threshold = library.technology().iddq_threshold_ua;
    let (mut area, mut test_time_ps, mut detected) = (0.0, 0.0, 0usize);
    let (mut defects, mut vectors, mut evaluations, mut optimize_s, mut sensors) =
        (0usize, 0usize, 0usize, 0.0, 0usize);
    for ((nl, frames), run) in cuts.iter().zip(&first) {
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{}: operation failed: {e}", nl.name());
                continue;
            }
        };
        area += run.report.cost.sensor_area;
        test_time_ps += run.report.test_time_ps;
        detected += run.first_detection.iter().flatten().count();
        defects += run.defects.len();
        vectors += run.vectors.len();
        evaluations += run.evaluations;
        optimize_s += run.optimize_s;
        sensors += run.report.modules.len();
        out.check(check::covers_each_gate_once(nl, &run.evolved));
        out.check(check::covers_each_gate_once(nl, &run.standard));
        for report in [&run.report, &run.standard_report] {
            out.check(check::sensor_rules(
                report,
                config.d_min,
                config.sizing.r_star_mv,
            ));
        }
        if run.report.cost.sensor_area >= run.standard_report.cost.sensor_area {
            out.fail_check(format!(
                "{}: evolution sensor area {} is not below standard partitioning's {} at {} modules",
                nl.name(),
                run.report.cost.sensor_area,
                run.standard_report.cost.sensor_area,
                run.evolved.module_count()
            ));
        }
        out.check(check::iddq_detections(
            nl,
            &run.defects,
            &run.vectors,
            *frames,
            run.evolved.assignment(),
            &run.leakage_ua,
            threshold,
            &run.first_detection,
        ));
    }
    out.layers = vec![
        metric("sensor_area", area, "area"),
        metric("test_time_us", test_time_ps / 1e6, "us"),
        metric("defects_detected", detected as f64, "count"),
        metric("faults.defects", defects as f64, "count"),
        metric("atpg.vectors", vectors as f64, "count"),
        metric("evolution.evaluations", evaluations as f64, "count"),
        metric(
            "evolution.eval_us",
            optimize_s * 1e6 / evaluations.max(1) as f64,
            "us",
        ),
        metric("bic.sensors", sensors as f64, "count"),
    ];
    out
}

/// One circuit through the flow: full-tier context, defect enumeration,
/// ATPG, evolution, standard partitioning at equal module count, sensor
/// report and IDDQ simulation of the evolved partition.
fn pipeline(
    nl: &Netlist,
    frames: usize,
    library: &Library,
    config: &PartitionConfig,
    seed: u64,
    id: u64,
) -> Result<CircuitRun, String> {
    let (ctx, _) = timed("context.build", id, || {
        EvalContext::builder(nl, library, config.clone()).build()
    });
    let (defects, _) = timed("faults.enumerate", id, || {
        faults::enumerate_with(
            nl,
            &FaultUniverseConfig::default(),
            seed,
            ctx.try_separation(),
        )
    });
    let (tests, _) = timed("atpg.generate", id, || {
        iddq_atpg::generate_seq(nl, &defects, &AtpgConfig::default(), seed, frames)
    });
    let tests = tests.map_err(|e| format!("time-frame ATPG failed: {e}"))?;
    let evo = EvolutionConfig {
        generations: 60,
        stagnation: 25,
        threads: 1,
        ..EvolutionConfig::default()
    };
    let (result, optimize_s) = timed("evolution.optimize", id, || {
        flow::synthesize_in(&ctx, &evo, seed)
    });
    let sizes = standard::equal_sizes(nl.gate_count(), result.partition.module_count());
    let (std_p, _) = timed("standard.partition", id, || {
        standard::standard_partition(&ctx, &sizes)
    });
    let (standard_report, _) = timed("flow.report", id, || {
        flow::report_for(&Evaluated::new(&ctx, std_p.clone()))
    });
    let leakage_ua: Vec<f64> = result
        .report
        .modules
        .iter()
        .map(|m| m.leakage_na / 1000.0)
        .collect();
    let (sim, _) = timed("iddq.simulate", id, || {
        iddq_sim::simulate_with_options(
            nl,
            &defects,
            &tests.vectors,
            result.partition.assignment(),
            &leakage_ua,
            library.technology().iddq_threshold_ua,
            &SweepOptions {
                frames,
                ..SweepOptions::default()
            },
        )
    });
    Ok(CircuitRun {
        defects,
        vectors: tests.vectors,
        evolved: result.partition,
        report: result.report,
        standard: std_p,
        standard_report,
        leakage_ua,
        first_detection: sim.first_detection,
        evaluations: result.evaluations,
        optimize_s,
    })
}
