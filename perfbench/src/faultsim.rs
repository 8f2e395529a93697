//! `faultsim`: stuck-at + bridge fault-patch sweeps at the library
//! defaults on random vectors, a multi-frame sweep on a sequential
//! circuit, and per circuit ATPG plus IDDQ simulation of its test set.

use iddq_atpg::AtpgConfig;
use iddq_celllib::Library;
use iddq_logicsim::fault_sweep::{self, FaultSweepOptions, LogicFault};
use iddq_logicsim::faults::{self, FaultUniverseConfig, IddqFault};
use iddq_logicsim::iddq::{self as iddq_sim, SweepOptions};
use iddq_logicsim::logic_test::StuckAtFault;
use iddq_netlist::{Netlist, W256};

use crate::util::{circuit_seed, metric, op, repeat_rounds, setup, timed, Rng};
use crate::{check, circuits, Outcome, RunArgs};

/// Stuck-at faults re-derived per circuit by the independent check.
const STUCK_AT_SAMPLES: usize = 48;

struct CircuitRun {
    logic_faults: Vec<LogicFault>,
    first_detection: Vec<Option<usize>>,
    mean_dirty_nodes: f64,
    sweep_s: f64,
    defects: Vec<IddqFault>,
    tests: Vec<Vec<bool>>,
    iddq_first: Vec<Option<usize>>,
    iddq_s: f64,
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    // (circuit, frames, random vectors)
    let list: &[(&str, (usize, usize))] = if args.small {
        &[("c432", (1, 1024)), ("s298", (4, 512))]
    } else {
        &[
            ("c6288", (1, 16_384)),
            ("c7552", (1, 16_384)),
            ("s5378", (4, 16_384)),
        ]
    };
    let ((cuts, vectors), setup_s) = setup(args.setup_reps(), || {
        let cuts = circuits(list, circuit_seed);
        let mut rng = Rng::new(args.seed);
        let vectors: Vec<Vec<Vec<bool>>> = cuts
            .iter()
            .map(|(nl, (_, count))| rng.vectors(*count, nl.num_inputs()))
            .collect();
        (cuts, vectors)
    });
    let library = Library::generic_1um();
    let threshold = library.technology().iddq_threshold_ua;
    let modules: Vec<(Vec<u32>, Vec<f64>)> = cuts
        .iter()
        .map(|(nl, _)| chunk_modules(nl, &library, threshold))
        .collect();
    let mut op_ms = Vec::new();
    let (first, times, differing) = repeat_rounds(
        args.seconds,
        || {
            cuts.iter()
                .zip(&vectors)
                .zip(&modules)
                .enumerate()
                .map(|(k, (((nl, (frames, _)), vecs), (module_of, leak)))| {
                    op(&mut op_ms, || {
                        circuit(
                            nl, *frames, vecs, module_of, leak, threshold, args.seed, k as u64,
                        )
                    })
                })
                .collect::<Vec<_>>()
        },
        |a, b| {
            a.iter().zip(b).all(|(x, y)| match (x, y) {
                (Ok(x), Ok(y)) => {
                    x.first_detection == y.first_detection && x.iddq_first == y.iddq_first
                }
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
    let (mut faults_total, mut detected, mut patterns, mut sweep_s) = (0usize, 0usize, 0f64, 0.0);
    let (mut dirty_weighted, mut fault_vectors, mut iddq_s, mut tests) = (0.0, 0f64, 0.0, 0usize);
    for ((((nl, (frames, _)), vecs), (module_of, leak)), run) in
        cuts.iter().zip(&vectors).zip(&modules).zip(&first)
    {
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{}: operation failed: {e}", nl.name());
                continue;
            }
        };
        let hits = run.first_detection.iter().flatten().count();
        faults_total += run.logic_faults.len();
        detected += hits;
        patterns += (run.logic_faults.len() * vecs.len()) as f64;
        sweep_s += run.sweep_s;
        dirty_weighted += run.mean_dirty_nodes * run.logic_faults.len() as f64;
        fault_vectors += (run.defects.len() * run.tests.len()) as f64;
        iddq_s += run.iddq_s;
        tests += run.tests.len();
        let stuck: Vec<(usize, bool)> = run
            .logic_faults
            .iter()
            .map_while(|f| match f {
                LogicFault::StuckAt(s) => Some((s.node.index(), s.stuck_at_one)),
                LogicFault::Bridge { .. } => None,
            })
            .collect();
        out.check(check::stuck_at_sample(
            nl,
            vecs,
            *frames,
            &stuck,
            &run.first_detection,
            STUCK_AT_SAMPLES,
            args.seed ^ circuit_seed(nl.name()),
        ));
        if *frames > 1
            && !run
                .first_detection
                .iter()
                .flatten()
                .any(|d| d % frames != 0)
        {
            out.fail_check(format!(
                "{}: no fault is first detected beyond frame 0 of its sequence",
                nl.name()
            ));
        }
        out.check(check::iddq_detections(
            nl,
            &run.defects,
            &run.tests,
            *frames,
            module_of,
            leak,
            threshold,
            &run.iddq_first,
        ));
    }
    out.layers = vec![
        metric("faults_detected", detected as f64, "count"),
        metric("fault_sweep.faults", faults_total as f64, "count"),
        metric(
            "fault_sweep.detected_frac",
            detected as f64 / faults_total.max(1) as f64,
            "ratio",
        ),
        metric("fault_sweep.fault_patterns", patterns, "count"),
        metric(
            "fault_sweep.fault_patterns_per_s",
            patterns / sweep_s.max(1e-9),
            "1/s",
        ),
        metric(
            "fault_sweep.mean_dirty_nodes",
            dirty_weighted / faults_total.max(1) as f64,
            "nodes",
        ),
        metric("atpg.vectors", tests as f64, "count"),
        metric(
            "iddq.fault_vectors_per_s",
            fault_vectors / iddq_s.max(1e-9),
            "1/s",
        ),
    ];
    out
}

/// Splits the gates, in id order, into modules whose fault-free leakage
/// stays below half the sensor threshold; returns the node → module map
/// and each module's leakage in µA.
fn chunk_modules(nl: &Netlist, library: &Library, threshold_ua: f64) -> (Vec<u32>, Vec<f64>) {
    let mut module_of = vec![u32::MAX; nl.node_count()];
    let mut leak: Vec<f64> = Vec::new();
    let mut current = f64::INFINITY;
    for g in nl.gate_ids() {
        let node = nl.node(g);
        let kind = node.kind().cell_kind().expect("gate ids are gates");
        let cell_ua = library.cell(kind, node.fanin().len()).leakage_na / 1000.0;
        if current + cell_ua >= threshold_ua / 2.0 {
            leak.push(0.0);
            current = 0.0;
        }
        current += cell_ua;
        *leak.last_mut().expect("a module is open") += cell_ua;
        module_of[g.index()] = (leak.len() - 1) as u32;
    }
    (module_of, leak)
}

/// One circuit: defect enumeration, the stuck-at + bridge sweep, ATPG
/// and IDDQ simulation of the generated set.
#[allow(clippy::too_many_arguments)]
fn circuit(
    nl: &Netlist,
    frames: usize,
    vectors: &[Vec<bool>],
    module_of: &[u32],
    leakage_ua: &[f64],
    threshold_ua: f64,
    seed: u64,
    id: u64,
) -> Result<CircuitRun, String> {
    let (defects, _) = timed("faults.enumerate", id, || {
        faults::enumerate(nl, &FaultUniverseConfig::default(), seed)
    });
    // Both stuck-at polarities on every node, then the sampled bridges.
    let mut logic_faults: Vec<LogicFault> = nl
        .node_ids()
        .flat_map(|node| {
            [false, true]
                .map(|stuck_at_one| LogicFault::StuckAt(StuckAtFault { node, stuck_at_one }))
        })
        .collect();
    logic_faults.extend(defects.iter().filter_map(|d| match *d {
        IddqFault::Bridge { a, b, .. } => Some(LogicFault::Bridge { a, b }),
        _ => None,
    }));
    let span = if frames > 1 {
        "fault_sweep.seq_sweep"
    } else {
        "fault_sweep.sweep"
    };
    let (sweep, sweep_s) = timed(span, id, || {
        fault_sweep::sweep::<W256>(
            nl,
            &logic_faults,
            vectors,
            &FaultSweepOptions {
                frames,
                ..FaultSweepOptions::default()
            },
        )
    });
    let (tests, _) = timed("atpg.generate", id, || {
        iddq_atpg::generate_seq(nl, &defects, &AtpgConfig::default(), seed, frames)
    });
    let tests = tests.map_err(|e| format!("time-frame ATPG failed: {e}"))?;
    let (sim, iddq_s) = timed("iddq.simulate", id, || {
        iddq_sim::simulate_with_options(
            nl,
            &defects,
            &tests.vectors,
            module_of,
            leakage_ua,
            threshold_ua,
            &SweepOptions {
                frames,
                ..SweepOptions::default()
            },
        )
    });
    Ok(CircuitRun {
        logic_faults,
        first_detection: sweep.first_detection,
        mean_dirty_nodes: sweep.mean_dirty_nodes,
        sweep_s,
        defects,
        tests: tests.vectors,
        iddq_first: sim.first_detection,
        iddq_s,
    })
}
