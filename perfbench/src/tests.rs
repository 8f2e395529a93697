//! The benchmark's own tests: every output check rejects a planted
//! corruption, and every workload runs end to end on small inputs.

use iddq_celllib::Library;
use iddq_core::{flow, PartitionConfig};
use iddq_logicsim::fault_sweep::{self, FaultSweepOptions, LogicFault};
use iddq_logicsim::faults::{self, FaultUniverseConfig};
use iddq_logicsim::iddq as iddq_sim;
use iddq_logicsim::logic_test::StuckAtFault;
use iddq_netlist::{bench, W256};

use crate::util::{circuit_seed, Rng};
use crate::{check, eval, generate, RunArgs};

fn small(workload: &str) -> RunArgs {
    RunArgs {
        workload: workload.to_owned(),
        seed: 3,
        seconds: 0.0,
        trace: false,
        small: true,
    }
}

#[test]
fn every_workload_runs_end_to_end_on_small_inputs() {
    for (name, run) in [
        ("flow", crate::flow::run as fn(&RunArgs) -> crate::Outcome),
        ("faultsim", crate::faultsim::run),
        ("resynth", crate::resynth::run),
        ("serve", crate::serve::run),
    ] {
        let out = run(&small(name));
        assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);
        assert!(out.attempted > 0, "{name}");
        // The serve workload's one wide-seed request per round fails.
        let expect_failed = if name == "serve" {
            out.round_s.len() as u64
        } else {
            0
        };
        assert_eq!(out.failed, expect_failed, "{name}");
        assert!(out.wall_s > 0.0 && out.setup_s > 0.0, "{name}");
        assert!(!out.op_ms.is_empty() && !out.layers.is_empty(), "{name}");
        for m in &out.layers {
            assert!(
                crate::PER_LAYER.contains(&(m.name.as_str(), m.unit)),
                "{name}: {} ({}) is not a listed per-layer metric",
                m.name,
                m.unit
            );
        }
    }
}

/// The metric names and units of one list of `BENCHMARK.json`.
fn manifest(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    json[key]
        .as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().expect("a string").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_run_reports_every_metric_of_its_mode() {
    let mut out = crate::Outcome::new(0.5, &[1.0, 1.2], 3);
    out.op_ms = vec![300.0, 400.0, 500.0];
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let args = RunArgs {
            trace,
            ..small("flow")
        };
        let names: Vec<(String, String)> = crate::report(&args, &mut out, 1.0, Some(2.0))
            .into_iter()
            .map(|m| (m.name, m.unit.to_owned()))
            .collect();
        assert_eq!(names, manifest(key), "{key}");
    }
}

#[test]
fn stuck_at_check_rejects_a_flipped_detection() {
    let nl = generate("c432", circuit_seed("c432"));
    let vectors = Rng::new(5).vectors(512, nl.num_inputs());
    let stuck: Vec<(usize, bool)> = nl
        .node_ids()
        .flat_map(|n| [(n.index(), false), (n.index(), true)])
        .collect();
    let logic: Vec<LogicFault> = stuck
        .iter()
        .map(|&(node, one)| {
            LogicFault::StuckAt(StuckAtFault {
                node: iddq_netlist::NodeId(node as u32),
                stuck_at_one: one,
            })
        })
        .collect();
    let sweep = fault_sweep::sweep::<W256>(&nl, &logic, &vectors, &FaultSweepOptions::default());
    let mut reported = sweep.first_detection.clone();
    check::stuck_at_sample(&nl, &vectors, 1, &stuck, &reported, 16, 9).expect("agrees");
    // Flip the detection of the first fault the sampler draws.
    let k = Rng::new(9 ^ 0x5a5a).below(stuck.len());
    reported[k] = match reported[k] {
        Some(v) => Some(v + 1),
        None => Some(0),
    };
    assert!(check::stuck_at_sample(&nl, &vectors, 1, &stuck, &reported, 16, 9).is_err());
}

#[test]
fn iddq_check_rejects_a_flipped_detection() {
    let nl = generate("s298", circuit_seed("s298"));
    let defects = faults::enumerate(&nl, &FaultUniverseConfig::default(), 4);
    let frames = 3;
    let vectors = Rng::new(6).vectors(3 * 100, nl.num_inputs());
    // One module per gate id parity; the second leaks past the threshold,
    // so its sensor never flags a defect.
    let module_of: Vec<u32> = nl
        .node_ids()
        .map(|n| if nl.is_gate(n) { n.0 % 2 } else { u32::MAX })
        .collect();
    let threshold = Library::generic_1um().technology().iddq_threshold_ua;
    let leak = [threshold / 2.0, threshold * 2.0];
    let sim = iddq_sim::simulate_with_options(
        &nl,
        &defects,
        &vectors,
        &module_of,
        &leak,
        threshold,
        &iddq_sim::SweepOptions {
            frames,
            ..iddq_sim::SweepOptions::default()
        },
    );
    let mut reported = sim.first_detection.clone();
    check::iddq_detections(
        &nl, &defects, &vectors, frames, &module_of, &leak, threshold, &reported,
    )
    .expect("agrees");
    let k = reported
        .iter()
        .position(Option::is_some)
        .expect("some defect is detected");
    reported[k] = None;
    assert!(check::iddq_detections(
        &nl, &defects, &vectors, frames, &module_of, &leak, threshold, &reported
    )
    .is_err());
}

#[test]
fn equivalence_check_rejects_a_swapped_gate_kind() {
    let nl = generate("c432", circuit_seed("c432"));
    let text = bench::to_bench(&nl);
    let same = bench::parse("c432", &text).expect("parses");
    check::equivalent(&nl, &same, 1024, 1).expect("a netlist matches itself");
    // Swap the kind of the gate driving the first primary output for its
    // complement, so every pattern tells them apart.
    let out = nl.node_name(nl.outputs()[0]).to_owned();
    let swapped: String = text
        .lines()
        .map(|line| {
            if line.starts_with(&format!("{out} = ")) {
                let (lhs, rhs) = line.split_once(" = ").expect("assignment");
                let rhs = [
                    ("NAND(", "AND("),
                    ("NOR(", "OR("),
                    ("XNOR(", "XOR("),
                    ("NOT(", "BUF("),
                ]
                .iter()
                .find_map(|(a, b)| {
                    rhs.strip_prefix(a)
                        .map(|r| format!("{b}{r}"))
                        .or_else(|| rhs.strip_prefix(b).map(|r| format!("{a}{r}")))
                })
                .expect("a known gate kind");
                format!("{lhs} = {rhs}\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    assert_ne!(swapped, text, "the output gate was rewritten");
    let broken = bench::parse("c432", &swapped).expect("still parses");
    assert!(check::equivalent(&nl, &broken, 1024, 1).is_err());
}

#[test]
fn sensor_rules_reject_an_oversized_bypass_and_a_low_discriminability() {
    let nl = iddq_netlist::data::c17();
    let library = Library::generic_1um();
    let config = PartitionConfig::paper_default();
    let result = flow::synthesize(&nl, &library, &config, 7);
    let mut report = result.report;
    check::sensor_rules(&report, config.d_min, config.sizing.r_star_mv).expect("holds");
    check::covers_each_gate_once(&nl, &result.partition).expect("a cover");
    let mut big = report.clone();
    let m = &mut big.modules[0];
    m.rs_ohm = Some(config.sizing.r_star_mv * 1000.0 / m.peak_current_ua * 1.01);
    assert!(check::sensor_rules(&big, config.d_min, config.sizing.r_star_mv).is_err());
    report.feasible = true;
    report.modules[0].discriminability = config.d_min / 2.0;
    assert!(check::sensor_rules(&report, config.d_min, config.sizing.r_star_mv).is_err());
}

#[test]
fn evaluator_computes_nand_gates() {
    // Every c17 gate is a NAND: check each against its fan-in's values.
    let nl = iddq_netlist::data::c17();
    let ev = eval::Evaluator::new(&nl);
    let mut values = vec![0u64; ev.nodes()];
    let inputs: Vec<u64> = (0..nl.num_inputs())
        .map(|k| 0xaaaa_5555_cccc_3333u64.rotate_left(k as u32 * 7))
        .collect();
    ev.step(&inputs, &mut [], None, &mut values);
    for g in nl.gate_ids() {
        let fanin = nl.node(g).fanin();
        let and = fanin.iter().fold(!0u64, |a, f| a & values[f.index()]);
        assert_eq!(values[g.index()], !and, "c17 is all NAND");
    }
}
