//! `resynth`: cost-steered resynthesis on a GateSep-tier context — the
//! global balanced-or-chain choice and the per-gate greedy descent.

use iddq_celllib::Library;
use iddq_core::{AnalysisTier, EvalContext, PartitionConfig};
use iddq_netlist::Netlist;
use iddq_synth::{cost_aware_in, cost_aware_per_gate_in, PerGateReport, ResynthesisReport};

use crate::util::{circuit_seed, metric, op, repeat_rounds, setup, timed};
use crate::{check, circuits, Outcome, RunArgs};

/// Random patterns the equivalence check applies per netlist.
const EQUIVALENCE_PATTERNS: usize = 4096;

struct CircuitRun {
    global: (Netlist, ResynthesisReport),
    per_gate: (Netlist, PerGateReport),
    synth_s: f64,
}

/// Runs the workload. The circuits are the canonical Table 1 netlists, so
/// every seed does the same engine work; the seed draws the patterns of
/// the equivalence check.
pub fn run(args: &RunArgs) -> Outcome {
    let list: &[(&str, ())] = if args.small {
        &[("c432", ())]
    } else {
        &[("c1908", ()), ("c2670", ()), ("c3540", ())]
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
                .map(|(k, (nl, ()))| op(&mut op_ms, || circuit(nl, &library, &config, k as u64)))
                .collect::<Vec<_>>()
        },
        |a, b| {
            a.iter()
                .zip(b)
                .all(|(x, y)| x.global.1 == y.global.1 && x.per_gate.1 == y.per_gate.1)
        },
    );
    let mut out = Outcome::new(setup_s, &times, cuts.len());
    out.op_ms = op_ms;
    for r in differing {
        out.fail_check(format!("round {r} differs from round 0"));
    }
    let (mut cost, mut probes, mut synth_s) = (0.0, 0usize, 0.0);
    for ((nl, ()), run) in cuts.iter().zip(&first) {
        let (global_nl, _) = &run.global;
        let (mixed_nl, mixed) = &run.per_gate;
        cost += mixed.mixed_cost;
        probes += 2 + 2 * (mixed.balanced_gates + mixed.chain_gates + mixed.kept_gates);
        synth_s += run.synth_s;
        if mixed.mixed_cost > mixed.original_cost {
            out.fail_check(format!(
                "{}: per-gate cost {} exceeds the original {}",
                nl.name(),
                mixed.mixed_cost,
                mixed.original_cost
            ));
        }
        let seed = args.seed ^ circuit_seed(nl.name());
        out.check(check::equivalent(nl, global_nl, EQUIVALENCE_PATTERNS, seed));
        out.check(check::equivalent(nl, mixed_nl, EQUIVALENCE_PATTERNS, seed));
    }
    out.layers = vec![
        metric("resynth_cost", cost, "cost"),
        metric("synth.probes", probes as f64, "count"),
        metric("synth.probe_ms", synth_s * 1e3 / probes.max(1) as f64, "ms"),
    ];
    out
}

fn circuit(nl: &Netlist, library: &Library, config: &PartitionConfig, id: u64) -> CircuitRun {
    let (ctx, _) = timed("context.build_gatesep", id, || {
        EvalContext::builder(nl, library, config.clone())
            .tier(AnalysisTier::GateSep)
            .build()
    });
    let (global, global_s) = timed("synth.cost_aware", id, || cost_aware_in(&ctx));
    let (per_gate, per_gate_s) = timed("synth.per_gate", id, || cost_aware_per_gate_in(&ctx));
    CircuitRun {
        global,
        per_gate,
        synth_s: global_s + per_gate_s,
    }
}
