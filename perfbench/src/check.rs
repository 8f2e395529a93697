//! Output checks. The independent ones recompute results with the
//! benchmark's own [`Evaluator`]; the property checks test rules the
//! paper's method must satisfy. Each returns `Err` with a description of
//! the first violation.

use iddq_core::flow::SynthesisReport;
use iddq_core::Partition;
use iddq_logicsim::faults::IddqFault;
use iddq_netlist::Netlist;

use crate::eval::{pack_frame, Evaluator};
use crate::util::Rng;

/// Module index of nodes outside every module (primary inputs).
const NO_MODULE: u32 = u32::MAX;

/// Earliest detecting vector of stuck-at `node`/`one` over a
/// sequence-major vector list (`frames` vectors per sequence, each from
/// the all-zero state): the first vector index whose primary outputs
/// differ from the good machine's.
#[must_use]
pub fn stuck_at_first_detection(
    ev: &Evaluator,
    vectors: &[Vec<bool>],
    frames: usize,
    node: usize,
    one: bool,
) -> Option<usize> {
    let sequences = vectors.len().div_ceil(frames);
    let mut good = vec![0u64; ev.nodes()];
    let mut bad = vec![0u64; ev.nodes()];
    for seq0 in (0..sequences).step_by(64) {
        let mut gs = vec![0u64; ev.num_state()];
        let mut bs = vec![0u64; ev.num_state()];
        let mut best: Option<usize> = None;
        for t in 0..frames {
            let (words, lanes) = pack_frame(vectors, frames, seq0, t, ev.num_inputs());
            if lanes == 0 {
                break;
            }
            ev.step(&words, &mut gs, None, &mut good);
            ev.step(&words, &mut bs, Some((node, one)), &mut bad);
            let live = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
            let diff = ev
                .outputs()
                .iter()
                .fold(0u64, |d, &o| d | (good[o] ^ bad[o]))
                & live;
            if diff != 0 {
                let idx = (seq0 + diff.trailing_zeros() as usize) * frames + t;
                best = Some(best.map_or(idx, |b| b.min(idx)));
            }
        }
        if best.is_some() {
            return best;
        }
    }
    None
}

/// Checks a seeded sample of `samples` stuck-at first detections against
/// [`stuck_at_first_detection`]. `faults[k]` is `(node, stuck_at_one)`,
/// `reported[k]` the program's earliest detection for it.
///
/// # Errors
///
/// The first sampled fault whose detection differs.
pub fn stuck_at_sample(
    netlist: &Netlist,
    vectors: &[Vec<bool>],
    frames: usize,
    faults: &[(usize, bool)],
    reported: &[Option<usize>],
    samples: usize,
    seed: u64,
) -> Result<(), String> {
    let ev = Evaluator::new(netlist);
    let mut rng = Rng::new(seed ^ 0x5a5a);
    for _ in 0..samples.min(faults.len()) {
        let k = rng.below(faults.len());
        let (node, one) = faults[k];
        let mine = stuck_at_first_detection(&ev, vectors, frames, node, one);
        if mine != reported[k] {
            return Err(format!(
                "{}: stuck-at-{} on node {node}: program says first detection {:?}, recomputed {:?}",
                netlist.name(),
                u8::from(one),
                reported[k],
                mine
            ));
        }
    }
    Ok(())
}

/// Recomputes every IDDQ defect's first detection: the first vector whose
/// fault-free values activate the defect (opposite values across a
/// bridge, a gate-oxide short's pin against its gate output, a stuck-on
/// gate's high output) while a site module's sensor sees it — the module
/// leaks below the threshold and leakage plus defect current reaches it.
///
/// # Errors
///
/// The first defect whose detection differs from `reported`.
#[allow(clippy::too_many_arguments)]
pub fn iddq_detections(
    netlist: &Netlist,
    defects: &[IddqFault],
    vectors: &[Vec<bool>],
    frames: usize,
    module_of: &[u32],
    leakage_ua: &[f64],
    threshold_ua: f64,
    reported: &[Option<usize>],
) -> Result<(), String> {
    let ev = Evaluator::new(netlist);
    let seen_by = |node: usize, current: f64| {
        let m = module_of[node];
        if m == NO_MODULE {
            return false;
        }
        let leak = leakage_ua[m as usize];
        leak < threshold_ua && leak + current >= threshold_ua
    };
    // Activation as a pair of node values that must differ, or one node
    // that must be high.
    let plan: Vec<(bool, usize, Option<usize>)> = defects
        .iter()
        .map(|d| match *d {
            IddqFault::Bridge { a, b, current_ua } => (
                seen_by(a.index(), current_ua) || seen_by(b.index(), current_ua),
                a.index(),
                Some(b.index()),
            ),
            IddqFault::GateOxideShort {
                gate,
                pin,
                current_ua,
            } => (
                seen_by(gate.index(), current_ua),
                netlist.node(gate).fanin()[pin].index(),
                Some(gate.index()),
            ),
            IddqFault::StuckOn { gate, current_ua } => {
                (seen_by(gate.index(), current_ua), gate.index(), None)
            }
        })
        .collect();
    let mut first: Vec<Option<usize>> = vec![None; defects.len()];
    let sequences = vectors.len().div_ceil(frames);
    let mut values = vec![0u64; ev.nodes()];
    for seq0 in (0..sequences).step_by(64) {
        let mut state = vec![0u64; ev.num_state()];
        for t in 0..frames {
            let (words, lanes) = pack_frame(vectors, frames, seq0, t, ev.num_inputs());
            if lanes == 0 {
                break;
            }
            ev.step(&words, &mut state, None, &mut values);
            let live = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
            for (slot, &(seen, x, y)) in first.iter_mut().zip(&plan) {
                if !seen {
                    continue;
                }
                let act = match y {
                    Some(y) => values[x] ^ values[y],
                    None => values[x],
                } & live;
                if act != 0 {
                    let idx = (seq0 + act.trailing_zeros() as usize) * frames + t;
                    *slot = Some(slot.map_or(idx, |s| s.min(idx)));
                }
            }
        }
    }
    for (k, (mine, theirs)) in first.iter().zip(reported).enumerate() {
        if mine != theirs {
            return Err(format!(
                "{}: IDDQ defect {k} ({:?}): program says first detection {theirs:?}, recomputed {mine:?}",
                netlist.name(),
                defects[k]
            ));
        }
    }
    Ok(())
}

/// Checks that two netlists compute the same primary outputs on
/// `patterns` seeded random patterns (rounded up to 64).
///
/// # Errors
///
/// The first pattern batch and output on which they differ.
pub fn equivalent(a: &Netlist, b: &Netlist, patterns: usize, seed: u64) -> Result<(), String> {
    if a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs() {
        return Err(format!(
            "{}: interface changed ({} -> {} inputs, {} -> {} outputs)",
            a.name(),
            a.num_inputs(),
            b.num_inputs(),
            a.num_outputs(),
            b.num_outputs()
        ));
    }
    let (ea, eb) = (Evaluator::new(a), Evaluator::new(b));
    let mut rng = Rng::new(seed ^ 0xe9);
    let (mut va, mut vb) = (vec![0u64; ea.nodes()], vec![0u64; eb.nodes()]);
    let (mut sa, mut sb) = (vec![0u64; ea.num_state()], vec![0u64; eb.num_state()]);
    for batch in 0..patterns.div_ceil(64) {
        let words: Vec<u64> = (0..a.num_inputs()).map(|_| rng.next_u64()).collect();
        ea.step(&words, &mut sa, None, &mut va);
        eb.step(&words, &mut sb, None, &mut vb);
        for (k, (&oa, &ob)) in ea.outputs().iter().zip(eb.outputs()).enumerate() {
            if va[oa] != vb[ob] {
                return Err(format!(
                    "{}: output {k} differs after resynthesis in pattern batch {batch}",
                    a.name()
                ));
            }
        }
    }
    Ok(())
}

/// Recomputes the checksum a served `sim` request reports on a
/// combinational netlist: `patterns` packed 64 at a time from a SplitMix
/// stream seeded with `seed`, folding every node value into the sum.
#[must_use]
pub fn sim_checksum(netlist: &Netlist, patterns: u64, seed: u64) -> String {
    let ev = Evaluator::new(netlist);
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    };
    let mut values = vec![0u64; ev.nodes()];
    let mut checksum = 0u64;
    for _ in 0..patterns.div_ceil(64) {
        let words: Vec<u64> = (0..ev.num_inputs()).map(|_| next()).collect();
        ev.step(&words, &mut [], None, &mut values);
        for v in &values {
            checksum = checksum.rotate_left(1) ^ v;
        }
    }
    format!("{checksum:#018x}")
}

/// Every gate sits in exactly one module, and the node → module map
/// agrees with the module lists.
///
/// # Errors
///
/// The first gate that is missing, duplicated or mis-mapped.
pub fn covers_each_gate_once(netlist: &Netlist, p: &Partition) -> Result<(), String> {
    let mut seen = vec![0u32; netlist.node_count()];
    for (m, module) in p.modules().iter().enumerate() {
        for g in module {
            seen[g.index()] += 1;
            if p.assignment()[g.index()] != m as u32 {
                return Err(format!(
                    "{}: gate {} listed in module {m} but mapped to {}",
                    netlist.name(),
                    g.index(),
                    p.assignment()[g.index()]
                ));
            }
        }
    }
    for id in netlist.node_ids() {
        let expect = u32::from(netlist.is_gate(id));
        if seen[id.index()] != expect {
            return Err(format!(
                "{}: node {} appears in {} modules, expected {expect}",
                netlist.name(),
                id.index(),
                seen[id.index()]
            ));
        }
    }
    Ok(())
}

/// A feasible report has `d ≥ d_min` in every module, and every sized
/// sensor has `R_s ≤ r*/î_max`.
///
/// # Errors
///
/// The first module that breaks either rule.
pub fn sensor_rules(report: &SynthesisReport, d_min: f64, r_star_mv: f64) -> Result<(), String> {
    for m in &report.modules {
        if report.feasible && m.discriminability < d_min {
            return Err(format!(
                "{}: feasible partition but module {} has d = {} < d_min = {d_min}",
                report.circuit, m.index, m.discriminability
            ));
        }
        if let Some(rs) = m.rs_ohm {
            // r*[mV] / î[µA] in Ω is r* · 1000 / î.
            let limit = r_star_mv * 1000.0 / m.peak_current_ua;
            if rs > limit * (1.0 + 1e-12) {
                return Err(format!(
                    "{}: module {} sensor R_s = {rs} Ω exceeds r*/î_max = {limit} Ω",
                    report.circuit, m.index
                ));
            }
        }
    }
    Ok(())
}
