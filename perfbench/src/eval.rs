//! A small packed gate evaluator the benchmark carries itself, so its
//! output checks do not run through the simulation engines they check.
//!
//! It reads only the netlist's structure (node kinds and fan-in lists),
//! orders the combinational logic with its own Kahn pass, and computes
//! each gate function on 64 patterns at a time. D flip-flops output the
//! present state during a frame and capture their D pin's value for the
//! next one; every sequence starts from the all-zero state.

use iddq_netlist::{CellKind, Netlist, NodeId, NodeKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Buf,
    Not,
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
}

/// Evaluation plan of one netlist.
#[derive(Debug, Clone)]
pub struct Evaluator {
    nodes: usize,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    /// `(dff output, node on its D pin)` in the netlist's state-element order.
    dffs: Vec<(usize, usize)>,
    /// Gates in evaluation order.
    steps: Vec<(usize, Op, Vec<usize>)>,
}

/// A node forced to a constant (stuck-at fault injection).
pub type Force = Option<(usize, bool)>;

impl Evaluator {
    /// Builds the plan.
    ///
    /// # Panics
    ///
    /// Panics if the combinational logic has a cycle.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let n = netlist.node_count();
        let mut op = vec![None; n];
        for id in netlist.node_ids() {
            let node = netlist.node(id);
            match node.kind() {
                NodeKind::Input | NodeKind::Gate(CellKind::Dff) => {}
                NodeKind::Gate(kind) => {
                    op[id.index()] = Some(match kind {
                        CellKind::Buf => Op::Buf,
                        CellKind::Not => Op::Not,
                        CellKind::And => Op::And,
                        CellKind::Nand => Op::Nand,
                        CellKind::Or => Op::Or,
                        CellKind::Nor => Op::Nor,
                        CellKind::Xor => Op::Xor,
                        CellKind::Xnor => Op::Xnor,
                        CellKind::Dff => unreachable!("state elements are matched above"),
                    });
                }
            }
        }
        let dffs = netlist
            .state_elements()
            .iter()
            .map(|&q| (q.index(), netlist.node(q).fanin()[0].index()))
            .collect();
        // Kahn over combinational edges: a gate is ready once every fan-in
        // is an input, a DFF output or an evaluated gate.
        let mut pending = vec![0usize; n];
        let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, o) in netlist.node_ids().zip(&op) {
            if o.is_some() {
                let fanin = netlist.node(id).fanin();
                pending[id.index()] = fanin.len();
                for f in fanin {
                    fanout[f.index()].push(id.index());
                }
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| op[i].is_none()).collect();
        let mut steps = Vec::new();
        while let Some(i) = ready.pop() {
            if let Some(o) = op[i] {
                let fanin = netlist
                    .node(NodeId(i as u32))
                    .fanin()
                    .iter()
                    .map(|f| f.index())
                    .collect();
                steps.push((i, o, fanin));
            }
            for &g in &fanout[i] {
                pending[g] -= 1;
                if pending[g] == 0 {
                    ready.push(g);
                }
            }
        }
        assert_eq!(
            steps.len(),
            op.iter().filter(|o| o.is_some()).count(),
            "combinational cycle"
        );
        Evaluator {
            nodes: n,
            inputs: netlist.inputs().iter().map(|i| i.index()).collect(),
            outputs: netlist.outputs().iter().map(|o| o.index()).collect(),
            dffs,
            steps,
        }
    }

    /// Node count (length of a value buffer).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Primary-input count.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Primary-output node indices.
    #[must_use]
    pub fn outputs(&self) -> &[usize] {
        &self.outputs
    }

    /// Evaluates one frame: `inputs` one word per primary input, `state`
    /// one word per DFF (updated to the next state), `values` one word
    /// per node.
    pub fn step(&self, inputs: &[u64], state: &mut [u64], force: Force, values: &mut [u64]) {
        let forced = |i: usize, v: u64| match force {
            Some((f, one)) if f == i => {
                if one {
                    !0
                } else {
                    0
                }
            }
            _ => v,
        };
        for (&i, &w) in self.inputs.iter().zip(inputs) {
            values[i] = forced(i, w);
        }
        for (&(q, _), &s) in self.dffs.iter().zip(state.iter()) {
            values[q] = forced(q, s);
        }
        for (g, op, fanin) in &self.steps {
            let mut it = fanin.iter().map(|&f| values[f]);
            let first = it.next().unwrap_or(0);
            let v = match op {
                Op::Buf => first,
                Op::Not => !first,
                Op::And => it.fold(first, |a, b| a & b),
                Op::Nand => !it.fold(first, |a, b| a & b),
                Op::Or => it.fold(first, |a, b| a | b),
                Op::Nor => !it.fold(first, |a, b| a | b),
                Op::Xor => it.fold(first, |a, b| a ^ b),
                Op::Xnor => !it.fold(first, |a, b| a ^ b),
            };
            values[*g] = forced(*g, v);
        }
        for (slot, &(_, d)) in state.iter_mut().zip(&self.dffs) {
            *slot = values[d];
        }
    }

    /// DFF count.
    #[must_use]
    pub fn num_state(&self) -> usize {
        self.dffs.len()
    }
}

/// Packs up to 64 boolean vectors into one word per primary input.
#[must_use]
pub fn pack(vectors: &[&[bool]], inputs: usize) -> Vec<u64> {
    let mut words = vec![0u64; inputs];
    for (lane, v) in vectors.iter().enumerate() {
        for (w, &b) in words.iter_mut().zip(v.iter()) {
            *w |= u64::from(b) << lane;
        }
    }
    words
}

/// Frame `t` of sequences `seq0..seq0+64` from a sequence-major vector
/// list (`frames` consecutive vectors per sequence), packed one lane per
/// sequence. Returns the words and the number of live lanes.
#[must_use]
pub fn pack_frame(
    vectors: &[Vec<bool>],
    frames: usize,
    seq0: usize,
    t: usize,
    inputs: usize,
) -> (Vec<u64>, usize) {
    let sequences = vectors.len().div_ceil(frames);
    let lanes = sequences.saturating_sub(seq0).min(64);
    let picked: Vec<&[bool]> = (0..lanes)
        .filter_map(|k| vectors.get((seq0 + k) * frames + t).map(Vec::as_slice))
        .collect();
    (pack(&picked, inputs), picked.len())
}
