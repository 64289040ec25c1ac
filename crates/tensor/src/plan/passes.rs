// lint: allow-file(L004): passes walk node/parent ids already validated
// against the tape by `Plan::compile`; indexing with them cannot miss.
//! The in-place optimizer pass and the liveness helpers it shares with
//! chain fusion ([`super::fuse`]).
//!
//! Every pass only *annotates* roles — node ids, parents and the sweep
//! order never change, which is what keeps gradient deposits at the eager
//! sweep positions. Each pass's legality condition is documented on the
//! pass and mirrored in `DESIGN.md` §12.

use super::ir::{MapOp, NodeBinding, Role};
use super::Plan;
use crate::autograd::Op;

/// Which nodes' value slots must stay live and untouched: spec roots, the
/// loss, and every declared dependency of a derived-leaf closure. Pinned
/// nodes are never erased by fusion, never stolen by an in-place rewrite.
pub(crate) fn pinned(plan: &Plan) -> Vec<bool> {
    let mut pinned = vec![false; plan.nodes.len()];
    for &r in plan.roots.iter().chain(plan.loss.iter()) {
        pinned[r] = true;
    }
    for &d in &plan.derived_deps {
        pinned[d] = true;
    }
    pinned
}

/// Who reads each node's value slot on replay, under the current roles:
/// one entry per (consumer node, parent slot) occurrence. Fused chains read
/// their lead's parents from the chain's out node; erased and lead nodes
/// read nothing (their compute is absorbed). Derived leaves read their
/// declared deps.
pub(crate) fn value_readers(plan: &Plan) -> Vec<Vec<usize>> {
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); plan.nodes.len()];
    for (id, node) in plan.nodes.iter().enumerate() {
        match &node.binding {
            NodeBinding::Derived(_) => {
                // Conservative: the closure may read any declared dep on
                // every replay.
                for &d in &plan.derived_deps {
                    readers[d].push(id);
                }
                continue;
            }
            NodeBinding::Compute => {}
            _ => continue,
        }
        match node.role {
            Role::Eager | Role::Gemm => {
                for &p in &node.parents {
                    readers[p].push(id);
                }
            }
            Role::FusedOut { chain } => {
                let src = plan.chains[chain].src;
                readers[src.0].push(id);
                if let Some(b) = src.1 {
                    readers[b].push(id);
                }
            }
            Role::Erased | Role::FusedLead { .. } => {}
        }
    }
    readers
}

/// Parent slots an op may overwrite in place, given whether the plan
/// trains (runs backward). The stolen slot's value is consumed by this
/// op's forward and must not be read by its backward: in a training plan
/// only ops whose table backward reads no operand qualify. Inference plans
/// never run backward, so any op with an elementwise in-place kernel
/// qualifies.
fn in_place_slots(op: &Op, training: bool) -> &'static [usize] {
    if training && op.backward_reads_operands() {
        return &[];
    }
    match op {
        Op::Add | Op::Sub | Op::Mul | Op::Div => &[0, 1],
        Op::AddRowBroadcast | Op::AddColBroadcast | Op::MulColBroadcast => &[0],
        _ if MapOp::from_op(op).is_some() => &[0],
        _ => &[],
    }
}

/// Whether a node's *own* backward can still run after its value slot was
/// handed to a consumer (the slot then holds the shared placeholder):
/// true when its backward never reads its output. GEMM nodes never do;
/// fused-out nodes do — their backward reads the stored out value as the
/// final stage's output instead of recomputing the whole chain
/// (recomputing a transcendental stage costs far more than keeping one
/// buffer live).
fn backward_survives_steal(plan: &Plan, q: usize) -> bool {
    match plan.nodes[q].role {
        Role::Gemm => true,
        Role::Eager => !plan.nodes[q].op.backward_reads_output(),
        _ => false,
    }
}

/// In-place rewrites: a node whose parent's value dies at this op (single
/// reader, unpinned, recomputed every forward) steals that parent's buffer
/// and overwrites it instead of cycling a fresh one through the pool —
/// one less stream of memory traffic per op.
///
/// Bit-identity: the in-place kernels apply the identical scalar formula
/// per element (`out[i] = a[i] ⊕ b[i]` becomes `a[i] = a[i] ⊕ b[i]`); no
/// accumulation order changes.
///
/// Legality: the stolen parent `q` is compute-bound, recomputed each
/// forward ([`Role::Eager`] / [`Role::FusedOut`] / [`Role::Gemm`]),
/// unpinned, read by this node alone (exactly once), same shape as the
/// output, its own backward survives the steal
/// ([`backward_survives_steal`]), its buffer is not shared (`Reshape`
/// aliases its parent's storage, so reshapes are excluded as `q`), and
/// this op's backward never reads the stolen value ([`in_place_slots`]).
pub(crate) fn mark_in_place(plan: &mut Plan) -> usize {
    let readers = value_readers(plan);
    let pinned = pinned(plan);
    let training = plan.loss.is_some();
    let mut marked = 0;
    for id in 0..plan.nodes.len() {
        let node = &plan.nodes[id];
        if !matches!(node.binding, NodeBinding::Compute) || node.role != Role::Eager {
            continue;
        }
        for &slot in in_place_slots(&node.op, training) {
            let q = node.parents[slot];
            let qn = &plan.nodes[q];
            let q_recomputed = matches!(qn.binding, NodeBinding::Compute)
                && matches!(qn.role, Role::Eager | Role::FusedOut { .. } | Role::Gemm);
            if q_recomputed
                && !matches!(
                    qn.op,
                    Op::Reshape(_) | Op::SliceRows { .. } | Op::Dropout { .. }
                )
                && !pinned[q]
                && readers[q].len() == 1
                && qn.shape == node.shape
                && (!training || backward_survives_steal(plan, q))
            {
                plan.in_place[id] = Some(slot);
                marked += 1;
                break;
            }
        }
    }
    marked
}
