// lint: allow-file(L004): the compiler validates every node/parent id against
// the tape once in `Plan::compile`; the IR types here carry those
// proven-in-bounds ids for the executor's hot path.
//! Plan IR: node bindings and optimizer roles, fused-chain descriptors,
//! the [`PlanOptions`] switchboard and the [`PassReport`] scoreboard.
//!
//! The optimizer never rewrites the node list — it *annotates* it. Every
//! node keeps its traced id, op, parents and shape; passes only change a
//! node's [`Role`], which tells the executor how (or whether) to run it.
//! Keeping ids stable is what lets the backward sweep deposit gradients at
//! exactly the same reverse-topological positions as eager execution, the
//! load-bearing half of the bit-identity contract.

use crate::autograd::{Op, Param};
use crate::error::Result;
use crate::shape::Shape;
use crate::tensor::{stable_sigmoid, Tensor};
use std::fmt;
use std::rc::Rc;

/// Recomputes a derived leaf's value from earlier node values on each
/// replay. Receives the value slots of all nodes *preceding* the leaf
/// (slice index = node id), so a derived leaf may depend on any upstream
/// forward value — e.g. the flow-conservation mask, which eager mode
/// computes out-of-tape from the fused flow estimates.
pub type DerivedFn = Box<dyn Fn(&[Tensor]) -> Result<Tensor>>;

/// A derived leaf's recompute closure plus the node ids it actually reads.
///
/// The optimizer must know which upstream slots a derived closure touches:
/// those nodes are pinned — never erased by fusion, never clobbered by an
/// in-place rewrite — because the closure reads their live values on every
/// replay. Build one with [`LeafBinding::derived`].
pub struct DerivedSpec {
    /// Node ids (all `<` the leaf's id) whose value slots `f` reads.
    pub deps: Vec<usize>,
    /// The recompute closure.
    pub f: DerivedFn,
}

/// How one leaf node gets its value on each replay.
pub enum LeafBinding {
    /// Rebound from `inputs[i]` on every call (training examples, targets).
    Input(usize),
    /// Recomputed from earlier node values on every call.
    Derived(DerivedSpec),
}

impl LeafBinding {
    /// A derived binding that declares its upstream reads. `deps` lists the
    /// node ids `f` indexes into; declaring a superset is safe (it only
    /// pins more nodes), declaring a subset is not — an undeclared read may
    /// observe a slot the optimizer erased or recycled.
    pub fn derived(deps: Vec<usize>, f: impl Fn(&[Tensor]) -> Result<Tensor> + 'static) -> Self {
        LeafBinding::Derived(DerivedSpec {
            deps,
            f: Box::new(f),
        })
    }
}

/// Caller-supplied compilation spec: which leaves rebind, which roots to
/// read back, and where backward seeds.
#[derive(Default)]
pub struct PlanSpec {
    /// `(leaf node id, binding)` for every leaf that changes between
    /// replays. Leaves not listed stay frozen at their traced value
    /// (constants such as `ones`/`eye`).
    pub bindings: Vec<(usize, LeafBinding)>,
    /// Node ids whose values [`super::Plan::outputs`] reads back after a
    /// forward.
    pub roots: Vec<usize>,
    /// Node id [`super::Plan::backward`] seeds (the loss). `None` for
    /// inference-only plans.
    pub loss: Option<usize>,
}

/// Which optimizer passes [`super::Plan::compile_with`] runs. Each pass is
/// individually disableable so the parity suite can prove each one
/// bit-identical in isolation; [`Default`] turns both on. Every matmul runs
/// through the layout-flag GEMM whatever the options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOptions {
    /// Collapse elementwise chains into single-sweep fused ops.
    pub fuse: bool,
    /// Let an op overwrite a dying parent's buffer instead of writing a
    /// fresh one, and accumulate gradients in place.
    pub in_place: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            fuse: true,
            in_place: true,
        }
    }
}

impl PlanOptions {
    /// Every pass disabled — replay runs the op table node by node (and
    /// matmuls through the GEMM).
    pub fn none() -> Self {
        PlanOptions {
            fuse: false,
            in_place: false,
        }
    }

    /// Every pass enabled (the [`Default`]).
    pub fn all() -> Self {
        Self::default()
    }
}

/// What compilation did to one plan: the GEMM routing every matmul gets,
/// and what each optimizer pass rewrote.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassReport {
    /// Matmul nodes run through the layout-flag GEMM (every matmul).
    pub gemm_nodes: usize,
    /// Elementwise chains collapsed into fused sweeps.
    pub fused_chains: usize,
    /// Total nodes absorbed by those chains (each chain runs as one sweep).
    pub fused_ops: usize,
    /// Nodes that overwrite a dying parent's buffer in place.
    pub in_place_nodes: usize,
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gemm={} fused={}ops/{}chains in_place={}",
            self.gemm_nodes, self.fused_ops, self.fused_chains, self.in_place_nodes,
        )
    }
}

/// How one node gets its value on replay (resolved from [`PlanSpec`]).
pub(crate) enum NodeBinding {
    /// Evaluate the op from parent values.
    Compute,
    /// Keep the traced value (constant leaf).
    Constant,
    /// `inputs[i]`.
    Input(usize),
    /// `derived[i]`.
    Derived(usize),
    /// Re-read the parameter cell.
    Param(Rc<Param>),
}

/// How the executor treats one `Compute` node after optimization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// Run the op table's forward/backward (the unoptimized default).
    Eager,
    /// Interior of a fused chain: never evaluated, never swept — the
    /// chain's [`Role::FusedOut`] recomputes it per element.
    Erased,
    /// Head of a fused chain. No forward (the chain's sweep starts from
    /// this node's *parents*); at backward-sweep time the chain gradient
    /// stored in this node's grad slot is released — relayed to the parent
    /// for a unary lead, or pushed through the node's own table backward
    /// for a zip/broadcast lead — so deposits to nodes outside the chain
    /// land at exactly the eager sweep position.
    FusedLead {
        /// True for a unary-map lead: the stored gradient is already
        /// folded through the lead and deposits directly into its parent.
        relay: bool,
    },
    /// Final node of a fused chain (index into `Plan::chains`): one sweep
    /// computes the whole chain forward; backward folds the output
    /// gradient back through the chain per element.
    FusedOut { chain: usize },
    /// Matmul run through the layout-flag GEMM: forward `a·b`, backward
    /// `g·bᵀ` and `aᵀ·g` with the transposes as layout flags.
    Gemm,
}

/// One node of the compiled schedule.
pub(crate) struct PlanNode {
    pub(crate) op: Op,
    pub(crate) parents: Vec<usize>,
    pub(crate) shape: Shape,
    pub(crate) binding: NodeBinding,
    pub(crate) role: Role,
}

/// A unary elementwise op a fused sweep can apply in registers. The `fwd`
/// and `bwd` bodies replicate the corresponding op-table formulas
/// *exactly* — same intrinsics, same comparison directions — because the
/// fused sweep must produce the same bits the op-at-a-time kernels produce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum MapOp {
    Relu,
    Elu,
    Sigmoid,
    Tanh,
    Exp,
    Square,
    Abs,
    Sqrt,
    Neg,
    AddScalar(f32),
    MulScalar(f32),
}

impl MapOp {
    /// The fusable unary ops. Dropout is deliberately absent: its forward
    /// draws from the caller's RNG in node order, so it must stay an eager
    /// node to keep the stream contract.
    pub(crate) fn from_op(op: &Op) -> Option<MapOp> {
        Some(match op {
            Op::Relu => MapOp::Relu,
            Op::Elu => MapOp::Elu,
            Op::Sigmoid => MapOp::Sigmoid,
            Op::Tanh => MapOp::Tanh,
            Op::Exp => MapOp::Exp,
            Op::Square => MapOp::Square,
            Op::Abs => MapOp::Abs,
            Op::Sqrt => MapOp::Sqrt,
            Op::Neg => MapOp::Neg,
            Op::AddScalar(s) => MapOp::AddScalar(*s),
            Op::MulScalar(s) => MapOp::MulScalar(*s),
            _ => return None,
        })
    }

    /// Per-element FLOP weight of this op, matching the tape cost model
    /// (`stgnn-analyze` weights transcendental-heavy ops ×8).
    pub(crate) fn cost_weight(self) -> u64 {
        match self {
            MapOp::Elu | MapOp::Sigmoid | MapOp::Tanh | MapOp::Exp | MapOp::Sqrt => 8,
            _ => 1,
        }
    }

    /// The scalar body of the op's forward kernel.
    #[inline]
    pub(crate) fn fwd(self, x: f32) -> f32 {
        match self {
            MapOp::Relu => x.max(0.0),
            MapOp::Elu => {
                if x > 0.0 {
                    x
                } else {
                    x.exp_m1()
                }
            }
            MapOp::Sigmoid => stable_sigmoid(x),
            MapOp::Tanh => x.tanh(),
            MapOp::Exp => x.exp(),
            MapOp::Square => x * x,
            MapOp::Abs => x.abs(),
            MapOp::Sqrt => x.sqrt(),
            MapOp::Neg => -x,
            MapOp::AddScalar(s) => x + s,
            MapOp::MulScalar(s) => x * s,
        }
    }

    /// The scalar body of the op's table backward: the gradient `g`
    /// arriving at the output, folded to the input, given the input value
    /// `x_in` and output value `x_out` (the fused backward recomputes both,
    /// bit-identical to the slot values eager backward reads).
    #[inline]
    pub(crate) fn bwd(self, g: f32, x_in: f32, x_out: f32) -> f32 {
        match self {
            MapOp::Relu => {
                if x_in > 0.0 {
                    g
                } else {
                    0.0
                }
            }
            MapOp::Elu => {
                if x_out > 0.0 {
                    g
                } else {
                    g * (x_out + 1.0)
                }
            }
            MapOp::Sigmoid => g * x_out * (1.0 - x_out),
            MapOp::Tanh => g * (1.0 - x_out * x_out),
            MapOp::Exp => g * x_out,
            MapOp::Square => g * 2.0 * x_in,
            MapOp::Abs => {
                if x_in == 0.0 {
                    0.0
                } else {
                    g * x_in.signum()
                }
            }
            MapOp::Sqrt => g * 0.5 / x_out.max(1e-8),
            MapOp::Neg => -g,
            MapOp::AddScalar(_) => g,
            MapOp::MulScalar(s) => g * s,
        }
    }
}

/// A binary elementwise op usable as a fused chain's lead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ZipOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ZipOp {
    #[inline]
    pub(crate) fn fwd(self, a: f32, b: f32) -> f32 {
        match self {
            ZipOp::Add => a + b,
            ZipOp::Sub => a - b,
            ZipOp::Mul => a * b,
            ZipOp::Div => a / b,
        }
    }
}

/// The first op of a fused chain — the one that reads values from outside
/// the chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum LeadKind {
    /// Unary lead: the chain gradient relays through it to its parent.
    Map(MapOp),
    /// Binary zip lead over two same-shape operands.
    Zip(ZipOp),
    /// `matrix + row-vector` broadcast lead.
    AddRow,
    /// `matrix + column-vector` broadcast lead.
    AddCol,
    /// `matrix × column-vector` broadcast lead.
    MulCol,
}

/// Maximum unary stages after the lead: chain intermediates live in a
/// fixed-size stack array during the per-element backward recompute.
pub(crate) const MAX_STAGES: usize = 6;

/// One fused elementwise chain: `lead` feeds `stages` unary maps, the last
/// of which is node `out` — the only member whose value slot is written.
pub(crate) struct FusedChain {
    /// Node id of the lead (role [`Role::FusedLead`]).
    pub(crate) lead: usize,
    /// Node id of the final stage (role [`Role::FusedOut`]).
    pub(crate) out: usize,
    pub(crate) kind: LeadKind,
    /// Value ids the sweep reads: the lead's parents (second is `None` for
    /// unary leads).
    pub(crate) src: (usize, Option<usize>),
    /// The unary ops after the lead, in execution order (never empty).
    pub(crate) stages: Vec<MapOp>,
}

impl FusedChain {
    /// Nodes collapsed into this chain's single sweep.
    pub(crate) fn members(&self) -> usize {
        1 + self.stages.len()
    }
}

/// Structural summary of one compiled node, for external validators.
#[derive(Clone, Debug)]
pub struct PlanNodeSummary {
    /// The traced op's name (`Op::name`).
    pub op: &'static str,
    /// How the optimizer classified the node.
    pub kind: PlanOpKind,
    /// The value ids the node actually reads on replay (for a fused-out
    /// node, its chain lead's operands).
    pub parents: Vec<usize>,
    /// The node's traced output shape.
    pub shape: Shape,
    /// For a fused-out node: the whole chain's per-element FLOP weight
    /// (lead + every stage, transcendental stages ×8). Zero elsewhere.
    pub fused_cost_per_elem: u64,
}

/// The executor-visible classification of a node — [`Role`] plus binding,
/// flattened for consumers outside this crate (`stgnn-analyze`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanOpKind {
    /// Computed with the op table's formulas.
    Eager,
    /// Constant leaf (frozen traced value).
    Constant,
    /// Rebound input leaf.
    Input,
    /// Recomputed derived leaf.
    Derived,
    /// Parameter read.
    Param,
    /// Erased interior of a fused chain.
    Erased,
    /// Head of a fused chain.
    FusedLead,
    /// Final node of a fused chain.
    FusedOut {
        /// Unary stages folded into the sweep (excluding the lead).
        stages: usize,
    },
    /// Matmul run through the layout-flag GEMM.
    Gemm,
}

/// Structural summary of a compiled plan for external validation and FLOP
/// accounting, produced by [`super::Plan::summary`].
#[derive(Clone, Debug)]
pub struct PlanSummary {
    pub nodes: Vec<PlanNodeSummary>,
    /// What each pass did.
    pub report: PassReport,
    /// The options the plan was compiled with.
    pub options: PlanOptions,
}
