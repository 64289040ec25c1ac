// lint: allow-file(L004): replay indexes the per-node slot vectors with
// node/parent ids proven in bounds by `Plan::compile`; the fused sweeps
// index flat buffers whose lengths were validated against the traced
// shapes.
//! Plan execution: the forward/backward sweeps over [`PlanExec`] slots.
//! Every node runs the shared op table ([`Op::forward`] / [`Op::backward`])
//! except the three kernels the optimizer picks: fused-chain sweeps,
//! in-place buffer steals, and the layout-flag GEMM every matmul runs
//! through.

use super::ir::{FusedChain, LeadKind, MapOp, NodeBinding, Role, ZipOp, MAX_STAGES};
use super::Plan;
use crate::autograd::{Op, Saved};
use crate::error::{Error, Result};
use crate::op::with_operands;
use crate::par;
use crate::pool::Buffer;
use crate::tensor::{Tensor, PAR_GRAIN_OPS};

/// Per-replay state of a [`Plan`]: one value slot, gradient slot and
/// [`Saved`] slot (dropout mask, max-pool argmax) per node. Slots are
/// overwritten in place on every replay; their buffers recycle through the
/// [`crate::pool`] or are refilled where they stand.
pub struct PlanExec {
    pub(crate) values: Vec<Tensor>,
    pub(crate) grads: Vec<Option<Tensor>>,
    pub(crate) saved: Vec<Saved>,
}

impl PlanExec {
    /// The forward value of node `id` from the latest replay.
    ///
    /// Under the optimizer, not every slot holds a live value: erased and
    /// fused-lead nodes keep their stale traced value, and a slot whose
    /// buffer an in-place rewrite stole holds a scalar placeholder. Spec
    /// roots, the loss and declared derived deps are always live.
    pub fn value(&self, id: usize) -> Option<&Tensor> {
        self.values.get(id)
    }

    /// The gradient of node `id` from the latest backward, if it was
    /// reached.
    pub fn grad(&self, id: usize) -> Option<&Tensor> {
        self.grads.get(id).and_then(Option::as_ref)
    }
}

/// Elementwise-sweep chunk length: 256 f32 = 1KB, so a live chunk plus the
/// backward's recomputed stage values ([`MAX_STAGES`]+1 stack buffers) stay
/// resident in L1 across the per-stage sweeps.
const FUSE_CHUNK: usize = 256;

/// Applies `m.fwd` to every element of `buf` in place, with the op match
/// hoisted out of the element loop: each arm closes over a constant
/// variant, so the dispatch folds away and LLVM vectorizes the sweep.
/// (Dispatching `MapOp::fwd` per element measured as a net fusion
/// *slowdown* — the branch in the inner loop defeats the autovectorizer.)
/// Per-element results are exactly `m.fwd(x)`.
#[inline]
fn sweep_fwd(m: MapOp, buf: &mut [f32]) {
    #[inline(always)]
    fn each(buf: &mut [f32], f: impl Fn(f32) -> f32) {
        for o in buf.iter_mut() {
            *o = f(*o);
        }
    }
    use MapOp::*;
    match m {
        Relu => each(buf, |x| Relu.fwd(x)),
        Elu => each(buf, |x| Elu.fwd(x)),
        Sigmoid => each(buf, |x| Sigmoid.fwd(x)),
        Tanh => each(buf, |x| Tanh.fwd(x)),
        Exp => each(buf, |x| Exp.fwd(x)),
        Square => each(buf, |x| Square.fwd(x)),
        Abs => each(buf, |x| Abs.fwd(x)),
        Sqrt => each(buf, |x| Sqrt.fwd(x)),
        Neg => each(buf, |x| Neg.fwd(x)),
        AddScalar(s) => each(buf, |x| AddScalar(s).fwd(x)),
        MulScalar(s) => each(buf, |x| MulScalar(s).fwd(x)),
    }
}

/// Folds the gradient sweep `g` in place through one stage: per element,
/// `g[i] = m.bwd(g[i], x_in[i], x_out[i])`, dispatch hoisted as in
/// [`sweep_fwd`].
#[inline]
fn sweep_bwd(m: MapOp, g: &mut [f32], x_in: &[f32], x_out: &[f32]) {
    #[inline(always)]
    fn each(g: &mut [f32], x_in: &[f32], x_out: &[f32], f: impl Fn(f32, f32, f32) -> f32) {
        for ((gv, &xi), &xo) in g.iter_mut().zip(x_in).zip(x_out) {
            *gv = f(*gv, xi, xo);
        }
    }
    use MapOp::*;
    match m {
        Relu => each(g, x_in, x_out, |gv, xi, xo| Relu.bwd(gv, xi, xo)),
        Elu => each(g, x_in, x_out, |gv, xi, xo| Elu.bwd(gv, xi, xo)),
        Sigmoid => each(g, x_in, x_out, |gv, xi, xo| Sigmoid.bwd(gv, xi, xo)),
        Tanh => each(g, x_in, x_out, |gv, xi, xo| Tanh.bwd(gv, xi, xo)),
        Exp => each(g, x_in, x_out, |gv, xi, xo| Exp.bwd(gv, xi, xo)),
        Square => each(g, x_in, x_out, |gv, xi, xo| Square.bwd(gv, xi, xo)),
        Abs => each(g, x_in, x_out, |gv, xi, xo| Abs.bwd(gv, xi, xo)),
        Sqrt => each(g, x_in, x_out, |gv, xi, xo| Sqrt.bwd(gv, xi, xo)),
        Neg => each(g, x_in, x_out, |gv, xi, xo| Neg.bwd(gv, xi, xo)),
        AddScalar(s) => each(g, x_in, x_out, |gv, xi, xo| AddScalar(s).bwd(gv, xi, xo)),
        MulScalar(s) => each(g, x_in, x_out, |gv, xi, xo| MulScalar(s).bwd(gv, xi, xo)),
    }
}

/// The zip-lead forward over a chunk: `out[i] = z.fwd(a[i], b[i])`,
/// dispatch hoisted.
#[inline]
fn sweep_zip(z: ZipOp, out: &mut [f32], a: &[f32], b: &[f32]) {
    #[inline(always)]
    fn each(out: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = f(x, y);
        }
    }
    use ZipOp::*;
    match z {
        Add => each(out, a, b, |x, y| Add.fwd(x, y)),
        Sub => each(out, a, b, |x, y| Sub.fwd(x, y)),
        Mul => each(out, a, b, |x, y| Mul.fwd(x, y)),
        Div => each(out, a, b, |x, y| Div.fwd(x, y)),
    }
}

/// Recomputes a chain's *intermediate* stage values from the lead-output
/// chunk `vals[0][..l]` and folds the chunk gradient `g` down through the
/// stages in place — the chunked form of the per-element stage fold. The
/// final stage's output is not recomputed: `out` is the chain-out node's
/// stored forward value, which the fused forward produced with the
/// identical scalar composition, so reading it is bit-identical to
/// recomputing it (and skips re-running the chain's most expensive stage —
/// typically the transcendental the chain was built around). Per element
/// this runs the same scalar `fwd`/`bwd` compositions in the same order
/// (elements are independent, so sweeping stage-by-stage instead of
/// element-by-element reorders nothing), leaving `g[i]` the gradient at
/// the lead's output.
#[inline]
fn fold_stages_chunk(
    stages: &[MapOp],
    vals: &mut [[f32; FUSE_CHUNK]; MAX_STAGES + 1],
    l: usize,
    g: &mut [f32],
    out: &[f32],
) {
    let n = stages.len();
    for k in 0..n.saturating_sub(1) {
        let (lo, hi) = vals.split_at_mut(k + 1);
        hi[0][..l].copy_from_slice(&lo[k][..l]);
        sweep_fwd(stages[k], &mut hi[0][..l]);
    }
    for k in (0..n).rev() {
        let x_out = if k + 1 == n { out } else { &vals[k + 1][..l] };
        sweep_bwd(stages[k], g, &vals[k][..l], x_out);
    }
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor, in_place: bool) -> Result<()> {
    match slot {
        Some(cur) => {
            if in_place {
                // `cur[i] += g[i]` — the same per-element sums `cur.add(&g)`
                // would produce, into the existing buffer (COW protects the
                // rare shared case).
                cur.add_assign(&g)?;
            } else {
                *cur = cur.add(&g)?;
            }
        }
        None => *slot = Some(g),
    }
    Ok(())
}

impl Plan {
    /// Allocates the per-replay state for this plan. Slots start at the
    /// traced values (cheap COW clones); the first few replays warm the
    /// buffer pool, after which replay performs zero pool misses.
    pub fn executor(&self) -> PlanExec {
        PlanExec {
            values: self.init_values.clone(),
            grads: vec![None; self.nodes.len()],
            saved: (0..self.nodes.len()).map(|_| Saved::Empty).collect(),
        }
    }

    /// Replays the forward pass over `exec`'s slots. Fails if the tape has
    /// dropout nodes — those need [`Plan::forward_with_rng`].
    pub fn forward(&self, exec: &mut PlanExec, inputs: &[Tensor]) -> Result<()> {
        if self.has_dropout {
            return Err(Error::InvalidArgument(
                "tape has dropout nodes; use forward_with_rng".into(),
            ));
        }
        self.forward_impl(exec, inputs, &mut || 0.0)
    }

    /// Replays the forward pass, resampling dropout masks from `rng` in
    /// node order — the same draw order eager tracing uses, so the RNG
    /// stream advances exactly as an eager step would advance it.
    pub fn forward_with_rng(
        &self,
        exec: &mut PlanExec,
        inputs: &[Tensor],
        rng: &mut impl rand::Rng,
    ) -> Result<()> {
        self.forward_impl(exec, inputs, &mut || rng.gen::<f32>())
    }

    fn forward_impl(
        &self,
        exec: &mut PlanExec,
        inputs: &[Tensor],
        draw: &mut dyn FnMut() -> f32,
    ) -> Result<()> {
        // An injected replay fault surfaces as a plan error, which is the
        // signal the trainer and serve paths fall back to eager on.
        stgnn_faults::failpoint!("plan::replay", io);
        if inputs.len() != self.num_inputs {
            return Err(Error::InvalidArgument(format!(
                "plan expects {} inputs, got {}",
                self.num_inputs,
                inputs.len()
            )));
        }
        // Free last step's gradients first so their buffers are back in the
        // pool before this step's takes begin.
        for g in &mut exec.grads {
            *g = None;
        }
        for id in 0..self.nodes.len() {
            let node = &self.nodes[id];
            let v = match &node.binding {
                NodeBinding::Constant => continue,
                NodeBinding::Input(i) => {
                    let t = &inputs[*i];
                    if t.shape() != &node.shape {
                        return Err(Error::InvalidArgument(format!(
                            "input {i} has shape {}, but the tape was traced with {}",
                            t.shape(),
                            node.shape
                        )));
                    }
                    t.clone()
                }
                NodeBinding::Derived(k) => {
                    let t = self.derived[*k](&exec.values[..id])?;
                    if t.shape() != &node.shape {
                        return Err(Error::InvalidArgument(format!(
                            "derived leaf {id} produced shape {}, traced as {}",
                            t.shape(),
                            node.shape
                        )));
                    }
                    t
                }
                NodeBinding::Param(p) => p.value(),
                NodeBinding::Compute => match node.role {
                    // Erased/lead nodes are absorbed by their chain's sweep.
                    Role::Erased | Role::FusedLead { .. } => continue,
                    Role::FusedOut { chain } => self.eval_fused(id, chain, exec)?,
                    Role::Gemm => exec.values[node.parents[0]].matmul_layout(
                        &exec.values[node.parents[1]],
                        false,
                        false,
                    )?,
                    Role::Eager if self.in_place[id].is_some() => self.eval_in_place(id, exec)?,
                    Role::Eager => {
                        let PlanExec { values, saved, .. } = &mut *exec;
                        with_operands(
                            &node.parents,
                            |p| &values[p],
                            |inputs| node.op.forward(inputs, &mut saved[id], draw),
                        )?
                    }
                },
            };
            exec.values[id] = v;
        }
        Ok(())
    }

    /// The values of the spec's root nodes after a forward.
    pub fn outputs(&self, exec: &PlanExec) -> Vec<Tensor> {
        self.roots.iter().map(|&r| exec.values[r].clone()).collect()
    }

    /// The loss node's scalar value after a forward.
    pub fn loss_value(&self, exec: &PlanExec) -> Result<f32> {
        let id = self
            .loss
            .ok_or_else(|| Error::InvalidArgument("plan has no loss node".into()))?;
        Ok(exec.values[id].scalar())
    }

    /// Replays the backward sweep from the loss node, seeding its gradient
    /// with `seed_scale` — bit-identical to eager `mul_scalar(seed_scale)
    /// .backward()`, whose `ones` seed times the scale is exactly a
    /// `full(seed_scale)` gradient at the loss. Accumulated parameter
    /// gradients are deposited into the linked [`crate::autograd::Param`]
    /// cells in tape order, matching the eager deposit order. Call once per
    /// forward.
    pub fn backward(&self, exec: &mut PlanExec, seed_scale: f32) -> Result<()> {
        let root = self
            .loss
            .ok_or_else(|| Error::InvalidArgument("plan has no loss node to seed".into()))?;
        let in_place = self.options.in_place;
        accumulate(
            &mut exec.grads[root],
            Tensor::full(self.nodes[root].shape.clone(), seed_scale),
            in_place,
        )?;
        for id in (0..=root).rev() {
            let node = &self.nodes[id];
            if exec.grads[id].is_none() || !matches!(node.binding, NodeBinding::Compute) {
                continue; // leaves, params and constants spread no further
            }
            if let Role::FusedOut { chain } = node.role {
                self.backprop_fused(id, chain, exec)?;
                continue;
            }
            let Some(g) = &exec.grads[id] else {
                continue;
            };
            // One gradient per parent, in parent order.
            let grads = match node.role {
                // Never deposited into (its consumer is fused with it).
                Role::Erased | Role::FusedOut { .. } => continue,
                // The chain gradient stored here is already folded through
                // this unary lead — release it to the parent now, at the
                // lead's eager sweep position.
                Role::FusedLead { relay: true } => vec![g.clone()],
                // The table's `g·bᵀ` / `aᵀ·g` with the transposes as layout
                // flags: the same multiply pairs in the same order, and the
                // density probe samples the lhs in its effective layout, so
                // the bits match `Op::backward`'s materialised transposes.
                Role::Gemm => {
                    let (a, b) = (&exec.values[node.parents[0]], &exec.values[node.parents[1]]);
                    vec![
                        g.matmul_layout(b, false, true)?,
                        a.matmul_layout(g, true, false)?,
                    ]
                }
                // A zip/broadcast lead runs its own table formula on the
                // stored chain gradient (none of them reads the lead's own,
                // never-computed output).
                Role::Eager | Role::FusedLead { relay: false } => {
                    let values = &exec.values;
                    with_operands(
                        &node.parents,
                        |p| &values[p],
                        |inputs| node.op.backward(g, inputs, &values[id], &exec.saved[id]),
                    )?
                }
            };
            for (&pid, g) in node.parents.iter().zip(grads) {
                debug_assert!(pid < id, "tape order violated: node {id} feeds {pid}");
                accumulate(&mut exec.grads[pid], g, in_place)?;
            }
        }
        for (node_id, param) in &self.param_links {
            if let Some(g) = &exec.grads[*node_id] {
                param.accumulate_grad(g);
            }
        }
        Ok(())
    }

    /// Forward + backward + loss read in one call, for single-tape training
    /// steps and tests. Use the split [`Plan::forward_with_rng`] /
    /// [`Plan::backward`] calls when the seed scale depends on several
    /// forwards (the trainer's batch-RMSE scaling).
    pub fn step_with_rng(
        &self,
        exec: &mut PlanExec,
        inputs: &[Tensor],
        seed_scale: f32,
        rng: &mut impl rand::Rng,
    ) -> Result<f32> {
        self.forward_with_rng(exec, inputs, rng)?;
        self.backward(exec, seed_scale)?;
        self.loss_value(exec)
    }

    /// [`Plan::step_with_rng`] for dropout-free tapes.
    pub fn step(&self, exec: &mut PlanExec, inputs: &[Tensor], seed_scale: f32) -> Result<f32> {
        self.forward(exec, inputs)?;
        self.backward(exec, seed_scale)?;
        self.loss_value(exec)
    }

    /// One fused chain, forward: a single sweep computes the lead and every
    /// stage per element, writing only the out node's value.
    fn eval_fused(&self, id: usize, chain_idx: usize, exec: &PlanExec) -> Result<Tensor> {
        let chain = &self.chains[chain_idx];
        debug_assert_eq!(
            chain.out, id,
            "chain {chain_idx} annotated on the wrong node"
        );
        let stages = &chain.stages;
        let shape = self.nodes[id].shape.clone();
        let a = exec.values[chain.src.0].data();
        let ops = 1 + stages.len();
        let mut out = Buffer::zeroed(shape.len());
        match chain.kind {
            LeadKind::Map(m) => {
                let grain = (PAR_GRAIN_OPS / ops).max(1);
                par::for_each_row_chunk_mut(&mut out, 1, grain, |first, window| {
                    let end = first + window.len();
                    for (oc, ac) in window
                        .chunks_mut(FUSE_CHUNK)
                        .zip(a[first..end].chunks(FUSE_CHUNK))
                    {
                        oc.copy_from_slice(ac);
                        sweep_fwd(m, oc);
                        for &st in stages {
                            sweep_fwd(st, oc);
                        }
                    }
                });
            }
            LeadKind::Zip(z) => {
                let b = exec.values[self.zip_src(chain)?].data();
                let grain = (PAR_GRAIN_OPS / ops).max(1);
                par::for_each_row_chunk_mut(&mut out, 1, grain, |first, window| {
                    let end = first + window.len();
                    for ((oc, ac), bc) in window
                        .chunks_mut(FUSE_CHUNK)
                        .zip(a[first..end].chunks(FUSE_CHUNK))
                        .zip(b[first..end].chunks(FUSE_CHUNK))
                    {
                        sweep_zip(z, oc, ac, bc);
                        for &st in stages {
                            sweep_fwd(st, oc);
                        }
                    }
                });
            }
            LeadKind::AddRow | LeadKind::AddCol | LeadKind::MulCol => {
                let v = exec.values[self.zip_src(chain)?].data();
                let (_, c) = shape.as_matrix("fused_broadcast")?;
                let kind = chain.kind;
                let grain = (PAR_GRAIN_OPS / (c * ops).max(1)).max(1);
                par::for_each_row_chunk_mut(&mut out, c, grain, |first_row, window| {
                    for (i, o_row) in window.chunks_mut(c).enumerate() {
                        let r = first_row + i;
                        let a_row = &a[r * c..(r + 1) * c];
                        for (jc, (oc, ac)) in o_row
                            .chunks_mut(FUSE_CHUNK)
                            .zip(a_row.chunks(FUSE_CHUNK))
                            .enumerate()
                        {
                            match kind {
                                LeadKind::AddRow => {
                                    let j0 = jc * FUSE_CHUNK;
                                    sweep_zip(ZipOp::Add, oc, ac, &v[j0..j0 + oc.len()]);
                                }
                                LeadKind::AddCol => {
                                    let bv = v[r];
                                    for (o, &x) in oc.iter_mut().zip(ac) {
                                        *o = x + bv;
                                    }
                                }
                                _ => {
                                    let bv = v[r];
                                    for (o, &x) in oc.iter_mut().zip(ac) {
                                        *o = x * bv;
                                    }
                                }
                            }
                            for &st in stages {
                                sweep_fwd(st, oc);
                            }
                        }
                    }
                });
            }
        }
        Ok(Tensor::from_buffer(shape, out))
    }

    /// The second operand of a zip/broadcast chain lead.
    fn zip_src(&self, chain: &FusedChain) -> Result<usize> {
        chain.src.1.ok_or_else(|| {
            Error::InvalidArgument("fused zip/broadcast chain lost its second operand".into())
        })
    }

    /// One fused chain, backward: recomputes the chain's intermediate
    /// stage values per chunk (the final stage's output is read from the
    /// out node's stored value — see [`fold_stages_chunk`]), folds the out
    /// node's gradient down to the lead, and parks the result in the
    /// lead's grad slot. The backward sweep releases it when it reaches
    /// the lead — the eager deposit position for everything outside the
    /// chain.
    fn backprop_fused(&self, id: usize, chain_idx: usize, exec: &mut PlanExec) -> Result<()> {
        let chain = &self.chains[chain_idx];
        let stages = &chain.stages;
        let g_t = exec.grads[id]
            .as_ref()
            .ok_or_else(|| Error::InvalidArgument(format!("node {id} has no gradient")))?
            .clone();
        let g = g_t.data();
        let lead_shape = self.nodes[chain.lead].shape.clone();
        let a_t = exec.values[chain.src.0].clone();
        let a = a_t.data();
        // The chain-out node's stored forward value — the final stage's
        // output, never stolen by an in-place rewrite in a training plan
        // (see `backward_survives_steal`).
        let o_t = exec.values[id].clone();
        let ov = o_t.data();
        let ops = 2 * (1 + stages.len());
        let mut out = Buffer::zeroed(lead_shape.len());
        match chain.kind {
            LeadKind::Map(m) => {
                let grain = (PAR_GRAIN_OPS / ops).max(1);
                par::for_each_row_chunk_mut(&mut out, 1, grain, |first, window| {
                    let mut vals = [[0f32; FUSE_CHUNK]; MAX_STAGES + 1];
                    let end = first + window.len();
                    for (((oc, ac), gc), vc) in window
                        .chunks_mut(FUSE_CHUNK)
                        .zip(a[first..end].chunks(FUSE_CHUNK))
                        .zip(g[first..end].chunks(FUSE_CHUNK))
                        .zip(ov[first..end].chunks(FUSE_CHUNK))
                    {
                        let l = oc.len();
                        vals[0][..l].copy_from_slice(ac);
                        sweep_fwd(m, &mut vals[0][..l]);
                        oc.copy_from_slice(gc);
                        fold_stages_chunk(stages, &mut vals, l, oc, vc);
                        sweep_bwd(m, oc, ac, &vals[0][..l]);
                    }
                });
            }
            LeadKind::Zip(z) => {
                let b_t = exec.values[self.zip_src(chain)?].clone();
                let b = b_t.data();
                let grain = (PAR_GRAIN_OPS / ops).max(1);
                par::for_each_row_chunk_mut(&mut out, 1, grain, |first, window| {
                    let mut vals = [[0f32; FUSE_CHUNK]; MAX_STAGES + 1];
                    let end = first + window.len();
                    for ((((oc, ac), bc), gc), vc) in window
                        .chunks_mut(FUSE_CHUNK)
                        .zip(a[first..end].chunks(FUSE_CHUNK))
                        .zip(b[first..end].chunks(FUSE_CHUNK))
                        .zip(g[first..end].chunks(FUSE_CHUNK))
                        .zip(ov[first..end].chunks(FUSE_CHUNK))
                    {
                        let l = oc.len();
                        sweep_zip(z, &mut vals[0][..l], ac, bc);
                        oc.copy_from_slice(gc);
                        fold_stages_chunk(stages, &mut vals, l, oc, vc);
                    }
                });
            }
            LeadKind::AddRow | LeadKind::AddCol | LeadKind::MulCol => {
                let v_t = exec.values[self.zip_src(chain)?].clone();
                let v = v_t.data();
                let (_, c) = lead_shape.as_matrix("fused_broadcast_bw")?;
                let kind = chain.kind;
                let grain = (PAR_GRAIN_OPS / (c * ops).max(1)).max(1);
                par::for_each_row_chunk_mut(&mut out, c, grain, |first_row, window| {
                    let mut vals = [[0f32; FUSE_CHUNK]; MAX_STAGES + 1];
                    for (i, o_row) in window.chunks_mut(c).enumerate() {
                        let r = first_row + i;
                        let a_row = &a[r * c..(r + 1) * c];
                        let g_row = &g[r * c..(r + 1) * c];
                        let o_val_row = &ov[r * c..(r + 1) * c];
                        for (((jc, (oc, ac)), gc), vc) in o_row
                            .chunks_mut(FUSE_CHUNK)
                            .zip(a_row.chunks(FUSE_CHUNK))
                            .enumerate()
                            .zip(g_row.chunks(FUSE_CHUNK))
                            .zip(o_val_row.chunks(FUSE_CHUNK))
                        {
                            let l = oc.len();
                            match kind {
                                LeadKind::AddRow => {
                                    let j0 = jc * FUSE_CHUNK;
                                    sweep_zip(ZipOp::Add, &mut vals[0][..l], ac, &v[j0..j0 + l]);
                                }
                                LeadKind::AddCol => {
                                    let bv = v[r];
                                    for (o, &x) in vals[0][..l].iter_mut().zip(ac) {
                                        *o = x + bv;
                                    }
                                }
                                _ => {
                                    let bv = v[r];
                                    for (o, &x) in vals[0][..l].iter_mut().zip(ac) {
                                        *o = x * bv;
                                    }
                                }
                            }
                            oc.copy_from_slice(gc);
                            fold_stages_chunk(stages, &mut vals, l, oc, vc);
                        }
                    }
                });
            }
        }
        debug_assert!(
            exec.grads[chain.lead].is_none(),
            "fused lead {} received an external gradient",
            chain.lead
        );
        exec.grads[chain.lead] = Some(Tensor::from_buffer(lead_shape, out));
        Ok(())
    }

    /// Evaluates one node by overwriting its dying parent's buffer: the
    /// marked parent's tensor is stolen out of its slot (a shared scalar
    /// placeholder is parked there) and mutated with the identical
    /// per-element formula the out-of-place kernel applies.
    fn eval_in_place(&self, id: usize, exec: &mut PlanExec) -> Result<Tensor> {
        let node = &self.nodes[id];
        let slot = self.in_place[id].ok_or_else(|| {
            Error::InvalidArgument(format!("node {id} is not an in-place rewrite"))
        })?;
        let q = node.parents[slot];
        let mut t = std::mem::replace(&mut exec.values[q], self.placeholder.clone());
        debug_assert_eq!(t.shape(), &node.shape, "in-place steal shape drifted");
        match &node.op {
            Op::Add | Op::Sub | Op::Mul | Op::Div => {
                let other = exec.values[node.parents[1 - slot]].clone();
                let b = other.data();
                let op = node.op.clone();
                let buf = t.data_mut();
                par::for_each_row_chunk_mut(buf, 1, PAR_GRAIN_OPS, |first, window| {
                    let end = first + window.len();
                    for (o, &y) in window.iter_mut().zip(&b[first..end]) {
                        let (l, r) = if slot == 0 { (*o, y) } else { (y, *o) };
                        *o = match op {
                            Op::Add => l + r,
                            Op::Sub => l - r,
                            Op::Mul => l * r,
                            _ => l / r,
                        };
                    }
                });
            }
            Op::AddRowBroadcast | Op::AddColBroadcast | Op::MulColBroadcast => {
                let other = exec.values[node.parents[1]].clone();
                let v = other.data();
                let (_, c) = node.shape.as_matrix("in_place_broadcast")?;
                let op = node.op.clone();
                let grain = (PAR_GRAIN_OPS / c.max(1)).max(1);
                let buf = t.data_mut();
                par::for_each_row_chunk_mut(buf, c, grain, |first_row, window| {
                    for (i, o_row) in window.chunks_mut(c).enumerate() {
                        match op {
                            Op::AddRowBroadcast => {
                                for (o, &b) in o_row.iter_mut().zip(v) {
                                    *o += b;
                                }
                            }
                            Op::AddColBroadcast => {
                                let b = v[first_row + i];
                                for o in o_row.iter_mut() {
                                    *o += b;
                                }
                            }
                            _ => {
                                let b = v[first_row + i];
                                for o in o_row.iter_mut() {
                                    *o *= b;
                                }
                            }
                        }
                    }
                });
            }
            op => {
                let m = MapOp::from_op(op).ok_or_else(|| {
                    Error::InvalidArgument(format!(
                        "node {id}: op {} has no in-place kernel",
                        node.op
                    ))
                })?;
                let buf = t.data_mut();
                par::for_each_row_chunk_mut(buf, 1, PAR_GRAIN_OPS, |_, window| {
                    for o in window.iter_mut() {
                        *o = m.fwd(*o);
                    }
                });
            }
        }
        Ok(t)
    }
}
