// lint: allow-file(L004): replay indexes the per-node slot vectors with
// node/parent ids proven in bounds by `Plan::compile`.
//! Plan execution: the forward/backward sweeps over [`PlanExec`] slots.
//! Every node runs the shared op table ([`Op::forward`] / [`Op::backward`]),
//! except that every matmul runs through the layout-flag GEMM.

use super::ir::NodeBinding;
use super::Plan;
use crate::autograd::{Op, Saved};
use crate::error::{Error, Result};
use crate::op::with_operands;
use crate::tensor::Tensor;

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
    pub fn value(&self, id: usize) -> Option<&Tensor> {
        self.values.get(id)
    }

    /// The gradient of node `id` from the latest backward, if it was
    /// reached.
    pub fn grad(&self, id: usize) -> Option<&Tensor> {
        self.grads.get(id).and_then(Option::as_ref)
    }
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor) -> Result<()> {
    match slot {
        Some(cur) => *cur = cur.add(&g)?,
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
                NodeBinding::Compute => match node.op {
                    Op::Matmul => exec.values[node.parents[0]].matmul_layout(
                        &exec.values[node.parents[1]],
                        false,
                        false,
                    )?,
                    _ => {
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
        accumulate(
            &mut exec.grads[root],
            Tensor::full(self.nodes[root].shape.clone(), seed_scale),
        )?;
        for id in (0..=root).rev() {
            let node = &self.nodes[id];
            if !matches!(node.binding, NodeBinding::Compute) {
                continue; // leaves, params and constants spread no further
            }
            let Some(g) = &exec.grads[id] else {
                continue;
            };
            // One gradient per parent, in parent order.
            let grads = match node.op {
                // The table's `g·bᵀ` / `aᵀ·g` with the transposes as layout
                // flags: the same multiply pairs in the same order, so on
                // finite operands the bits match `Op::backward`'s
                // materialised transposes (DESIGN §12.2).
                Op::Matmul => {
                    let (a, b) = (&exec.values[node.parents[0]], &exec.values[node.parents[1]]);
                    vec![
                        g.matmul_layout(b, false, true)?,
                        a.matmul_layout(g, true, false)?,
                    ]
                }
                _ => {
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
                accumulate(&mut exec.grads[pid], g)?;
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
}
