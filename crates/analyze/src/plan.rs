//! Static validation and cost accounting for *optimized* compiled plans.
//!
//! [`validate_plan`] consumes a [`PlanSummary`] (from
//! [`stgnn_tensor::plan::Plan::summary`]) and checks the structural
//! invariants every optimizer pass must preserve — the invariants the
//! bitwise parity suite relies on:
//!
//! * Effective parent edges respect tape order (no forward reference).
//! * Absorbed nodes (erased chain interiors, fused leads) have **zero**
//!   effective readers: their value slots are stale, so any node still
//!   listing one as a parent would read garbage.
//! * A GEMM node is a matmul whose operand shapes contract correctly and
//!   produce the recorded output shape.
//! * A fused chain's output shape matches its lead source's shape (every
//!   stage is shape-preserving).
//! * The [`PassReport`] tallies agree with the node roles actually
//!   annotated — a drifted counter means a pass rewrote something it did
//!   not account for.
//!
//! Cost accounting mirrors [`crate::tape`]: matmul/GEMM at exact `2·m·k·n`,
//! transcendental-heavy ops ×8 — but **per fused chain** the whole chain
//! costs one sweep (`out.len() × Σ stage weights`) and absorbed nodes cost
//! zero, so comparing [`Report::flops`] against the eager tape's quantifies
//! what the optimizer removed.

use crate::diag::{codes, Diagnostic, OpCost, Report, Severity};
use stgnn_tensor::plan::{PlanOpKind, PlanSummary};

/// Estimated forward FLOPs for one summarized plan node. `None` marks a
/// shape the cost model cannot price (already reported as a structure
/// finding by the validator).
fn summary_flops(s: &PlanSummary, id: usize) -> u64 {
    let node = &s.nodes[id];
    let out_len = node.shape.len() as u64;
    let mat = |pid: usize| -> (u64, u64) {
        let d = s.nodes[pid].shape.dims();
        (
            d.first().copied().unwrap_or(1) as u64,
            d.get(1).copied().unwrap_or(1) as u64,
        )
    };
    match node.kind {
        PlanOpKind::Constant
        | PlanOpKind::Input
        | PlanOpKind::Derived
        | PlanOpKind::Param
        | PlanOpKind::Erased
        | PlanOpKind::FusedLead => 0,
        PlanOpKind::FusedOut { .. } => out_len * node.fused_cost_per_elem,
        PlanOpKind::Gemm => {
            let Some(&a) = node.parents.first() else {
                return 0;
            };
            let (_, k) = mat(a);
            let d = node.shape.dims();
            2 * d.first().copied().unwrap_or(1) as u64 * k * d.get(1).copied().unwrap_or(1) as u64
        }
        PlanOpKind::Eager => match node.op {
            "leaf" | "param" => 0,
            "elu" | "sigmoid" | "tanh" | "exp" | "sqrt" | "softmax_rows" => 8 * out_len,
            "sum_all" | "mean_all" | "sum_cols" | "sum_rows" => node
                .parents
                .first()
                .map_or(0, |&p| s.nodes[p].shape.len() as u64),
            _ => out_len,
        },
    }
}

/// Validates an optimized plan's structure and prices its replay cost. A
/// `Deny` finding means a pass broke an invariant the executor (and the
/// bit-identity contract) depends on; callers should refuse the plan and
/// fall back to eager.
pub fn validate_plan(summary: &PlanSummary) -> Report {
    let n = summary.nodes.len();
    let mut report = Report {
        nodes: n,
        ..Report::default()
    };
    let deny = |report: &mut Report, id: usize, message: String| {
        report.diagnostics.push(Diagnostic {
            code: codes::PLAN_STRUCTURE,
            severity: Severity::Deny,
            node: Some(id),
            op: summary.nodes[id].op.to_string(),
            message,
        });
    };

    // Effective reader counts, under the optimizer's rewritten edges.
    let mut read = vec![0usize; n];
    for (id, node) in summary.nodes.iter().enumerate() {
        for &p in &node.parents {
            if p >= id {
                deny(
                    &mut report,
                    id,
                    format!("effective parent #{p} is at or after the node itself"),
                );
                continue;
            }
            // Leads/erased nodes keep their traced parent lists for
            // deposit-order bookkeeping, but replay never reads through
            // them — only live kinds count as readers.
            if !matches!(node.kind, PlanOpKind::Erased | PlanOpKind::FusedLead) {
                read[p] += 1;
            }
        }
    }

    let (mut gemms, mut chains, mut fused_ops) = (0, 0, 0);
    for (id, node) in summary.nodes.iter().enumerate() {
        match node.kind {
            PlanOpKind::Erased | PlanOpKind::FusedLead if read[id] > 0 => {
                deny(
                    &mut report,
                    id,
                    format!(
                        "{:?} node still has {} effective reader(s): its value slot is \
                         stale on replay",
                        node.kind, read[id]
                    ),
                );
            }
            PlanOpKind::FusedOut { stages } => {
                chains += 1;
                fused_ops += stages + 1;
                let Some(&src) = node.parents.first() else {
                    deny(
                        &mut report,
                        id,
                        "fused chain lost its source operand".into(),
                    );
                    continue;
                };
                if summary.nodes[src].shape != node.shape {
                    deny(
                        &mut report,
                        id,
                        format!(
                            "fused chain output shape {} differs from its source's {} — \
                             every fusable stage is shape-preserving",
                            node.shape, summary.nodes[src].shape
                        ),
                    );
                }
                if node.fused_cost_per_elem < (stages as u64 + 1) {
                    deny(
                        &mut report,
                        id,
                        format!(
                            "fused chain prices {} FLOP/elem for {} ops — below one per op",
                            node.fused_cost_per_elem,
                            stages + 1
                        ),
                    );
                }
            }
            PlanOpKind::Gemm => {
                gemms += 1;
                if node.op != "matmul" {
                    deny(
                        &mut report,
                        id,
                        "only a matmul can run as a GEMM node".into(),
                    );
                    continue;
                }
                let (Some(&a), Some(&b)) = (node.parents.first(), node.parents.get(1)) else {
                    deny(&mut report, id, "GEMM node lost an operand".into());
                    continue;
                };
                let dims = |p: usize| -> (usize, usize) {
                    let d = summary.nodes[p].shape.dims();
                    (
                        d.first().copied().unwrap_or(1),
                        d.get(1).copied().unwrap_or(1),
                    )
                };
                let (m, k) = dims(a);
                let (kb, nn) = dims(b);
                let od = summary.nodes[id].shape.dims();
                let (om, on) = (
                    od.first().copied().unwrap_or(1),
                    od.get(1).copied().unwrap_or(1),
                );
                if k != kb || m != om || nn != on {
                    deny(
                        &mut report,
                        id,
                        format!(
                            "GEMM maps operands {}·{} to {m}×{nn} (contraction {k} vs {kb}), \
                             but the tape recorded {om}×{on}",
                            summary.nodes[a].shape, summary.nodes[b].shape
                        ),
                    );
                }
            }
            _ => {}
        }
        if matches!(node.kind, PlanOpKind::Param) {
            report.params += 1;
        }
    }

    // The pass report must agree with the roles actually annotated.
    let checks = [
        ("gemm nodes", gemms, summary.report.gemm_nodes),
        ("fused chains", chains, summary.report.fused_chains),
        ("fused ops", fused_ops, summary.report.fused_ops),
    ];
    for (what, counted, reported) in checks {
        if counted != reported {
            report.diagnostics.push(Diagnostic {
                code: codes::PLAN_REPORT_DRIFT,
                severity: Severity::Deny,
                node: None,
                op: String::new(),
                message: format!(
                    "pass report claims {reported} {what}, the annotated roles show {counted} — \
                     a pass rewrote nodes it did not account for"
                ),
            });
        }
    }

    // Cost accounting over the *optimized* sweep.
    let mut by_op: Vec<OpCost> = Vec::new();
    for id in 0..n {
        let node = &summary.nodes[id];
        let flops = summary_flops(summary, id);
        // Absorbed nodes also hold no live forward buffer.
        let bytes = match node.kind {
            PlanOpKind::Erased | PlanOpKind::FusedLead => 0,
            _ => (node.shape.len() * std::mem::size_of::<f32>()) as u64,
        };
        report.flops += flops;
        report.tape_bytes += bytes;
        let name = match node.kind {
            PlanOpKind::FusedOut { .. } => "fused_chain",
            PlanOpKind::Gemm => "gemm",
            _ => node.op,
        };
        match by_op.iter_mut().find(|c| c.op == name) {
            Some(c) => {
                c.count += 1;
                c.flops += flops;
                c.bytes += bytes;
            }
            None => by_op.push(OpCost {
                op: name.to_string(),
                count: 1,
                flops,
                bytes,
            }),
        }
    }
    by_op.sort_by_key(|c| std::cmp::Reverse(c.flops));
    report.by_op = by_op;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgnn_tensor::autograd::Graph;
    use stgnn_tensor::plan::{LeafBinding, Plan, PlanOptions, PlanSpec};
    use stgnn_tensor::{Shape, Tensor};

    /// Compiles a little training tape exercising every kernel choice: a
    /// matmul (GEMM), a sigmoid→tanh chain off an add (fusion) and a
    /// scalar-map chain off a constant leaf (fusion again).
    fn sample_plan(opts: PlanOptions) -> Plan {
        let g = Graph::new();
        let mut pset = stgnn_tensor::autograd::ParamSet::new();
        let w = pset.add("w", Tensor::filled_with(Shape::matrix(6, 6), || 0.3));
        let x = g.leaf(Tensor::filled_with(Shape::matrix(6, 6), || 0.7));
        let c = g.leaf(Tensor::ones(Shape::matrix(6, 6)));
        let shifted = c.mul_scalar(2.0).add_scalar(-1.0); // map-lead fused chain
        let wv = g.param(&w);
        let h = x.matmul(&wv.transpose()); // GEMM
        let act = h.add(&shifted).sigmoid().tanh(); // zip-lead fused chain
        let loss = act.square().mean_all();
        Plan::compile_with(
            &g.snapshot(),
            &pset,
            PlanSpec {
                bindings: vec![(x.id(), LeafBinding::Input(0))],
                roots: vec![act.id()],
                loss: Some(loss.id()),
            },
            opts,
        )
        .expect("sample tape compiles")
    }

    #[test]
    fn optimized_sample_plan_validates_clean() {
        let plan = sample_plan(PlanOptions::default());
        let summary = plan.summary();
        assert!(summary.report.gemm_nodes >= 1, "{}", summary.report);
        assert!(summary.report.fused_chains >= 2, "{}", summary.report);
        let report = validate_plan(&summary);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn unoptimized_plan_validates_clean_too() {
        let plan = sample_plan(PlanOptions::none());
        let report = validate_plan(&plan.summary());
        assert!(report.is_clean(), "{}", report.render());
    }

    /// Fusion runs the same per-element arithmetic in one sweep, so the
    /// priced FLOPs stay put while the absorbed nodes' buffers disappear.
    #[test]
    fn fusion_keeps_priced_flops_and_drops_absorbed_bytes() {
        let eager = validate_plan(&sample_plan(PlanOptions::none()).summary());
        let opt = validate_plan(&sample_plan(PlanOptions::default()).summary());
        assert_eq!(opt.flops, eager.flops);
        assert!(
            opt.tape_bytes < eager.tape_bytes,
            "optimized {} bytes vs eager {}",
            opt.tape_bytes,
            eager.tape_bytes
        );
    }

    #[test]
    fn gemm_flops_price_the_exact_2mkn() {
        let plan = sample_plan(PlanOptions::default());
        let report = validate_plan(&plan.summary());
        let gemm = report.by_op.iter().find(|c| c.op == "gemm").unwrap();
        assert_eq!(gemm.flops, 2 * 6 * 6 * 6, "{}", report.render());
    }

    #[test]
    fn tampered_report_and_stale_reader_are_denied() {
        let plan = sample_plan(PlanOptions::default());
        let mut summary = plan.summary();
        summary.report.fused_chains += 1;
        let report = validate_plan(&summary);
        assert!(
            report.find(codes::PLAN_REPORT_DRIFT).is_some(),
            "{}",
            report.render()
        );

        // Point a live node's parent at a fused lead — a stale read.
        let mut summary = plan.summary();
        let lead = summary
            .nodes
            .iter()
            .position(|n| matches!(n.kind, PlanOpKind::FusedLead))
            .expect("sample plan fuses a chain");
        let victim = summary
            .nodes
            .iter()
            .position(|n| matches!(n.kind, PlanOpKind::Eager) && !n.parents.is_empty())
            .expect("some eager node");
        let (a, b) = (victim.max(lead), victim.min(lead));
        if a == victim {
            summary.nodes[victim].parents[0] = lead;
            let report = validate_plan(&summary);
            assert!(
                report.find(codes::PLAN_STRUCTURE).is_some(),
                "{}",
                report.render()
            );
        } else {
            // Ordering made the rewrite a forward reference instead; that
            // must be denied as well.
            summary.nodes[b].parents[0] = a;
            let report = validate_plan(&summary);
            assert!(!report.is_clean(), "{}", report.render());
        }
    }
}
