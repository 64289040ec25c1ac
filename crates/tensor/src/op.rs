//! The op table: every differentiable operation's forward and backward
//! formula, written once.
//!
//! Both execution engines drive this table. The eager tape
//! ([`crate::autograd::Graph`]) calls [`Op::forward`] when a `Var` method
//! records a node and [`Op::backward`] from the reverse sweep; compiled-plan
//! replay ([`crate::plan::Plan`]) calls the same two functions for every
//! node except matmuls, which it sends through the layout GEMM. Because both
//! engines run the identical formula, their bit-identity holds by
//! construction — the finite-difference gradchecks in this module's tests
//! are the independent reference that each formula is *right*.
//!
//! Everything here returns [`Result`]: a shape or arity error surfaces as
//! an [`Error`] the caller decides how to report (the `Var` builders panic
//! by their documented contract; plan replay propagates it).

use crate::error::{Error, Result};
use crate::pool::Buffer;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::fmt;

/// The operation a tape node records. Together with the parent ids this is
/// enough for a static analyzer to re-derive every output shape *without*
/// executing kernels (the `stgnn-analyze` crate's tape validator), so each
/// payload carries exactly the static arguments that determine the output
/// shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Constant input ([`crate::autograd::Graph::leaf`]).
    Leaf,
    /// Parameter read ([`crate::autograd::Graph::param`]); the cell's name
    /// is surfaced in [`crate::autograd::NodeInfo::param`].
    Param,
    /// Elementwise sum.
    Add,
    /// Elementwise difference.
    Sub,
    /// Elementwise product.
    Mul,
    /// Elementwise quotient.
    Div,
    /// Adds a scalar to every element.
    AddScalar(f32),
    /// Scales every element.
    MulScalar(f32),
    /// Elementwise negation.
    Neg,
    /// Matrix product.
    Matmul,
    /// Matrix transpose.
    Transpose,
    /// Reinterpretation under a new shape of equal length.
    Reshape(Shape),
    /// Row extraction `[start, end)`.
    SliceRows { start: usize, end: usize },
    /// Rectified linear unit.
    Relu,
    /// ELU with α = 1.
    Elu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Elementwise exponential.
    Exp,
    /// Elementwise square.
    Square,
    /// Elementwise absolute value.
    Abs,
    /// Elementwise square root.
    Sqrt,
    /// Row-wise softmax.
    SoftmaxRows,
    /// Inverted dropout with the given drop rate.
    Dropout { rate: f32 },
    /// Adds a `1×c` row vector to every row.
    AddRowBroadcast,
    /// Adds an `r×1` column vector to every column.
    AddColBroadcast,
    /// Scales row `i` by element `i` of an `r×1` column vector.
    MulColBroadcast,
    /// Grouped elementwise row max-pooling; output row `i` pools the input
    /// rows in `groups[i]`.
    RowsMaxPool { groups: Vec<Vec<usize>> },
    /// Sum of all elements (scalar output).
    SumAll,
    /// Mean of all elements (scalar output).
    MeanAll,
    /// Per-row sums, `r×c → r×1`.
    SumCols,
    /// Per-column sums, `r×c → 1×c`.
    SumRows,
    /// Horizontal concatenation of matrices.
    ConcatCols,
}

/// What one node's forward leaves behind for its backward, beyond the
/// operand and output values both engines keep anyway. One slot per node;
/// a replay hands the previous step's slot back to [`Op::forward`], which
/// refills the same buffer instead of allocating a new one.
#[derive(Debug, Default)]
pub enum Saved {
    /// The op saves nothing.
    #[default]
    Empty,
    /// Dropout's scaled keep mask (`1/(1−p)` or `0` per element).
    Mask(Tensor),
    /// Max-pooling's source row per output element.
    Argmax(Vec<usize>),
}

impl Op {
    /// The op's name as it appears in kernel errors, tape panics and
    /// analyzer diagnostics — one vocabulary everywhere.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Param => "param",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Div => "div",
            Op::AddScalar(_) => "add_scalar",
            Op::MulScalar(_) => "mul_scalar",
            Op::Neg => "neg",
            Op::Matmul => "matmul",
            Op::Transpose => "transpose",
            Op::Reshape(_) => "reshape",
            Op::SliceRows { .. } => "slice_rows",
            Op::Relu => "relu",
            Op::Elu => "elu",
            Op::Sigmoid => "sigmoid",
            Op::Tanh => "tanh",
            Op::Exp => "exp",
            Op::Square => "square",
            Op::Abs => "abs",
            Op::Sqrt => "sqrt",
            Op::SoftmaxRows => "softmax_rows",
            Op::Dropout { .. } => "dropout",
            Op::AddRowBroadcast => "add_row_broadcast",
            Op::AddColBroadcast => "add_col_broadcast",
            Op::MulColBroadcast => "mul_col_broadcast",
            Op::RowsMaxPool { .. } => "rows_max_pool",
            Op::SumAll => "sum_all",
            Op::MeanAll => "mean_all",
            Op::SumCols => "sum_cols",
            Op::SumRows => "sum_rows",
            Op::ConcatCols => "concat_cols",
        }
    }

    /// Computes the op's output from its operand values (in parent order).
    ///
    /// `saved` is this node's slot: ops that need more than their operands
    /// and output in backward (dropout, max-pooling) fill it, reusing the
    /// buffer a previous forward left there. `draw` supplies dropout's
    /// uniform `[0, 1)` samples, one per element in row-major order; other
    /// ops never call it.
    pub fn forward(
        &self,
        inputs: &[&Tensor],
        saved: &mut Saved,
        draw: &mut dyn FnMut() -> f32,
    ) -> Result<Tensor> {
        match self {
            Op::Leaf | Op::Param => Err(Error::InvalidArgument(format!(
                "{self} nodes are bound, never computed"
            ))),
            Op::Add => self.two(inputs).and_then(|(a, b)| a.add(b)),
            Op::Sub => self.two(inputs).and_then(|(a, b)| a.sub(b)),
            Op::Mul => self.two(inputs).and_then(|(a, b)| a.mul(b)),
            Op::Div => self.two(inputs).and_then(|(a, b)| a.div(b)),
            Op::AddScalar(s) => Ok(self.one(inputs)?.add_scalar(*s)),
            Op::MulScalar(s) => Ok(self.one(inputs)?.mul_scalar(*s)),
            Op::Neg => Ok(self.one(inputs)?.neg()),
            Op::Matmul => self.two(inputs).and_then(|(a, b)| a.matmul(b)),
            Op::Transpose => self.one(inputs)?.transpose(),
            Op::Reshape(shape) => self.one(inputs)?.reshape(shape.clone()),
            Op::SliceRows { start, end } => self.one(inputs)?.slice_rows(*start, *end),
            Op::Relu => Ok(self.one(inputs)?.relu()),
            Op::Elu => Ok(self.one(inputs)?.elu()),
            Op::Sigmoid => Ok(self.one(inputs)?.sigmoid()),
            Op::Tanh => Ok(self.one(inputs)?.tanh()),
            Op::Exp => Ok(self.one(inputs)?.exp()),
            Op::Square => Ok(self.one(inputs)?.square()),
            Op::Abs => Ok(self.one(inputs)?.abs()),
            Op::Sqrt => Ok(self.one(inputs)?.sqrt()),
            Op::SoftmaxRows => self.one(inputs)?.softmax_rows(),
            Op::Dropout { rate } => {
                let x = self.one(inputs)?;
                let keep = 1.0 - rate;
                let mut sample = || if draw() < keep { 1.0 / keep } else { 0.0 };
                let mask = match std::mem::take(saved) {
                    Saved::Mask(mut m) if m.shape() == x.shape() => {
                        for v in m.data_mut() {
                            *v = sample();
                        }
                        m
                    }
                    _ => Tensor::filled_with(x.shape().clone(), sample),
                };
                let out = x.mul(&mask)?;
                *saved = Saved::Mask(mask);
                Ok(out)
            }
            Op::AddRowBroadcast => self.two(inputs).and_then(|(a, b)| a.add_row_broadcast(b)),
            Op::AddColBroadcast => self.two(inputs).and_then(|(a, b)| a.add_col_broadcast(b)),
            Op::MulColBroadcast => self.two(inputs).and_then(|(a, b)| a.mul_col_broadcast(b)),
            Op::RowsMaxPool { groups } => rows_max_pool(self.one(inputs)?, groups, saved),
            Op::SumAll => Ok(self.one(inputs)?.sum_all()),
            Op::MeanAll => Ok(self.one(inputs)?.mean_all()),
            Op::SumCols => self.one(inputs)?.sum_cols(),
            Op::SumRows => self.one(inputs)?.sum_rows(),
            Op::ConcatCols => Tensor::concat_cols(inputs),
        }
    }

    /// The gradient contribution to each operand, in parent order, given
    /// the output gradient `g`, the operand values, the node's own output
    /// value `out` and its [`Saved`] slot.
    pub fn backward(
        &self,
        g: &Tensor,
        inputs: &[&Tensor],
        out: &Tensor,
        saved: &Saved,
    ) -> Result<Vec<Tensor>> {
        Ok(match self {
            Op::Leaf | Op::Param => Vec::new(),
            Op::Add => {
                self.two(inputs)?;
                vec![g.clone(), g.clone()]
            }
            Op::Sub => {
                self.two(inputs)?;
                vec![g.clone(), g.neg()]
            }
            Op::Mul => {
                let (a, b) = self.two(inputs)?;
                vec![g.mul(b)?, g.mul(a)?]
            }
            Op::Div => {
                let (a, b) = self.two(inputs)?;
                // d(a/b)/db = -a / b²
                vec![g.div(b)?, g.mul(a)?.div(&b.square())?.neg()]
            }
            Op::AddScalar(_) => {
                self.one(inputs)?;
                vec![g.clone()]
            }
            Op::MulScalar(s) => {
                self.one(inputs)?;
                vec![g.mul_scalar(*s)]
            }
            Op::Neg => {
                self.one(inputs)?;
                vec![g.neg()]
            }
            Op::Matmul => {
                // The reference formulas over materialised transposes; plan
                // replay runs the same products through the layout-flag GEMM.
                let (a, b) = self.two(inputs)?;
                vec![g.matmul(&b.transpose()?)?, a.transpose()?.matmul(g)?]
            }
            Op::Transpose => {
                self.one(inputs)?;
                vec![g.transpose()?]
            }
            Op::Reshape(_) => vec![g.reshape(self.one(inputs)?.shape().clone())?],
            Op::SliceRows { start, end } => {
                let x = self.one(inputs)?;
                let (_, cols) = x.shape().as_matrix("slice_rows_bw")?;
                let mut full = Tensor::zeros(x.shape().clone());
                let rows = full
                    .data_mut()
                    .get_mut(start * cols..end * cols)
                    .ok_or_else(|| {
                        Error::InvalidArgument(format!(
                            "slice_rows_bw: rows {start}..{end} outside {}",
                            x.shape()
                        ))
                    })?;
                copy_exact(rows, g.data(), "slice_rows_bw")?;
                vec![full]
            }
            Op::Relu => {
                let x = self.one(inputs)?;
                vec![g.zip_map(x, "relu_bw", |gv, xv| if xv > 0.0 { gv } else { 0.0 })?]
            }
            Op::Elu => {
                self.one(inputs)?;
                // f'(x) = 1 for x > 0, e^x = f(x) + 1 otherwise.
                vec![g.zip_map(
                    out,
                    "elu_bw",
                    |gv, ov| {
                        if ov > 0.0 {
                            gv
                        } else {
                            gv * (ov + 1.0)
                        }
                    },
                )?]
            }
            Op::Sigmoid => {
                self.one(inputs)?;
                vec![g.zip_map(out, "sigmoid_bw", |gv, sv| gv * sv * (1.0 - sv))?]
            }
            Op::Tanh => {
                self.one(inputs)?;
                vec![g.zip_map(out, "tanh_bw", |gv, tv| gv * (1.0 - tv * tv))?]
            }
            Op::Exp => {
                self.one(inputs)?;
                vec![g.mul(out)?]
            }
            Op::Square => {
                let x = self.one(inputs)?;
                vec![g.zip_map(x, "square_bw", |gv, xv| gv * 2.0 * xv)?]
            }
            Op::Abs => {
                let x = self.one(inputs)?;
                vec![g.zip_map(
                    x,
                    "abs_bw",
                    |gv, xv| {
                        if xv == 0.0 {
                            0.0
                        } else {
                            gv * xv.signum()
                        }
                    },
                )?]
            }
            Op::Sqrt => {
                self.one(inputs)?;
                vec![g.zip_map(out, "sqrt_bw", |gv, sv| gv * 0.5 / sv.max(1e-8))?]
            }
            Op::SoftmaxRows => {
                self.one(inputs)?;
                vec![softmax_rows_bw(g, out)?]
            }
            Op::Dropout { .. } => {
                self.one(inputs)?;
                let Saved::Mask(mask) = saved else {
                    return Err(Error::InvalidArgument(
                        "dropout node has no mask — backward before forward?".into(),
                    ));
                };
                vec![g.mul(mask)?]
            }
            Op::AddRowBroadcast => {
                self.two(inputs)?;
                vec![g.clone(), g.sum_rows()?]
            }
            Op::AddColBroadcast => {
                self.two(inputs)?;
                vec![g.clone(), g.sum_cols()?]
            }
            Op::MulColBroadcast => {
                let (a, c) = self.two(inputs)?;
                vec![g.mul_col_broadcast(c)?, g.mul(a)?.sum_cols()?]
            }
            Op::RowsMaxPool { .. } => {
                let x = self.one(inputs)?;
                let Saved::Argmax(argmax) = saved else {
                    return Err(Error::InvalidArgument(
                        "rows_max_pool node has no argmax — backward before forward?".into(),
                    ));
                };
                vec![rows_max_pool_bw(g, x, out, argmax)?]
            }
            Op::SumAll => vec![Tensor::full(
                self.one(inputs)?.shape().clone(),
                scalar_of(g)?,
            )],
            Op::MeanAll => {
                let shape = self.one(inputs)?.shape().clone();
                let inv = 1.0 / shape.len() as f32;
                vec![Tensor::full(shape, scalar_of(g)? * inv)]
            }
            Op::SumCols => {
                let (r, c) = self.one(inputs)?.shape().as_matrix("sum_cols_bw")?;
                let mut dx = Tensor::zeros(Shape::matrix(r, c));
                if g.len() != r {
                    return Err(Error::shape_mismatch("sum_cols_bw", g.shape(), dx.shape()));
                }
                if c > 0 {
                    for (row, &gv) in dx.data_mut().chunks_mut(c).zip(g.data()) {
                        row.fill(gv);
                    }
                }
                vec![dx]
            }
            Op::SumRows => {
                let (r, c) = self.one(inputs)?.shape().as_matrix("sum_rows_bw")?;
                let mut dx = Tensor::zeros(Shape::matrix(r, c));
                if c > 0 {
                    for row in dx.data_mut().chunks_mut(c) {
                        copy_exact(row, g.data(), "sum_rows_bw")?;
                    }
                }
                vec![dx]
            }
            Op::ConcatCols => concat_cols_bw(g, inputs, out)?,
        })
    }

    /// The single operand of a unary op.
    fn one<'a>(&self, inputs: &[&'a Tensor]) -> Result<&'a Tensor> {
        match inputs {
            &[x] => Ok(x),
            _ => Err(self.arity(1, inputs.len())),
        }
    }

    /// The two operands of a binary op.
    fn two<'a>(&self, inputs: &[&'a Tensor]) -> Result<(&'a Tensor, &'a Tensor)> {
        match inputs {
            &[a, b] => Ok((a, b)),
            _ => Err(self.arity(2, inputs.len())),
        }
    }

    fn arity(&self, want: usize, got: usize) -> Error {
        Error::InvalidArgument(format!("{self} takes {want} operand(s), got {got}"))
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Calls `f` with the operand values of a node whose parent ids are
/// `parents`, looked up through `value`. Nodes with at most two operands —
/// every op but `concat_cols` — gather them on the stack, so replaying a
/// node costs no allocation.
pub(crate) fn with_operands<'a, R>(
    parents: &[usize],
    value: impl Fn(usize) -> &'a Tensor,
    f: impl FnOnce(&[&'a Tensor]) -> R,
) -> R {
    match *parents {
        [] => f(&[]),
        [a] => f(&[value(a)]),
        [a, b] => f(&[value(a), value(b)]),
        _ => {
            let operands: Vec<&Tensor> = parents.iter().map(|&p| value(p)).collect();
            f(&operands)
        }
    }
}

/// `dst.copy_from_slice(src)`, as an error instead of a panic on a length
/// mismatch.
fn copy_exact(dst: &mut [f32], src: &[f32], op: &'static str) -> Result<()> {
    if dst.len() != src.len() {
        return Err(Error::InvalidArgument(format!(
            "{op}: gradient of {} elements for a window of {}",
            src.len(),
            dst.len()
        )));
    }
    dst.copy_from_slice(src);
    Ok(())
}

/// The value of a one-element gradient.
fn scalar_of(g: &Tensor) -> Result<f32> {
    match g.data() {
        &[v] => Ok(v),
        _ => Err(Error::InvalidArgument(format!(
            "expected a scalar gradient, got shape {}",
            g.shape()
        ))),
    }
}

/// Grouped elementwise row max-pooling. Records the source row of every
/// output element in `saved` (reusing its vector); ties go to the first
/// listed row.
fn rows_max_pool(x: &Tensor, groups: &[Vec<usize>], saved: &mut Saved) -> Result<Tensor> {
    let (rows, cols) = x.shape().as_matrix("rows_max_pool")?;
    for (i, group) in groups.iter().enumerate() {
        if group.is_empty() {
            return Err(Error::InvalidArgument(format!(
                "rows_max_pool: empty group {i}"
            )));
        }
        if let Some(r) = group.iter().find(|&&r| r >= rows) {
            return Err(Error::InvalidArgument(format!(
                "rows_max_pool: row {r} out of {rows}"
            )));
        }
    }
    let out_rows = groups.len();
    let mut argmax = match std::mem::take(saved) {
        Saved::Argmax(v) => v,
        _ => Vec::new(),
    };
    argmax.clear();
    argmax.resize(out_rows * cols, 0);
    let mut out = Buffer::filled(out_rows * cols, f32::NEG_INFINITY);
    if cols > 0 {
        let data = x.data();
        for ((group, o_row), a_row) in groups
            .iter()
            .zip(out.chunks_mut(cols))
            .zip(argmax.chunks_mut(cols))
        {
            for &r in group {
                let src = data.get(r * cols..(r + 1) * cols).ok_or_else(|| {
                    Error::InvalidArgument(format!("rows_max_pool: row {r} out of {rows}"))
                })?;
                for ((o, a), &val) in o_row.iter_mut().zip(a_row.iter_mut()).zip(src) {
                    if val > *o {
                        *o = val;
                        *a = r;
                    }
                }
            }
        }
    }
    *saved = Saved::Argmax(argmax);
    Ok(Tensor::from_buffer(Shape::matrix(out_rows, cols), out))
}

/// Routes each output element's gradient to its argmax source row.
fn rows_max_pool_bw(g: &Tensor, x: &Tensor, out: &Tensor, argmax: &[usize]) -> Result<Tensor> {
    let (_, cols) = x.shape().as_matrix("rows_max_pool_bw")?;
    if g.shape() != out.shape() || g.len() != argmax.len() {
        return Err(Error::shape_mismatch(
            "rows_max_pool_bw",
            g.shape(),
            out.shape(),
        ));
    }
    let mut dx = Tensor::zeros(x.shape().clone());
    if cols > 0 {
        let buf = dx.data_mut();
        for (g_row, a_row) in g.data().chunks(cols).zip(argmax.chunks(cols)) {
            for (c, (&gv, &r)) in g_row.iter().zip(a_row).enumerate() {
                let slot = buf.get_mut(r * cols + c).ok_or_else(|| {
                    Error::InvalidArgument(format!("rows_max_pool_bw: argmax row {r} out of range"))
                })?;
                *slot += gv;
            }
        }
    }
    Ok(dx)
}

/// `dx_j = s_j (g_j − Σ_k g_k s_k)` per row of the softmax output `s`,
/// serial in row order.
fn softmax_rows_bw(g: &Tensor, s: &Tensor) -> Result<Tensor> {
    let (r, c) = s.shape().as_matrix("softmax_bw")?;
    if g.shape() != s.shape() {
        return Err(Error::shape_mismatch("softmax_bw", g.shape(), s.shape()));
    }
    let mut dx = Tensor::zeros(Shape::matrix(r, c));
    if c > 0 {
        for ((d_row, s_row), g_row) in dx
            .data_mut()
            .chunks_mut(c)
            .zip(s.data().chunks(c))
            .zip(g.data().chunks(c))
        {
            let dot: f32 = s_row.iter().zip(g_row).map(|(&sv, &gv)| sv * gv).sum();
            for ((d, &sv), &gv) in d_row.iter_mut().zip(s_row).zip(g_row) {
                *d = sv * (gv - dot);
            }
        }
    }
    Ok(dx)
}

/// Splits the output gradient back into one column block per operand.
fn concat_cols_bw(g: &Tensor, inputs: &[&Tensor], out: &Tensor) -> Result<Vec<Tensor>> {
    let (rows, total) = out.shape().as_matrix("concat_cols_bw")?;
    if g.shape() != out.shape() {
        return Err(Error::shape_mismatch(
            "concat_cols_bw",
            g.shape(),
            out.shape(),
        ));
    }
    let mut grads = Vec::with_capacity(inputs.len());
    let mut col = 0;
    for x in inputs {
        let w = x.shape().cols();
        let mut part = Buffer::zeroed(rows * w);
        if w > 0 {
            for (dst, g_row) in part.chunks_mut(w).zip(g.data().chunks(total)) {
                let src = g_row.get(col..col + w).ok_or_else(|| {
                    Error::InvalidArgument(format!(
                        "concat_cols_bw: operand columns exceed the output's {total}"
                    ))
                })?;
                dst.copy_from_slice(src);
            }
        }
        grads.push(Tensor::from_buffer(Shape::matrix(rows, w), part));
        col += w;
    }
    Ok(grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::{Graph, Param, Var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(rows: &[&[f32]]) -> Tensor {
        Tensor::from_rows(rows)
    }

    /// A scalar loss linear in every element of `y`, with distinct weights
    /// so each output element's gradient path is checked separately.
    fn weighted(g: &Graph, y: &Var) -> Var {
        let mut i = 0.0f32;
        let w = Tensor::filled_with(y.shape(), || {
            i += 1.0;
            0.5 + (0.37 * i).sin()
        });
        y.mul(&g.leaf(w)).sum_all()
    }

    type Build = Box<dyn Fn(&Graph, &Var) -> Var>;

    /// One finite-difference check: the input value, whether it enters the
    /// tape as a parameter (else as a leaf), and the scalar function of it.
    struct Case {
        x0: Tensor,
        param: bool,
        build: Build,
    }

    fn case(x0: Tensor, build: impl Fn(&Graph, &Var) -> Var + 'static) -> Case {
        Case {
            x0,
            param: true,
            build: Box::new(build),
        }
    }

    /// One exemplar of every `Op` variant.
    fn every_op() -> Vec<Op> {
        vec![
            Op::Leaf,
            Op::Param,
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::AddScalar(0.7),
            Op::MulScalar(-1.5),
            Op::Neg,
            Op::Matmul,
            Op::Transpose,
            Op::Reshape(Shape::matrix(2, 2)),
            Op::SliceRows { start: 1, end: 2 },
            Op::Relu,
            Op::Elu,
            Op::Sigmoid,
            Op::Tanh,
            Op::Exp,
            Op::Square,
            Op::Abs,
            Op::Sqrt,
            Op::SoftmaxRows,
            Op::Dropout { rate: 0.5 },
            Op::AddRowBroadcast,
            Op::AddColBroadcast,
            Op::MulColBroadcast,
            Op::RowsMaxPool {
                groups: vec![vec![0, 1], vec![1, 2], vec![0, 2]],
            },
            Op::SumAll,
            Op::MeanAll,
            Op::SumCols,
            Op::SumRows,
            Op::ConcatCols,
        ]
    }

    /// The gradchecks for one op: one case per operand position the op
    /// differentiates. The match is exhaustive on purpose — a new `Op`
    /// variant does not compile until it has a row here.
    fn gradchecks(op: &Op) -> Vec<Case> {
        // Away from every kink (relu/abs at 0) by far more than the
        // finite-difference step.
        let x0 = t(&[&[0.5, -1.3, 0.8], &[2.1, -0.4, -0.9]]);
        let c23 = || t(&[&[1.2, -0.6, 0.3], &[-0.8, 1.7, 0.4]]);
        let positive = t(&[&[1.5, 2.0, 4.0], &[2.5, 3.0, 9.0]]);
        match op {
            Op::Leaf => vec![Case {
                param: false,
                ..case(x0, |g, x| weighted(g, &x.square()))
            }],
            Op::Param => vec![case(x0, weighted)],
            Op::Add => vec![
                case(x0.clone(), move |g, x| weighted(g, &x.add(&g.leaf(c23())))),
                case(x0, move |g, x| weighted(g, &g.leaf(c23()).add(x))),
            ],
            Op::Sub => vec![
                case(x0.clone(), move |g, x| weighted(g, &x.sub(&g.leaf(c23())))),
                case(x0, move |g, x| weighted(g, &g.leaf(c23()).sub(x))),
            ],
            Op::Mul => vec![
                case(x0.clone(), move |g, x| weighted(g, &x.mul(&g.leaf(c23())))),
                case(x0, move |g, x| weighted(g, &g.leaf(c23()).mul(x))),
            ],
            Op::Div => vec![
                case(x0, move |g, x| {
                    weighted(g, &x.div(&g.leaf(t(&[&[2.0, 4.0, 1.5], &[5.0, 8.0, 3.0]]))))
                }),
                case(positive, move |g, x| weighted(g, &g.leaf(c23()).div(x))),
            ],
            Op::AddScalar(s) => {
                let s = *s;
                vec![case(x0, move |g, x| weighted(g, &x.add_scalar(s).square()))]
            }
            Op::MulScalar(s) => {
                let s = *s;
                vec![case(x0, move |g, x| weighted(g, &x.mul_scalar(s)))]
            }
            Op::Neg => vec![case(x0, |g, x| weighted(g, &x.neg()))],
            Op::Matmul => vec![
                case(x0.clone(), |g, x| {
                    let b = g.leaf(t(&[&[0.5, -1.0], &[1.5, 0.3], &[-0.7, 0.2]]));
                    weighted(g, &x.matmul(&b))
                }),
                case(x0, |g, x| {
                    let a = g.leaf(t(&[&[1.0, 2.0], &[3.0, -4.0], &[0.1, 0.2]]));
                    weighted(g, &a.matmul(x))
                }),
            ],
            Op::Transpose => vec![case(x0, |g, x| weighted(g, &x.transpose()))],
            Op::Reshape(shape) => {
                let shape = shape.clone();
                vec![case(t(&[&[1.0, 2.0, -3.0, 4.0]]), move |g, x| {
                    weighted(g, &x.reshape(shape.clone()))
                })]
            }
            Op::SliceRows { start, end } => {
                let (start, end) = (*start, *end);
                vec![case(
                    t(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]),
                    move |g, x| weighted(g, &x.slice_rows(start, end).square()),
                )]
            }
            Op::Relu => vec![case(x0, |g, x| weighted(g, &x.relu()))],
            Op::Elu => vec![case(x0, |g, x| weighted(g, &x.elu()))],
            Op::Sigmoid => vec![case(x0, |g, x| weighted(g, &x.sigmoid()))],
            Op::Tanh => vec![case(x0, |g, x| weighted(g, &x.tanh()))],
            Op::Exp => vec![case(x0, |g, x| weighted(g, &x.exp()))],
            Op::Square => vec![case(x0, |g, x| weighted(g, &x.square()))],
            Op::Abs => vec![case(x0, |g, x| weighted(g, &x.abs()))],
            Op::Sqrt => vec![case(positive, |g, x| weighted(g, &x.sqrt()))],
            Op::SoftmaxRows => vec![case(x0, |g, x| weighted(g, &x.softmax_rows()))],
            Op::Dropout { rate } => {
                // A fresh, identically seeded stream per evaluation: every
                // finite-difference probe sees the same mask.
                let rate = *rate;
                vec![case(x0, move |g, x| {
                    weighted(g, &x.dropout(rate, &mut StdRng::seed_from_u64(5)))
                })]
            }
            Op::AddRowBroadcast => vec![
                case(x0, |g, x| {
                    weighted(
                        g,
                        &x.add_row_broadcast(&g.leaf(t(&[&[1.0, -1.0, 0.5]])))
                            .square(),
                    )
                }),
                case(t(&[&[1.0, -1.0, 0.5]]), move |g, x| {
                    weighted(g, &g.leaf(c23()).add_row_broadcast(x).square())
                }),
            ],
            Op::AddColBroadcast => vec![
                case(x0, |g, x| {
                    weighted(
                        g,
                        &x.add_col_broadcast(&g.leaf(t(&[&[2.0], &[-1.0]]))).square(),
                    )
                }),
                case(t(&[&[2.0], &[-1.0]]), move |g, x| {
                    weighted(g, &g.leaf(c23()).add_col_broadcast(x).square())
                }),
            ],
            Op::MulColBroadcast => vec![
                case(x0, |g, x| {
                    weighted(g, &x.mul_col_broadcast(&g.leaf(t(&[&[2.0], &[-1.0]]))))
                }),
                case(t(&[&[2.0], &[-1.0]]), move |g, x| {
                    weighted(g, &g.leaf(c23()).mul_col_broadcast(x))
                }),
            ],
            Op::RowsMaxPool { groups } => {
                // Distinct values, every pooled pair at least 0.5 apart, so
                // no finite-difference probe flips an argmax.
                let groups = groups.clone();
                vec![case(
                    t(&[&[1.0, 5.0], &[3.0, 2.0], &[0.5, 9.0]]),
                    move |g, x| weighted(g, &x.rows_max_pool(&groups).square()),
                )]
            }
            Op::SumAll => vec![case(x0, |g, x| weighted(g, &x.square().sum_all()))],
            Op::MeanAll => vec![case(x0, |g, x| weighted(g, &x.square().mean_all()))],
            Op::SumCols => vec![case(x0, |g, x| weighted(g, &x.sum_cols().square()))],
            Op::SumRows => vec![case(x0, |g, x| weighted(g, &x.sum_rows().square()))],
            Op::ConcatCols => vec![
                case(x0.clone(), |g, x| {
                    let other = g.leaf(t(&[&[5.0], &[6.0]]));
                    weighted(g, &g.concat_cols(&[x, &other]).square())
                }),
                case(x0, |g, x| {
                    let other = g.leaf(t(&[&[5.0], &[6.0]]));
                    weighted(g, &g.concat_cols(&[&other, x, &other]).square())
                }),
            ],
        }
    }

    /// Central finite-difference gradient of `f` w.r.t. `x`, evaluated at `x`.
    fn numeric_grad(x: &Tensor, f: impl Fn(&Tensor) -> f32) -> Tensor {
        let eps = 1e-2f32; // f32 precision: large eps + central differences
        let mut grad = Tensor::zeros(x.shape().clone());
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            grad.data_mut()[i] = (f(&xp) - f(&xm)) / (2.0 * eps);
        }
        grad
    }

    /// Asserts the tape's gradient at the input matches finite differences
    /// of the same function.
    fn check_grad(what: &str, case: &Case, tol: f32) {
        let g = Graph::new();
        let p = Param::new("x", case.x0.clone());
        let x = if case.param {
            g.param(&p)
        } else {
            g.leaf(case.x0.clone())
        };
        let y = (case.build)(&g, &x);
        assert_eq!(y.value().len(), 1, "{what}: the case must end in a scalar");
        y.backward();
        let auto = x.grad().expect("the sweep reaches the input");
        if case.param {
            assert_eq!(p.grad().data(), auto.data(), "{what}: param writeback");
        }
        let num = numeric_grad(&case.x0, |xv| {
            let g2 = Graph::new();
            let x2 = g2.leaf(xv.clone());
            (case.build)(&g2, &x2).value().scalar()
        });
        for (i, (&a, &n)) in auto.data().iter().zip(num.data()).enumerate() {
            assert!(
                (a - n).abs() <= tol * (1.0 + n.abs()),
                "{what}: grad mismatch at {i}: autodiff {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn every_op_backward_matches_finite_differences() {
        let ops = every_op();
        let mut names: Vec<&str> = ops.iter().map(Op::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ops.len(), "one exemplar per variant");
        for op in &ops {
            let cases = gradchecks(op);
            assert!(!cases.is_empty(), "{op}: no gradcheck");
            for (k, case) in cases.iter().enumerate() {
                let what = format!("{op} case {k}");
                // The case must actually put the op under test on the tape.
                let g = Graph::new();
                let x = g.leaf(case.x0.clone());
                let x = if case.param {
                    g.param(&Param::new("x", case.x0.clone()))
                } else {
                    x
                };
                (case.build)(&g, &x);
                assert!(
                    g.snapshot().nodes.iter().any(|n| n.op.name() == op.name()),
                    "{what}: never records a {op} node"
                );
                check_grad(&what, case, 2e-2);
            }
        }
    }

    #[test]
    fn two_layer_network_gradcheck() {
        // A composite block close to the real model: relu(x·W1)·W2 softmaxed.
        let w1 = t(&[&[0.3, -0.2, 0.5], &[0.1, 0.4, -0.6]]);
        let w2 = t(&[&[0.7, -0.3], &[0.2, 0.9], &[-0.5, 0.1]]);
        let net = case(t(&[&[1.0, -1.5], &[0.5, 2.0]]), move |g, x| {
            let w1v = g.leaf(w1.clone());
            let w2v = g.leaf(w2.clone());
            x.matmul(&w1v)
                .relu()
                .matmul(&w2v)
                .softmax_rows()
                .square()
                .sum_all()
        });
        check_grad("two-layer network", &net, 3e-2);
    }

    #[test]
    fn a_replayed_forward_refills_its_saved_slot() {
        let x = t(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let draws = [0.1, 0.9, 0.3, 0.7, 0.2, 0.8];
        let run = |saved: &mut Saved| {
            let mut it = draws.iter().copied();
            let mut draw = || it.next().unwrap_or(0.0);
            Op::Dropout { rate: 0.5 }
                .forward(&[&x], saved, &mut draw)
                .unwrap()
        };
        let mut saved = Saved::Empty;
        let first = run(&mut saved);
        let Saved::Mask(mask) = &saved else {
            panic!("dropout saves its mask")
        };
        let buffer = mask.data().as_ptr();
        let second = run(&mut saved);
        assert_eq!(first.data(), second.data());
        assert_eq!(first.data(), &[2.0, 0.0, 6.0, 0.0, 10.0, 0.0]);
        let Saved::Mask(mask) = &saved else {
            panic!("dropout saves its mask")
        };
        assert_eq!(mask.data().as_ptr(), buffer, "the mask buffer is reused");

        let pool = Op::RowsMaxPool {
            groups: vec![vec![0, 1], vec![1]],
        };
        let mut saved = Saved::Empty;
        let y = pool.forward(&[&x], &mut saved, &mut || 0.0).unwrap();
        assert_eq!(y.data(), &[4.0, 5.0, 6.0, 4.0, 5.0, 6.0]);
        let Saved::Argmax(argmax) = &saved else {
            panic!("max-pool saves its argmax")
        };
        assert_eq!(argmax, &[1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn malformed_calls_are_errors_not_panics() {
        let x = t(&[&[1.0, 2.0]]);
        let none = &mut || 0.0;
        assert!(Op::Add.forward(&[&x], &mut Saved::Empty, none).is_err());
        assert!(Op::Leaf.forward(&[], &mut Saved::Empty, none).is_err());
        assert!(Op::Relu.backward(&x, &[&x, &x], &x, &Saved::Empty).is_err());
        // Backward before forward: the saved slot is still empty.
        let drop = Op::Dropout { rate: 0.5 };
        assert!(drop.backward(&x, &[&x], &x, &Saved::Empty).is_err());
        let pool = Op::RowsMaxPool {
            groups: vec![vec![0]],
        };
        assert!(pool.backward(&x, &[&x], &x, &Saved::Empty).is_err());
        assert!(Op::RowsMaxPool {
            groups: vec![vec![]]
        }
        .forward(&[&x], &mut Saved::Empty, none)
        .is_err());
        assert!(Op::RowsMaxPool {
            groups: vec![vec![3]]
        }
        .forward(&[&x], &mut Saved::Empty, none)
        .is_err());
        assert!(Op::SumAll.backward(&x, &[&x], &x, &Saved::Empty).is_err());
    }
}
