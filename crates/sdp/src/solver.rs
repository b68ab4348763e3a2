//! Infeasible-start primal–dual interior-point method (HKM direction,
//! Mehrotra predictor–corrector) for block SDPs with free variables.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cppll_linalg::{Cholesky, Matrix};

use cppll_trace::{FieldValue, TraceLevel, Tracer};

use crate::fault::{FaultInjector, FaultKind};
use crate::kkt::{BlockKkt, Kkt};
use crate::problem::SdpProblem;
use crate::solution::{SdpSolution, SdpStatus};
use crate::sparse::SymSparse;
use crate::stages::StageClock;

/// Tunable solver parameters.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Relative feasibility / gap tolerance for [`SdpStatus::Optimal`].
    pub tolerance: f64,
    /// Iteration limit.
    pub max_iterations: usize,
    /// Fraction-to-boundary factor (close to but below 1).
    pub step_fraction: f64,
    /// Diagonal regularisation added to the Schur complement.
    pub schur_regularization: f64,
    /// Magnitude of the quasidefinite regularisation for free variables.
    pub free_regularization: f64,
    /// Cooperative wall-clock deadline: the iteration loop checks it once
    /// per iteration and returns [`SdpStatus::DeadlineExceeded`] when it has
    /// passed. `None` (the default) disables the check.
    pub deadline: Option<Instant>,
    /// Optional fault injector (testing hook); polled once per solve.
    pub fault: Option<Arc<FaultInjector>>,
    /// Optional trace sink. At every level but `Off` each solve ends with
    /// one counter per stage clock ([`crate::STAGE_COUNTERS`], in
    /// nanoseconds) and the line-search counts; at [`TraceLevel::Solve`]
    /// the solve is wrapped in an `sdp_solve` span; at [`TraceLevel::Iter`]
    /// every interior-point iteration additionally emits an `iteration`
    /// instant with the already-computed numeric state (objectives, μ,
    /// residual norms, step lengths, per-stage times). Tracing only *reads*
    /// solver state, so results are bit-identical at every level.
    pub trace: Option<Tracer>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tolerance: 1e-7,
            max_iterations: 100,
            step_fraction: 0.95,
            schur_regularization: 1e-11,
            free_regularization: 1e-9,
            deadline: None,
            fault: None,
            trace: None,
        }
    }
}

/// Mutable interior-point iterate.
struct Iterate {
    x: Vec<Matrix>,
    s: Vec<Matrix>,
    y: Vec<f64>,
    u: Vec<f64>,
}

/// Per-iteration factorisations of one PSD block, refactored in place.
struct BlockWork {
    /// Cholesky of `Xⱼ`.
    chol_x: Cholesky,
    /// Cholesky of `Sⱼ`.
    chol_s: Cholesky,
    /// Dense `Sⱼ⁻¹`.
    s_inv: Matrix,
}

/// Search direction: the predictor's, then overwritten by the corrector's.
struct Direction {
    dx: Vec<Matrix>,
    ds: Vec<Matrix>,
    /// `(Δy, Δu)` stacked, as the KKT system solves for them.
    dyu: Vec<f64>,
}

/// Everything an interior-point iteration writes besides the iterate and
/// the KKT storage. Allocated once per solve from the block sizes, `m` and
/// `nfree`; the iterations only overwrite it, so they never allocate.
struct Workspace {
    /// Primal residual `b − A(X) − Bu`.
    rp: Vec<f64>,
    /// Per block: dual residual `Rdⱼ = Cⱼ − Sⱼ − Σᵢ yᵢ A_{ij}`.
    rd: Vec<Matrix>,
    /// Free-variable residual `f − Bᵀy`.
    rf: Vec<f64>,
    work: Vec<BlockWork>,
    schur: SchurWorkspace,
    /// Per block: `Hⱼ`, the numerator `Xⱼ Rdⱼ (+ corrector)` and the
    /// corrector term `ΔXⱼ ΔSⱼ` of the predictor direction.
    h: Vec<Matrix>,
    num: Vec<Matrix>,
    corr: Vec<Matrix>,
    /// The Newton system's right-hand side and its refinement residual.
    rhs: Vec<f64>,
    res: Vec<f64>,
    dir: Direction,
    line: LineSearch,
}

impl Workspace {
    fn new(p: &SdpProblem, schur: &SchurSymbolic) -> Workspace {
        let (m, nfree) = (p.num_constraints(), p.num_free_vars());
        let blocks =
            || -> Vec<Matrix> { p.block_dims.iter().map(|&n| Matrix::zeros(n, n)).collect() };
        Workspace {
            rp: vec![0.0; m],
            rd: blocks(),
            rf: vec![0.0; nfree],
            work: p
                .block_dims
                .iter()
                .map(|&n| BlockWork {
                    chol_x: Cholesky::identity(n),
                    chol_s: Cholesky::identity(n),
                    s_inv: Matrix::zeros(n, n),
                })
                .collect(),
            schur: SchurWorkspace::new(schur),
            h: blocks(),
            num: blocks(),
            corr: blocks(),
            rhs: vec![0.0; m + nfree],
            res: vec![0.0; m + nfree],
            dir: Direction {
                dx: blocks(),
                ds: blocks(),
                dyu: vec![0.0; m + nfree],
            },
            line: LineSearch::new(&p.block_dims),
        }
    }

    /// Bytes of `f64` (and index) storage the workspace holds.
    fn bytes(&self) -> usize {
        let mats = |ms: &[Matrix]| ms.iter().map(|a| a.as_slice().len()).sum::<usize>();
        let blocks: usize = mats(&self.rd)
            + mats(&self.h)
            + mats(&self.num)
            + mats(&self.corr)
            + mats(&self.dir.dx)
            + mats(&self.dir.ds)
            + self
                .work
                .iter()
                .map(|w| {
                    w.chol_x.l().as_slice().len()
                        + w.chol_s.l().as_slice().len()
                        + w.s_inv.as_slice().len()
                })
                .sum::<usize>();
        let vecs =
            self.rp.len() + self.rf.len() + self.rhs.len() + self.res.len() + self.dir.dyu.len();
        (blocks + vecs) * std::mem::size_of::<f64>() + self.schur.bytes() + self.line.bytes()
    }
}

pub(crate) fn solve(p: &SdpProblem, opt: &SolverOptions) -> SdpSolution {
    solve_with::<BlockKkt>(p, opt)
}

/// [`solve`] with the KKT system stored and factored by `K`.
fn solve_with<K: Kkt>(p: &SdpProblem, opt: &SolverOptions) -> SdpSolution {
    let solve_start = Instant::now();
    let mut tm = StageClock::default();
    // Block → constraints incidence, the KKT storage pattern it implies,
    // the symbolic Schur analysis (per-block active column unions,
    // per-constraint leading-zero prefixes, every pair's slot in the KKT
    // storage, and the exact count of structurally-zero Schur pairs the
    // assembly never evaluates) and the iteration workspace: all fixed for
    // the whole solve.
    let touching = incidence(p);
    let kkt = K::new(p, &touching, opt.free_regularization);
    let schur = SchurSymbolic::build(p, &touching, p.num_constraints(), |i, k| {
        kkt.schur_slot(i, k)
    });
    let ws = Workspace::new(p, &schur);
    tm.schur_symbolic += solve_start.elapsed();
    let _solve_span = opt.trace.as_ref().map(|t| {
        t.span(
            TraceLevel::Solve,
            "sdp_solve",
            format!(
                "m={} blocks={} free={} components={}",
                p.num_constraints(),
                p.num_blocks(),
                p.num_free_vars(),
                kkt.components()
            ),
        )
    });
    let sol = iterate(p, opt, &touching, &schur, kkt, ws, &mut tm);
    if let Some(t) = &opt.trace {
        tm.emit(t, solve_start.elapsed());
    }
    sol
}

/// For each block, the constraints that touch it, ascending.
fn incidence(p: &SdpProblem) -> Vec<Vec<usize>> {
    let mut touching: Vec<Vec<usize>> = vec![Vec::new(); p.num_blocks()];
    for (i, row) in p.a.iter().enumerate() {
        for (bj, _) in row {
            touching[*bj].push(i);
        }
    }
    touching
}

/// The interior-point iteration of [`solve`], inside its trace span,
/// metering its stages into `tm`. Below [`TraceLevel::Iter`] an iteration
/// allocates nothing: it only overwrites `ws`, the iterate and `kkt`.
fn iterate<K: Kkt>(
    p: &SdpProblem,
    opt: &SolverOptions,
    touching: &[Vec<usize>],
    schur_sym: &SchurSymbolic,
    mut kkt: K,
    mut ws: Workspace,
    tm: &mut StageClock,
) -> SdpSolution {
    let m = p.num_constraints();
    let nblocks = p.num_blocks();
    let nfree = p.num_free_vars();
    let n_tot: usize = p.total_psd_dim().max(1);

    // Degenerate corner: nothing to optimise.
    if m == 0 && nblocks == 0 {
        return SdpSolution {
            status: SdpStatus::Optimal,
            x: Vec::new(),
            free: vec![0.0; nfree],
            y: Vec::new(),
            s: Vec::new(),
            primal_objective: 0.0,
            dual_objective: 0.0,
            primal_infeasibility: 0.0,
            dual_infeasibility: 0.0,
            gap: 0.0,
            iterations: 0,
        };
    }

    // Constraint data norms for scaling-aware initial point.
    let mut a_norm_max: f64 = 1.0;
    let mut b_norm_max: f64 = 0.0;
    for (i, row) in p.a.iter().enumerate() {
        let mut rn = 0.0f64;
        for (_, mat) in row {
            let f = mat.norm();
            rn += f * f;
        }
        for &(_, c) in &p.bfree[i] {
            rn += c * c;
        }
        a_norm_max = a_norm_max.max(rn.sqrt());
        b_norm_max = b_norm_max.max(p.b[i].abs());
    }
    let c_norm: f64 = {
        let mut acc = 0.0f64;
        for c in &p.costs {
            acc += c.norm().powi(2);
        }
        for &f in &p.free_costs {
            acc += f * f;
        }
        acc.sqrt()
    };
    let b_norm = cppll_linalg::vec_ops::norm2(&p.b);

    // Initial point (SDPA-style magnitudes).
    let p_init = (10.0_f64)
        .max((n_tot as f64).sqrt())
        .max(10.0 * b_norm_max / a_norm_max.max(1.0));
    let d_init = (10.0_f64)
        .max((n_tot as f64).sqrt())
        .max(a_norm_max)
        .max(c_norm);
    let mut it = Iterate {
        x: p.block_dims
            .iter()
            .map(|&n| Matrix::identity(n).scale(p_init))
            .collect(),
        s: p.block_dims
            .iter()
            .map(|&n| Matrix::identity(n).scale(d_init))
            .collect(),
        y: vec![0.0; m],
        u: vec![0.0; nfree],
    };

    let mut stall_count = 0usize;
    let mut stagnation = 0usize;
    let mut prev_gap = f64::INFINITY;
    let mut last = Metrics::default();
    let mut iterations = 0usize;

    if let Some(t) = &opt.trace {
        t.counter("schur_pairs_skipped", schur_sym.pairs_skipped);
        t.counter("kkt_stored_entries", kkt.stored_entries() as u64);
        t.counter("sdp_workspace_bytes", ws.bytes() as u64);
    }

    // Fault injection (testing hook): decided once per solve, applied after
    // the first iteration's residuals are computed so the returned iterate
    // and metrics are real.
    let injected: Option<FaultKind> = opt.fault.as_deref().and_then(FaultInjector::poll);

    for iter in 0..opt.max_iterations {
        iterations = iter;
        let tm_iter = *tm;
        // ---- Residuals -------------------------------------------------
        let stage_start = Instant::now();
        // rp = b − A(X) − Bu
        p.constraint_values_into(&it.x, &it.u, &mut ws.rp);
        for (r, b) in ws.rp.iter_mut().zip(&p.b) {
            *r = b - *r;
        }
        for (j, r) in ws.rd.iter_mut().enumerate() {
            // Rdⱼ = Cⱼ − Sⱼ − Σᵢ yᵢ A_{ij}
            for (v, s) in r.as_mut_slice().iter_mut().zip(it.s[j].as_slice()) {
                *v = s * -1.0;
            }
            p.costs[j].add_scaled_into(1.0, r);
            for &i in &touching[j] {
                if it.y[i] == 0.0 {
                    continue;
                }
                for (bj, mat) in &p.a[i] {
                    if *bj == j {
                        mat.add_scaled_into(-it.y[i], r);
                    }
                }
            }
        }
        // rf = f − Bᵀy
        ws.rf.copy_from_slice(&p.free_costs);
        for (i, row) in p.bfree.iter().enumerate() {
            for &(k, c) in row {
                ws.rf[k] -= c * it.y[i];
            }
        }

        let mut xs = 0.0;
        for j in 0..nblocks {
            xs += it.x[j].dot(&it.s[j]);
        }
        let mu = xs / n_tot as f64;

        let pobj: f64 = (0..nblocks)
            .map(|j| p.costs[j].dot_dense(&it.x[j]))
            .sum::<f64>()
            + cppll_linalg::vec_ops::dot(&p.free_costs, &it.u);
        let dobj = cppll_linalg::vec_ops::dot(&p.b, &it.y);

        let pinf = cppll_linalg::vec_ops::norm2(&ws.rp) / (1.0 + b_norm);
        let dinf = {
            let mut acc = cppll_linalg::vec_ops::norm2(&ws.rf).powi(2);
            for r in &ws.rd {
                acc += r.norm().powi(2);
            }
            acc.sqrt() / (1.0 + c_norm)
        };
        let gap = (pobj - dobj).abs() / (1.0 + pobj.abs() + dobj.abs());
        let mu_rel = mu.abs() / (1.0 + pobj.abs() + dobj.abs());
        last = Metrics {
            pobj,
            dobj,
            pinf,
            dinf,
            gap,
            mu_rel,
        };
        tm.residuals += stage_start.elapsed();

        // ---- Injected faults and deadline -------------------------------
        if iter == 0 {
            if let Some(kind) = injected {
                if let Some(t) = &opt.trace {
                    t.counter("fault_injected", 1);
                }
                return finish(it, kind.status(), last, iter);
            }
        }
        if let Some(deadline) = opt.deadline {
            if Instant::now() >= deadline {
                return finish(it, SdpStatus::DeadlineExceeded, last, iter);
            }
        }

        // ---- Termination ----------------------------------------------
        if pinf < opt.tolerance && dinf < opt.tolerance && gap.max(mu_rel) < opt.tolerance {
            return finish(it, SdpStatus::Optimal, last, iter);
        }
        // Degenerate (no-strict-interior) instances: complementarity and
        // feasibility converge but the objective gap stagnates because the
        // multipliers blow up along the degenerate face. Accept the point as
        // near-optimal once the gap has stopped improving.
        if gap > 0.99 * prev_gap {
            stagnation += 1;
        } else {
            stagnation = 0;
        }
        prev_gap = gap;
        if stagnation >= 8 && pinf < 1e-5 && dinf < 1e-5 && mu_rel < 1e-6 {
            return finish(it, SdpStatus::NearOptimal, last, iter);
        }
        // Infeasibility heuristics: unbounded dual ⇒ primal infeasible.
        let scale = 1.0 + b_norm + c_norm;
        if dobj > 1e9 * scale && dinf < 1e-4 {
            return finish(it, SdpStatus::PrimalInfeasibleLikely, last, iter);
        }
        if pobj < -1e9 * scale && pinf < 1e-4 {
            return finish(it, SdpStatus::DualInfeasibleLikely, last, iter);
        }

        // ---- Factorisations --------------------------------------------
        let stage_start = Instant::now();
        let factored = ws.work.iter_mut().enumerate().all(|(j, w)| {
            let ok = robust_cholesky(&it.x[j], &mut w.chol_x)
                && robust_cholesky(&it.s[j], &mut w.chol_s);
            if ok {
                w.chol_s.inverse_into(&mut w.s_inv);
            }
            ok
        });
        tm.factorizations += stage_start.elapsed();
        if !factored {
            return finish(it, SdpStatus::Stalled, last, iter);
        }

        // ---- Schur complement -------------------------------------------
        // The free-variable coupling `B` and the `−δI` block are constant,
        // stored once by the KKT system.
        let stage_start = Instant::now();
        assemble_schur(
            p,
            touching,
            schur_sym,
            &it.x,
            &ws.work,
            &mut ws.schur,
            kkt.schur_values(),
        );
        kkt.finish_assembly(opt.schur_regularization);
        tm.schur_assembly += stage_start.elapsed();
        let stage_start = Instant::now();
        if kkt.factor(opt.free_regularization.max(1e-13)).is_err() {
            return finish(it, SdpStatus::Stalled, last, iter);
        }
        tm.kkt_factor += stage_start.elapsed();

        // ---- Predictor (affine) direction --------------------------------
        let stage_start = Instant::now();
        compute_direction(p, &it, touching, &kkt, 0.0, mu, false, &mut ws);
        tm.kkt_solve += stage_start.elapsed();
        let stage_start = Instant::now();
        let (ap_aff, ad_aff) = step_lengths(&ws.dir, &ws.work, 1.0, tm, &mut ws.line);
        // μ_aff at the trial iterate `(X + αp ΔX, S + αd ΔS)`, entry by
        // entry, the blocks summed in ascending order.
        let xs_aff: f64 = (0..nblocks)
            .map(|j| {
                let (x, dx) = (it.x[j].as_slice(), ws.dir.dx[j].as_slice());
                let (s, ds) = (it.s[j].as_slice(), ws.dir.ds[j].as_slice());
                x.iter()
                    .zip(dx)
                    .zip(s.iter().zip(ds))
                    .map(|((x, dx), (s, ds))| (x + ap_aff * dx) * (s + ad_aff * ds))
                    .sum::<f64>()
            })
            .sum();
        let mu_aff = xs_aff / n_tot as f64;
        let sigma = ((mu_aff / mu).max(0.0).powi(3)).clamp(1e-6, 1.0);
        tm.line_search += stage_start.elapsed();

        // ---- Corrector direction -----------------------------------------
        let stage_start = Instant::now();
        for (j, cj) in ws.corr.iter_mut().enumerate() {
            ws.dir.dx[j].matmul_into(&ws.dir.ds[j], cj);
        }
        compute_direction(p, &it, touching, &kkt, sigma, mu, true, &mut ws);
        tm.kkt_solve += stage_start.elapsed();
        let tau = if iter < 4 { opt.step_fraction } else { 0.98 };
        let stage_start = Instant::now();
        let (ap, ad) = step_lengths(&ws.dir, &ws.work, tau, tm, &mut ws.line);
        tm.line_search += stage_start.elapsed();

        if ap < 1e-4 && ad < 1e-4 {
            stall_count += 1;
            if stall_count >= 4 {
                // Weakly infeasible or numerically exhausted.
                let status = near_status(&last, opt);
                return finish(it, status, last, iter);
            }
        } else {
            stall_count = 0;
        }

        // ---- Update -------------------------------------------------------
        let dir = &ws.dir;
        for j in 0..nblocks {
            it.x[j].axpy(ap, &dir.dx[j]);
            it.x[j].symmetrize();
            it.s[j].axpy(ad, &dir.ds[j]);
            it.s[j].symmetrize();
        }
        let (dy, du) = dir.dyu.split_at(m);
        for (u, du) in it.u.iter_mut().zip(du) {
            *u += ap * du;
        }
        for (y, dy) in it.y.iter_mut().zip(dy) {
            *y += ad * dy;
        }

        // ---- Telemetry ----------------------------------------------------
        // Strictly read-only: copies of already-computed values, emitted
        // after the iterate update so the numerics above are untouched.
        if let Some(t) = &opt.trace {
            if t.enabled(TraceLevel::Iter) {
                let secs = |d: Duration| -> FieldValue { d.as_secs_f64().into() };
                t.instant(
                    TraceLevel::Iter,
                    "iteration",
                    vec![
                        ("iter", (iter as u64).into()),
                        ("pobj", pobj.into()),
                        ("dobj", dobj.into()),
                        ("mu", mu.into()),
                        ("pinf", pinf.into()),
                        ("dinf", dinf.into()),
                        ("gap", gap.into()),
                        ("sigma", sigma.into()),
                        ("ap", ap.into()),
                        ("ad", ad.into()),
                        ("ap_aff", ap_aff.into()),
                        ("ad_aff", ad_aff.into()),
                        ("blocks", (nblocks as u64).into()),
                        ("residuals_s", secs(tm.residuals - tm_iter.residuals)),
                        (
                            "factorizations_s",
                            secs(tm.factorizations - tm_iter.factorizations),
                        ),
                        (
                            "schur_assembly_s",
                            secs(tm.schur_assembly - tm_iter.schur_assembly),
                        ),
                        ("kkt_factor_s", secs(tm.kkt_factor - tm_iter.kkt_factor)),
                        ("kkt_solve_s", secs(tm.kkt_solve - tm_iter.kkt_solve)),
                        ("line_search_s", secs(tm.line_search - tm_iter.line_search)),
                        ("schur_pairs_skipped", schur_sym.pairs_skipped.into()),
                    ],
                );
            }
        }
    }

    let status = near_status(&last, opt);
    finish(it, status, last, iterations)
}

/// Lanes per sub-panel of the lane-major Schur workspace. A sub-panel holds
/// whole active columns — every touching constraint of each — so it is
/// `max(1, ⌊SCHUR_PANEL_LANES / K⌋)` columns wide for `K` touching
/// constraints: about 2 KiB per row, which keeps a sub-panel of the largest
/// Gram blocks in cache while the triangular sweeps stream over it.
const SCHUR_PANEL_LANES: usize = 256;

/// Lanes a triangular sweep keeps in registers while it walks the rows it
/// subtracts.
const SWEEP_TILE: usize = 16;

/// Per-solve symbolic analysis of the Schur assembly.
///
/// Computed once from the constraint supports (the iterate values never
/// change the structure): for each block, the sorted union of the touching
/// constraints' supports — the only columns of `T = S⁻¹AX` the pair
/// products ever read — the smallest first structurally-nonzero row of the
/// touching constraints, below which a forward substitution against
/// `A_{ij} Xⱼ` only moves zeros, and every constraint's pair-product terms
/// resolved to offsets in the lane-major workspace. Also sizes the flat
/// workspaces and counts, exactly, the structurally-zero Schur pairs
/// `(i, k)` that share no block and are therefore never evaluated.
struct SchurSymbolic {
    /// Per block: sorted union of the supports of all touching constraints.
    active_cols: Vec<Vec<usize>>,
    /// Per block: smallest first structurally-nonzero row of the touching
    /// `A_{ij}` (the block dimension when all of them are empty).
    first_row: Vec<usize>,
    /// Per block: active columns per sub-panel of the `T` workspace.
    panel_cols: Vec<usize>,
    /// Per block, per touching constraint: the `dot_general` terms of
    /// `A_{ij}` in order, as `(offset of lane (a, 0) at row r, weight)` for
    /// the term that reads `T[r, active[a]]`.
    terms: Vec<Vec<Vec<(usize, f64)>>>,
    /// Per block: the KKT storage slot of each pair product, in the order of
    /// the triangular pair buffer (touching constraint `a`, then `b ≤ a`).
    slots: Vec<Vec<u32>>,
    /// Capacity of the flat `T` workspace: `max_j n_j · |active_j| · |cons_j|`.
    ts_cap: usize,
    /// Capacity of the flat pair-product buffer: `max_j C(|cons_j|+1, 2)`.
    rows_cap: usize,
    /// Capacity of a sweep row's coefficients: `max_j n_j`.
    coef_cap: usize,
    /// `C(m+1, 2)` minus the number of distinct interacting pairs: the
    /// Schur entries provably zero by structure, skipped per assembly pass.
    pairs_skipped: u64,
}

impl SchurSymbolic {
    /// `slot(i, k)` is the KKT storage index of the Schur entry `M[i,k]`,
    /// `i ≥ k`.
    fn build(
        p: &SdpProblem,
        touching: &[Vec<usize>],
        m: usize,
        slot: impl Fn(usize, usize) -> usize,
    ) -> SchurSymbolic {
        let nblocks = touching.len();
        let mut sym = SchurSymbolic {
            active_cols: vec![Vec::new(); nblocks],
            first_row: vec![0; nblocks],
            panel_cols: vec![1; nblocks],
            terms: vec![Vec::new(); nblocks],
            slots: vec![Vec::new(); nblocks],
            ts_cap: 0,
            rows_cap: 0,
            coef_cap: 0,
            pairs_skipped: 0,
        };
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (j, cons) in touching.iter().enumerate() {
            if cons.is_empty() {
                continue;
            }
            let n = p.block_dims[j];
            let kc = cons.len();
            let mut union: Vec<usize> = Vec::new();
            let mut first = n;
            for &i in cons {
                let a_ij = constraint_block(p, i, j);
                union.extend(a_ij.support());
                first = first.min(a_ij.min_support().unwrap_or(n));
            }
            union.sort_unstable();
            union.dedup();
            // Sub-panel `s` holds active columns `[s·cols, (s+1)·cols)`, row
            // after row; a row holds lanes `(a, k)` with `k` fastest. Only
            // the last sub-panel can be narrower.
            let cols = (SCHUR_PANEL_LANES / kc).clamp(1, union.len().max(1));
            let offset = |r: usize, a: usize| {
                let s = a / cols;
                let width = (union.len() - s * cols).min(cols) * kc;
                s * n * cols * kc + r * width + (a - s * cols) * kc
            };
            sym.terms[j] = cons
                .iter()
                .map(|&i| {
                    constraint_block(p, i, j)
                        .general_terms()
                        .iter()
                        .map(|&(idx, w)| {
                            // Column-major index: column `idx / n`, row `idx % n`.
                            let a = union
                                .binary_search(&(idx / n))
                                .expect("term column outside the active union");
                            (offset(idx % n, a), w)
                        })
                        .collect()
                })
                .collect();
            for (a, &ia) in cons.iter().enumerate() {
                for &ib in &cons[..=a] {
                    pairs.push((ia as u32, ib as u32));
                    let at = slot(ia, ib);
                    sym.slots[j].push(u32::try_from(at).expect("KKT storage beyond u32 slots"));
                }
            }
            sym.ts_cap = sym.ts_cap.max(n * union.len() * kc);
            sym.rows_cap = sym.rows_cap.max(kc * (kc + 1) / 2);
            sym.coef_cap = sym.coef_cap.max(n);
            sym.panel_cols[j] = cols;
            sym.first_row[j] = first;
            sym.active_cols[j] = union;
        }
        pairs.sort_unstable();
        pairs.dedup();
        let total = (m as u64) * (m as u64 + 1) / 2;
        sym.pairs_skipped = total - pairs.len() as u64;
        sym
    }
}

/// Flat, iteration-persistent scratch for [`assemble_schur`]: one buffer
/// for a block's lane-major `T` values, one triangular buffer for the pair
/// products and the coefficients of one triangular-sweep row, sized once
/// from the symbolic analysis.
struct SchurWorkspace {
    ts: Vec<f64>,
    rows: Vec<f64>,
    coef: Vec<(usize, f64)>,
}

impl SchurWorkspace {
    fn new(sym: &SchurSymbolic) -> SchurWorkspace {
        SchurWorkspace {
            ts: vec![0.0; sym.ts_cap],
            rows: vec![0.0; sym.rows_cap],
            coef: Vec::with_capacity(sym.coef_cap),
        }
    }

    fn bytes(&self) -> usize {
        (self.ts.len() + self.rows.len()) * std::mem::size_of::<f64>()
            + self.coef.capacity() * std::mem::size_of::<(usize, f64)>()
    }
}

/// Assembles the Schur complement `M_{ik} = Σⱼ tr(A_{ij} Sⱼ⁻¹ A_{kj} Xⱼ)`,
/// lower triangle, into the KKT storage `kkt` (zeroed by the caller) at the
/// slots of the symbolic analysis.
///
/// Per block, `T = S⁻¹AX` is formed only at the active columns (the support
/// union from the symbolic analysis — the only columns `dot_general`
/// reads), lane-major: each row of the workspace holds every lane `(a, k)`
/// (active column `a`, touching constraint `k`), so one forward and one
/// backward sweep over whole rows solve all `|active|·K` right-hand sides
/// at once, with a tile of lanes held in registers. The pair products are
/// then contiguous axpys over `k`.
///
/// Every computed value is bit-identical to the dense reference
/// (`assemble_schur_dense_for_tests`): each lane takes the same
/// floating-point operations in the same order as a column-at-a-time
/// `Cholesky::solve_in_place` of `A_k X`, and each pair product the same
/// terms in the same order as `dot_general`. The forward sweep starts at
/// the block's smallest first row; a lane whose own first row is later
/// only sees `row -= l·(+0.0)` and `+0.0 / d` there, which leave its values
/// unchanged down to the sign of zero (`A_k X` is zero-filled and so never
/// holds `-0.0`).
///
/// The accumulation into `kkt` runs in fixed `(block, row, column)` order.
fn assemble_schur(
    p: &SdpProblem,
    touching: &[Vec<usize>],
    sym: &SchurSymbolic,
    x: &[Matrix],
    work: &[BlockWork],
    ws: &mut SchurWorkspace,
    kkt: &mut [f64],
) {
    for (j, cons) in touching.iter().enumerate() {
        if cons.is_empty() {
            continue;
        }
        let n = x[j].nrows();
        let kc = cons.len();
        let active = &sym.active_cols[j][..];
        let first = sym.first_row[j];
        let cols = sym.panel_cols[j];
        let l = work[j].chol_s.l();
        let ts = &mut ws.ts[..n * active.len() * kc];
        for (s, panel) in ts.chunks_mut(n * cols * kc).enumerate() {
            let width = panel.len() / n;
            let a0 = s * cols;
            // A_k X at this sub-panel's columns, each output accumulated in
            // entry order from an exact +0.0.
            panel.fill(0.0);
            for (k, &i) in cons.iter().enumerate() {
                for &(r, c, v) in constraint_block(p, i, j).raw_entries() {
                    for (t, &col) in active[a0..a0 + width / kc].iter().enumerate() {
                        let xcol = x[j].col(col);
                        let lane = t * kc + k;
                        panel[r * width + lane] += v * xcol[c];
                        if r != c {
                            panel[c * width + lane] += v * xcol[r];
                        }
                    }
                }
            }
            // L Y = A X, row i after rows first..i (ascending), then Lᵀ T = Y,
            // row i after rows i+1..n (ascending).
            let coef = &mut ws.coef;
            for i in first..n {
                let (done, rest) = panel.split_at_mut(i * width);
                coef.clear();
                coef.extend((first..i).map(|q| (q * width, l[(i, q)])));
                sweep_row(&mut rest[..width], done, coef, l[(i, i)]);
            }
            for i in (0..n).rev() {
                let (head, rest) = panel.split_at_mut((i + 1) * width);
                coef.clear();
                coef.extend(((i + 1)..n).map(|q| ((q - i - 1) * width, l[(q, i)])));
                sweep_row(&mut head[i * width..], rest, coef, l[(i, i)]);
            }
        }
        let ts = &ws.ts[..n * active.len() * kc];
        // Lower-triangle pair products into the flat triangular buffer,
        // one variable-length row per constraint: row `idx` holds `idx + 1`.
        let npairs = kc * (kc + 1) / 2;
        for (idx, row_terms) in sym.terms[j].iter().enumerate() {
            let row = &mut ws.rows[idx * (idx + 1) / 2..][..idx + 1];
            row.fill(0.0);
            let len = row.len();
            for &(off, w) in row_terms {
                for (slot, &t) in row.iter_mut().zip(&ts[off..off + len]) {
                    *slot += w * t;
                }
            }
        }
        for (&v, &at) in ws.rows[..npairs].iter().zip(&sym.slots[j]) {
            kkt[at as usize] += v;
        }
    }
}

/// One row of a lane-major triangular sweep: `row[t] = (row[t] −
/// Σ_q l_q·src[off_q + t]) / d` for every lane `t`, the subtractions in
/// `coef` order and the division last, each lane exactly as a scalar
/// substitution would compute it. [`SWEEP_TILE`] lanes at a time stay in
/// registers across the whole `coef` walk.
fn sweep_row(row: &mut [f64], src: &[f64], coef: &[(usize, f64)], d: f64) {
    let mut tiles = row.chunks_exact_mut(SWEEP_TILE);
    let mut t0 = 0;
    for tile in &mut tiles {
        let mut acc = [0.0f64; SWEEP_TILE];
        acc.copy_from_slice(tile);
        for &(off, lq) in coef {
            let s = &src[off + t0..off + t0 + SWEEP_TILE];
            for (a, &v) in acc.iter_mut().zip(s) {
                *a -= lq * v;
            }
        }
        for (out, a) in tile.iter_mut().zip(acc) {
            *out = a / d;
        }
        t0 += SWEEP_TILE;
    }
    for (t, out) in tiles.into_remainder().iter_mut().enumerate() {
        let mut a = *out;
        for &(off, lq) in coef {
            a -= lq * src[off + t0 + t];
        }
        *out = a / d;
    }
}

/// Testing hook: the solver's Schur-complement assembly, exposed so
/// integration tests can pin it against a dense reference. `x` and `s` are
/// per-block symmetric positive-definite iterate matrices. Only built with
/// the `oracle` feature; not part of the public API.
#[cfg(feature = "oracle")]
#[doc(hidden)]
pub fn assemble_schur_for_tests(p: &SdpProblem, x: &[Matrix], s: &[Matrix]) -> Matrix {
    let mut p = p.clone();
    p.normalize();
    let m = p.num_constraints();
    let nblocks = p.num_blocks();
    let touching = incidence(&p);
    let work: Vec<BlockWork> = (0..nblocks)
        .map(|j| {
            let chol_x = x[j].cholesky().expect("X block must be SPD");
            let chol_s = s[j].cholesky().expect("S block must be SPD");
            let s_inv = chol_s.inverse();
            BlockWork {
                chol_x,
                chol_s,
                s_inv,
            }
        })
        .collect();
    let sym = SchurSymbolic::build(&p, &touching, m, |i, k| k * m + i);
    let mut ws = SchurWorkspace::new(&sym);
    let mut kkt = Matrix::zeros(m, m);
    assemble_schur(&p, &touching, &sym, x, &work, &mut ws, kkt.as_mut_slice());
    for c in 0..m {
        for r in (c + 1)..m {
            kkt[(c, r)] = kkt[(r, c)];
        }
    }
    kkt
}

/// Testing hook: the pre-sparsity dense Schur assembly (full `mul_dense`,
/// full-column triangular solves, per-call allocations), kept verbatim as
/// the bit-exactness oracle for the sparse path. Only built with the
/// `oracle` feature; not part of the public API.
#[cfg(feature = "oracle")]
#[doc(hidden)]
pub fn assemble_schur_dense_for_tests(p: &SdpProblem, x: &[Matrix], s: &[Matrix]) -> Matrix {
    let mut p = p.clone();
    p.normalize();
    let m = p.num_constraints();
    let nblocks = p.num_blocks();
    let touching = incidence(&p);
    let work: Vec<BlockWork> = (0..nblocks)
        .map(|j| {
            let chol_x = x[j].cholesky().expect("X block must be SPD");
            let chol_s = s[j].cholesky().expect("S block must be SPD");
            let s_inv = chol_s.inverse();
            BlockWork {
                chol_x,
                chol_s,
                s_inv,
            }
        })
        .collect();
    let mut kkt = Matrix::zeros(m, m);
    for (j, cons) in touching.iter().enumerate() {
        if cons.is_empty() {
            continue;
        }
        let ts: Vec<Matrix> = cons
            .iter()
            .map(|&i| {
                let a_ij = constraint_block(&p, i, j);
                let ax = a_ij.mul_dense(&x[j]);
                work[j].chol_s.solve_matrix(&ax)
            })
            .collect();
        let rows: Vec<Vec<f64>> = cons
            .iter()
            .enumerate()
            .map(|(idx, &i)| {
                let a_ij = constraint_block(&p, i, j);
                ts[..=idx].iter().map(|t2| a_ij.dot_general(t2)).collect()
            })
            .collect();
        for (idx, row) in rows.iter().enumerate() {
            let i = cons[idx];
            for (k, &v) in row.iter().enumerate() {
                let i2 = cons[k];
                kkt[(i, i2)] += v;
                if i != i2 {
                    kkt[(i2, i)] += v;
                }
            }
        }
    }
    kkt
}

#[derive(Default, Clone, Copy)]
struct Metrics {
    pobj: f64,
    dobj: f64,
    pinf: f64,
    dinf: f64,
    gap: f64,
    mu_rel: f64,
}

fn near_status(m: &Metrics, opt: &SolverOptions) -> SdpStatus {
    let loose = (opt.tolerance * 1e3).min(1e-4);
    if m.pinf < loose && m.dinf < loose && (m.gap < loose || m.mu_rel < 1e-6) {
        SdpStatus::NearOptimal
    } else if m.pinf > 1e-4 && m.mu_rel < 1e-7 {
        // Complementarity converged while primal feasibility cannot: the
        // classic footprint of primal infeasibility under HKM.
        SdpStatus::PrimalInfeasibleLikely
    } else {
        SdpStatus::MaxIterations
    }
}

fn finish(it: Iterate, status: SdpStatus, m: Metrics, iterations: usize) -> SdpSolution {
    SdpSolution {
        status,
        x: it.x,
        free: it.u,
        y: it.y,
        s: it.s,
        primal_objective: m.pobj,
        dual_objective: m.dobj,
        primal_infeasibility: m.pinf,
        dual_infeasibility: m.dinf,
        gap: m.gap,
        iterations: iterations + 1,
    }
}

/// Refactors `chol` from `a`, with one retry after a small diagonal
/// nudge; `false` when both fail.
fn robust_cholesky(a: &Matrix, chol: &mut Cholesky) -> bool {
    if chol.refactor(a).is_ok() {
        return true;
    }
    let bump = 1e-12 * a.trace().abs().max(1.0) / a.nrows() as f64;
    chol.refactor_shifted(a, bump).is_ok()
}

/// The `A_{ij}` matrix of constraint `i` on block `j`.
///
/// # Panics
///
/// Panics if the constraint does not touch the block (callers iterate
/// incidence lists, so this is an internal invariant).
fn constraint_block(p: &SdpProblem, i: usize, j: usize) -> &SymSparse {
    p.a[i]
        .iter()
        .find(|(bj, _)| *bj == j)
        .map(|(_, m)| m)
        .expect("incidence list out of sync")
}

/// Solves the Newton system for a given centring parameter, with the
/// corrector term `ws.corr` when `corrector` is set, into `ws.dir`.
#[allow(clippy::too_many_arguments)]
fn compute_direction<K: Kkt>(
    p: &SdpProblem,
    it: &Iterate,
    touching: &[Vec<usize>],
    kkt: &K,
    sigma: f64,
    mu: f64,
    corrector: bool,
    ws: &mut Workspace,
) {
    let m = p.num_constraints();
    let Workspace {
        rp,
        rd,
        rf,
        work,
        h,
        num,
        corr,
        rhs,
        res,
        dir,
        ..
    } = ws;

    // Hⱼ = σμ Sⱼ⁻¹ − Xⱼ − (corrⱼ + Xⱼ Rdⱼ) Sⱼ⁻¹.
    for (j, (hj, num)) in h.iter_mut().zip(num.iter_mut()).enumerate() {
        it.x[j].matmul_into(&rd[j], num);
        if corrector {
            num.axpy(1.0, &corr[j]);
        }
        num.matmul_into(&work[j].s_inv, hj);
        for v in hj.as_mut_slice() {
            *v = -*v;
        }
        hj.axpy(-1.0, &it.x[j]);
        if sigma != 0.0 {
            hj.axpy(sigma * mu, &work[j].s_inv);
        }
    }

    // RHS: r1ᵢ = rpᵢ − Σⱼ ⟨A_{ij}, Hⱼ⟩  (⟨·,·⟩ against the non-symmetric H).
    rhs[..m].copy_from_slice(rp);
    for (j, hj) in h.iter().enumerate() {
        for &i in &touching[j] {
            let a_ij = constraint_block(p, i, j);
            rhs[i] -= a_ij.dot_general(hj);
        }
    }
    rhs[m..].copy_from_slice(rf);

    kkt.solve_refined(rhs, &mut dir.dyu, res);
    let dy = &dir.dyu[..m];

    // dSⱼ = Rdⱼ − Pⱼ and dXⱼ = Hⱼ + Xⱼ Pⱼ Sⱼ⁻¹ with Pⱼ = Σᵢ dyᵢ A_{ij}:
    // Pⱼ is summed into dSⱼ, and `num` holds Xⱼ Pⱼ.
    for j in 0..it.x.len() {
        let (dxj, dsj) = (&mut dir.dx[j], &mut dir.ds[j]);
        dsj.set_zero();
        for &i in &touching[j] {
            if dy[i] == 0.0 {
                continue;
            }
            constraint_block(p, i, j).add_scaled_into(dy[i], dsj);
        }
        it.x[j].matmul_into(dsj, &mut num[j]);
        num[j].matmul_into(&work[j].s_inv, dxj);
        dxj.axpy(1.0, &h[j]);
        dxj.symmetrize();
        for (d, r) in dsj.as_mut_slice().iter_mut().zip(rd[j].as_slice()) {
            *d = r - *d;
        }
    }
}

/// The line search's scratch: the whitened direction of every block, the
/// order the blocks are visited in, and one working matrix for the
/// whitening and Jacobi and one buffer for the definiteness test, both
/// sized for the largest block.
struct LineSearch {
    whitened: Vec<Matrix>,
    order: Vec<(f64, usize)>,
    eig: Matrix,
    chol: Vec<f64>,
}

impl LineSearch {
    fn new(dims: &[usize]) -> LineSearch {
        let nmax = dims.iter().copied().max().unwrap_or(0);
        LineSearch {
            whitened: dims.iter().map(|&n| Matrix::zeros(n, n)).collect(),
            order: Vec::with_capacity(dims.len()),
            eig: Matrix::zeros(nmax, nmax),
            chol: Vec::with_capacity(nmax * nmax),
        }
    }

    fn bytes(&self) -> usize {
        let f64s = self
            .whitened
            .iter()
            .map(|w| w.as_slice().len())
            .sum::<usize>()
            + self.eig.as_slice().len()
            + self.chol.capacity();
        f64s * std::mem::size_of::<f64>()
            + self.order.capacity() * std::mem::size_of::<(f64, usize)>()
    }
}

/// Fraction-to-boundary step lengths `(αp, αd)`: the largest steps keeping
/// `X + αp ΔX ≻ 0` and `S + αd ΔS ≻ 0`, scaled by `tau` and capped at 1.
fn step_lengths(
    dir: &Direction,
    work: &[BlockWork],
    tau: f64,
    tm: &mut StageClock,
    ls: &mut LineSearch,
) -> (f64, f64) {
    let ap = boundary_step(|j| &work[j].chol_x, &dir.dx, tau, tm, ls);
    let ad = boundary_step(|j| &work[j].chol_s, &dir.ds, tau, tm, ls);
    (ap, ad)
}

/// `min(1, minⱼ τ·(−1/λⱼ))` over the blocks whose whitened direction
/// `Wⱼ = Lⱼ⁻¹ Dⱼ Lⱼ⁻ᵀ` (`Mⱼ = Lⱼ Lⱼᵀ` is `factor(j)`) has
/// `λⱼ = λ_min(Wⱼ) < −1e-14`: the largest step, scaled by `tau`, keeping
/// every `Mⱼ + α Dⱼ ≻ 0`.
///
/// Only the block with the most negative `λⱼ` decides the answer, so Jacobi
/// runs only where a shifted Cholesky test cannot rule a block out. Blocks
/// are visited by their smallest diagonal entry (an upper bound on `λⱼ`),
/// most negative first, against a bar that starts at `−tau`, the full-step
/// cap, and falls to the lowest eigenvalue found so far. A block is skipped
/// when `Wⱼ + shift·I ≻ 0` with `shift = −bar − margin`, i.e. when
/// `λⱼ > bar + margin`; the margin, `1e-6·|bar| + 1e3·n·ε·max(1, ‖Wⱼ‖_F)`,
/// exceeds both the Jacobi error and the Cholesky backward error. A skipped
/// block therefore has a Jacobi eigenvalue above the bar: either above
/// `−tau·(1 − 1e-6)`, whose step rounds to more than 1, or above an
/// eigenvalue already taken, whose step is no smaller because the rounding
/// of `τ·(−1/λ)` is monotone in `λ`. `min` is exact, so neither the skips
/// nor the visiting order change a bit of the result.
/// Debug builds check every call against the unpruned search, which takes
/// the minimum eigenvalue of every whitened block.
fn boundary_step<'a>(
    factor: impl Fn(usize) -> &'a Cholesky,
    dirs: &[Matrix],
    tau: f64,
    tm: &mut StageClock,
    ls: &mut LineSearch,
) -> f64 {
    let LineSearch {
        whitened,
        order,
        eig,
        chol,
    } = ls;
    for (j, (d, w)) in dirs.iter().zip(whitened.iter_mut()).enumerate() {
        factor(j).whiten_into(d, eig, w);
    }
    order.clear();
    order.extend(
        whitened
            .iter()
            .map(|w| {
                (0..w.nrows())
                    .map(|i| w[(i, i)])
                    .fold(f64::INFINITY, f64::min)
            })
            .zip(0..),
    );
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut best: f64 = 1.0;
    let mut bar = -tau;
    for &(_, j) in order.iter() {
        let w = &whitened[j];
        tm.step_tests += 1;
        let n = w.nrows() as f64;
        let margin = 1e-6 * bar.abs() + 1e3 * n * f64::EPSILON * w.norm().max(1.0);
        let shift = -bar - margin;
        if shift > 0.0 && cppll_linalg::is_positive_definite_shifted(w, shift, chol) {
            continue;
        }
        tm.step_eigensolves += 1;
        let lmin = cppll_linalg::jacobi_min_eigenvalue_with(w, eig);
        if lmin >= -1e-14 {
            continue;
        }
        best = best.min(tau * (-1.0 / lmin));
        bar = bar.min(lmin);
    }
    #[cfg(debug_assertions)]
    {
        let mut unpruned: f64 = 1.0;
        for w in whitened.iter() {
            let lmin = cppll_linalg::jacobi_min_eigenvalue_with(w, eig);
            if lmin < -1e-14 {
                unpruned = unpruned.min(tau * (-1.0 / lmin));
            }
        }
        assert_eq!(
            best.to_bits(),
            unpruned.to_bits(),
            "pruned line search {best:e} differs from the unpruned search {unpruned:e}"
        );
    }
    best
}

/// The unpruned line search, kept as the bit-exactness oracle for
/// [`boundary_step`]: a full eigendecomposition of every whitened block.
#[cfg(test)]
fn boundary_step_oracle<'a>(
    factor: impl Fn(usize) -> &'a Cholesky,
    dirs: &[Matrix],
    tau: f64,
) -> f64 {
    let mut a: f64 = 1.0;
    for (j, d) in dirs.iter().enumerate() {
        a = a.min(tau * max_step(factor(j), d));
    }
    a.min(1.0)
}

/// Largest `α` with `M + α D ⪰ 0` given the Cholesky factor of `M ≻ 0`:
/// `α = −1/λ_min(L⁻¹ D L⁻ᵀ)` when the minimum eigenvalue is negative.
#[cfg(test)]
fn max_step(chol: &Cholesky, d: &Matrix) -> f64 {
    let w = chol.whiten(d);
    let lmin = w.symmetric_eigen().min_eigenvalue();
    if lmin >= -1e-14 {
        f64::INFINITY
    } else {
        -1.0 / lmin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SdpProblem;

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn min_trace_with_diag_constraints() {
        // min tr X s.t. X11 = 1, X22 = 2 ⇒ optimum X = diag(1,2) (off-diag 0).
        let mut p = SdpProblem::new();
        let b = p.add_psd_block(2);
        p.set_block_cost_identity(b, 1.0);
        let c1 = p.add_constraint(1.0);
        p.set_entry(c1, b, 0, 0, 1.0);
        let c2 = p.add_constraint(2.0);
        p.set_entry(c2, b, 1, 1, 1.0);
        let sol = p.solve(&opts());
        assert!(sol.is_ok(), "{sol}");
        assert!((sol.primal_objective - 3.0).abs() < 1e-5, "{sol}");
        assert!(sol.x[0][(0, 1)].abs() < 1e-4);
    }

    #[test]
    fn max_eigenvalue_lmi() {
        // max y s.t. A − y I ⪰ 0 where A = [[2,1],[1,2]] ⇒ y* = λ_min(A) = 1.
        // Primal form: min ⟨A, X⟩ s.t. ⟨I, X⟩ = 1, X ⪰ 0.
        let mut p = SdpProblem::new();
        let b = p.add_psd_block(2);
        p.set_cost_entry(b, 0, 0, 2.0);
        p.set_cost_entry(b, 0, 1, 1.0);
        p.set_cost_entry(b, 1, 1, 2.0);
        let c = p.add_constraint(1.0);
        p.set_entry(c, b, 0, 0, 1.0);
        p.set_entry(c, b, 1, 1, 1.0);
        let sol = p.solve(&opts());
        assert!(sol.is_ok(), "{sol}");
        assert!((sol.primal_objective - 1.0).abs() < 1e-5, "{sol}");
        assert!((sol.dual_objective - 1.0).abs() < 1e-5, "{sol}");
    }

    #[test]
    fn free_variables_shift_solution() {
        // min tr X s.t. X11 + u = 3, X22 - u = 1, X ⪰ 0, u free.
        // tr X = X11 + X22 = 4 - 0 (independent of u? X11 = 3-u, X22 = 1+u,
        // sum = 4) ⇒ optimum 4 with off-diagonals 0; u interior.
        let mut p = SdpProblem::new();
        let b = p.add_psd_block(2);
        p.set_block_cost_identity(b, 1.0);
        let u = p.add_free_var(0.0);
        let c1 = p.add_constraint(3.0);
        p.set_entry(c1, b, 0, 0, 1.0);
        p.set_free_coeff(c1, u, 1.0);
        let c2 = p.add_constraint(1.0);
        p.set_entry(c2, b, 1, 1, 1.0);
        p.set_free_coeff(c2, u, -1.0);
        let sol = p.solve(&opts());
        assert!(sol.is_ok(), "{sol}");
        assert!((sol.primal_objective - 4.0).abs() < 1e-4, "{sol}");
        // Feasibility of the returned point.
        let vals = p.constraint_values(&sol.x, &sol.free);
        assert!((vals[0] - 3.0).abs() < 1e-5);
        assert!((vals[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn two_blocks_couple_through_constraint() {
        // min tr X + tr Y s.t. X11 + Y11 = 2, X,Y ⪰ 0 (1x1 blocks ⇒ LP).
        let mut p = SdpProblem::new();
        let bx = p.add_psd_block(1);
        let by = p.add_psd_block(1);
        p.set_block_cost_identity(bx, 1.0);
        p.set_block_cost_identity(by, 3.0);
        let c = p.add_constraint(2.0);
        p.set_entry(c, bx, 0, 0, 1.0);
        p.set_entry(c, by, 0, 0, 1.0);
        let sol = p.solve(&opts());
        assert!(sol.is_ok(), "{sol}");
        // Cheaper to satisfy with X: objective 2.
        assert!((sol.primal_objective - 2.0).abs() < 1e-5, "{sol}");
        assert!(sol.x[1][(0, 0)] < 1e-4);
    }

    #[test]
    fn infeasible_problem_is_flagged() {
        // X11 = -1 with X ⪰ 0 is infeasible.
        let mut p = SdpProblem::new();
        let b = p.add_psd_block(1);
        p.set_block_cost_identity(b, 1.0);
        let c = p.add_constraint(-1.0);
        p.set_entry(c, b, 0, 0, 1.0);
        let sol = p.solve(&opts());
        assert!(
            !sol.is_ok(),
            "infeasible problem must not report success: {sol}"
        );
    }

    /// `n × n` direction with prescribed spectrum `lam`, rotated by the
    /// Householder reflector of `v` (left diagonal when `v` is zero).
    fn direction_with_spectrum(lam: &[f64], v: &[f64]) -> Matrix {
        let n = lam.len();
        let vv: f64 = v.iter().map(|x| x * x).sum();
        let mut q = Matrix::identity(n);
        if vv > 1e-3 {
            for r in 0..n {
                for c in 0..n {
                    q[(r, c)] -= 2.0 * v[r] * v[c] / vv;
                }
            }
        }
        let mut d = q.matmul(&Matrix::from_diag(lam)).matmul(&q.transpose());
        d.symmetrize();
        d
    }

    /// One line-search block from raw draws: a factor (identity, `4·I` —
    /// both whiten exactly — or a random SPD matrix) and a direction whose
    /// whitened minimum eigenvalue is one of the adversarial targets.
    fn line_search_block(kind: &[u8], raw: &[f64], tau: f64) -> (Cholesky, Matrix) {
        let n = 1 + kind[0] as usize % 5;
        let m = match kind[1] % 3 {
            0 => Matrix::identity(n),
            1 => Matrix::identity(n).scale(4.0),
            _ => {
                let b = Matrix::from_col_major(n, n, raw[..n * n].to_vec());
                let mut m = b.matmul(&b.transpose());
                for i in 0..n {
                    m[(i, i)] += n as f64;
                }
                m
            }
        };
        let chol = m.cholesky().expect("SPD factor");
        let lmin = match kind[2] % 11 {
            0 => -tau,
            // One ulp either side of −tau.
            1 => f64::from_bits((-tau).to_bits() - 1),
            2 => f64::from_bits((-tau).to_bits() + 1),
            // Around the relative part of the margin.
            3 => -tau * (1.0 - 1e-6),
            4 => -tau * (1.0 - 3e-6),
            5 => -tau * (1.0 + 1e-9),
            // Below the −1e-14 "unbounded" threshold, and inside it.
            6 => -1e-14,
            7 => -5e-15,
            // A shared value, so blocks tie.
            8 => -1.5,
            _ => -3.0 + 4.0 * (raw[25] + 1.0) / 2.0,
        };
        // Big-norm blocks: ‖W‖ ≫ |λ_min|.
        let spread = if kind[3].is_multiple_of(4) { 1e8 } else { 3.0 };
        let mut lam: Vec<f64> = (0..n)
            .map(|i| lmin + spread * (raw[26 + i] + 1.0) / 2.0)
            .collect();
        lam[0] = lmin;
        let v = if kind[3].is_multiple_of(2) {
            &raw[32..32 + n]
        } else {
            &[0.0; 5][..n]
        };
        let w = direction_with_spectrum(&lam, v);
        // D = L W Lᵀ, so that whitening returns W up to rounding.
        let lw = chol.l().matmul(&w);
        let mut d = lw.matmul(&chol.l().transpose());
        d.symmetrize();
        (chol, d)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        #[test]
        fn pruned_line_search_matches_the_eigensolve_oracle_bitwise(
            nblocks in 1usize..8,
            kinds in proptest::collection::vec(0u8..255, 8 * 4),
            raw in proptest::collection::vec(-1.0f64..1.0, 8 * 40),
            tau_pick in 0usize..3,
        ) {
            let tau = [1.0, 0.95, 0.98][tau_pick];
            let blocks: Vec<(Cholesky, Matrix)> = (0..nblocks)
                .map(|j| line_search_block(&kinds[4 * j..4 * j + 4], &raw[40 * j..40 * j + 40], tau))
                .collect();
            let dirs: Vec<Matrix> = blocks.iter().map(|b| b.1.clone()).collect();
            let want = boundary_step_oracle(|j| &blocks[j].0, &dirs, tau);
            let mut tm = StageClock::default();
            let dims: Vec<usize> = dirs.iter().map(Matrix::nrows).collect();
            let mut ls = LineSearch::new(&dims);
            let got = boundary_step(|j| &blocks[j].0, &dirs, tau, &mut tm, &mut ls);
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
            proptest::prop_assert_eq!(tm.step_tests, nblocks as u64);
            proptest::prop_assert!(tm.step_eigensolves <= tm.step_tests);
        }
    }

    #[test]
    fn line_search_runs_jacobi_only_on_blocks_that_can_bind() {
        // Whitened minima −2 (binding), −0.5 twice and +1 under identity
        // factors: only the −2 block needs an eigensolve.
        let chols: Vec<Cholesky> = (0..4)
            .map(|_| Matrix::identity(3).cholesky().unwrap())
            .collect();
        let v = [0.3, -0.2, 0.9];
        let dirs: Vec<Matrix> = [-0.5, 1.0, -2.0, -0.5]
            .iter()
            .map(|&l| direction_with_spectrum(&[l, l + 1.0, l + 2.0], &v))
            .collect();
        let mut tm = StageClock::default();
        let mut ls = LineSearch::new(&[3; 4]);
        let got = boundary_step(|j| &chols[j], &dirs, 0.95, &mut tm, &mut ls);
        assert_eq!(
            got.to_bits(),
            boundary_step_oracle(|j| &chols[j], &dirs, 0.95).to_bits()
        );
        assert!((got - 0.95 / 2.0).abs() < 1e-12, "{got}");
        assert_eq!((tm.step_tests, tm.step_eigensolves), (4, 1));
        // Nothing binds: every block is ruled out and the step is 1.
        let mut tm = StageClock::default();
        let mut ls = LineSearch::new(&[3; 2]);
        assert_eq!(
            boundary_step(|j| &chols[j], &dirs[..2], 0.95, &mut tm, &mut ls),
            1.0
        );
        assert_eq!((tm.step_tests, tm.step_eigensolves), (2, 0));
    }

    #[test]
    fn solve_counts_line_search_tests() {
        let mut p = SdpProblem::new();
        let b = p.add_psd_block(2);
        p.set_block_cost_identity(b, 1.0);
        let c = p.add_constraint(1.0);
        p.set_entry(c, b, 0, 0, 1.0);
        let rec = cppll_trace::TraceRecorder::new(TraceLevel::Stage);
        let sol = p.solve(&SolverOptions {
            trace: Some(rec.tracer()),
            ..opts()
        });
        assert!(sol.is_ok(), "{sol}");
        // Two searches per completed iteration, one block, two sides; the
        // last iteration only checks convergence.
        let searches = 4 * (sol.iterations as u64 - 1);
        assert_eq!(rec.counter_total("step_tests"), searches);
        assert!(rec.counter_total("step_eigensolves") <= searches);
        // One counter per stage clock and one `total`, once per solve.
        for (_, counter) in &crate::STAGE_COUNTERS[1..] {
            assert_eq!(rec.counter_events(counter).len(), 1, "{counter}");
        }
        assert_eq!(rec.counter_events(crate::TOTAL_COUNTER).len(), 1);
        assert!(rec.counter_total(crate::TOTAL_COUNTER) > 0);
        assert!(rec.counter_events(crate::REDUCTION_COUNTER).is_empty());
    }

    /// The factorisation with one nudged retry as it was written before
    /// the factors were refactored in place.
    fn robust_cholesky_allocating(a: &Matrix) -> Option<Cholesky> {
        if let Ok(c) = a.cholesky() {
            return Some(c);
        }
        let n = a.nrows();
        let bump = 1e-12 * a.trace().abs().max(1.0) / n as f64;
        let mut b = a.clone();
        for i in 0..n {
            b[(i, i)] += bump;
        }
        b.cholesky().ok()
    }

    #[test]
    fn robust_refactor_matches_the_allocating_form_bitwise() {
        // Positive definite; singular until nudged (the bump path); and
        // indefinite past the nudge. Sizes 4, 2 and 1 into the same factor.
        let cases = [
            Matrix::from_rows(&[
                &[4.0, 1.0, 0.0, 0.5],
                &[1.0, 3.0, 0.2, 0.0],
                &[0.0, 0.2, 2.0, 0.1],
                &[0.5, 0.0, 0.1, 1.0],
            ]),
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]),
            Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]),
            Matrix::from_rows(&[&[0.0]]),
            Matrix::from_rows(&[&[-1e-13]]),
            Matrix::from_rows(&[&[2.5]]),
        ];
        let mut chol = Cholesky::identity(4);
        for a in &cases {
            let want = robust_cholesky_allocating(a);
            assert_eq!(robust_cholesky(a, &mut chol), want.is_some(), "{a}");
            if let Some(want) = want {
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(chol.l()), bits(want.l()), "{a}");
            }
        }
        // The singular case takes the nudge.
        assert!(cases[1].cholesky().is_err());
        assert!(robust_cholesky(&cases[1], &mut chol));
    }

    /// Every number of an [`SdpSolution`], as bits.
    fn solution_bits(s: &SdpSolution) -> (String, usize, Vec<u64>) {
        let mut v: Vec<f64> = vec![
            s.primal_objective,
            s.dual_objective,
            s.primal_infeasibility,
            s.dual_infeasibility,
            s.gap,
        ];
        v.extend(&s.y);
        v.extend(&s.free);
        for m in s.x.iter().chain(&s.s) {
            v.extend(m.as_slice());
        }
        (
            format!("{:?}", s.status),
            s.iterations,
            v.iter().map(|x| x.to_bits()).collect(),
        )
    }

    /// Constraints 0 and 2 share block 0, 1 and 3 block 1: two KKT
    /// components in three runs, coupled through one free variable.
    fn interleaved_problem() -> SdpProblem {
        let mut p = SdpProblem::new();
        let b0 = p.add_psd_block(2);
        let b1 = p.add_psd_block(2);
        p.set_block_cost_identity(b0, 1.0);
        p.set_block_cost_identity(b1, 2.0);
        let u = p.add_free_var(0.5);
        let c0 = p.add_constraint(1.0);
        p.set_entry(c0, b0, 0, 0, 1.0);
        p.set_free_coeff(c0, u, 1.0);
        let c1 = p.add_constraint(2.0);
        p.set_entry(c1, b1, 1, 1, 1.0);
        let c2 = p.add_constraint(0.3);
        p.set_entry(c2, b0, 0, 1, 1.0);
        let c3 = p.add_constraint(1.5);
        p.set_entry(c3, b1, 0, 0, 1.0);
        p.set_entry(c3, b1, 1, 1, 1.0);
        p.set_free_coeff(c3, u, -1.0);
        p.normalize();
        p
    }

    #[test]
    fn interleaved_components_solve_bit_identically_to_the_dense_kkt() {
        let p = interleaved_problem();
        let touching = incidence(&p);
        assert_eq!(touching, vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(BlockKkt::new(&p, &touching, 1e-9).components(), 2);
        let block = solve_with::<BlockKkt>(&p, &opts());
        let dense = solve_with::<crate::kkt::DenseKkt>(&p, &opts());
        assert!(block.is_ok(), "{block}");
        assert!(block.iterations > 5, "{block}");
        assert_eq!(solution_bits(&block), solution_bits(&dense));
        assert_eq!(solution_bits(&block), solution_bits(&p.solve(&opts())));
    }

    #[test]
    fn solve_span_and_counter_describe_the_kkt_storage() {
        let p = interleaved_problem();
        let rec = cppll_trace::TraceRecorder::new(TraceLevel::Solve);
        let sol = p.solve(&SolverOptions {
            trace: Some(rec.tracer()),
            ..opts()
        });
        assert_eq!(solution_bits(&sol), solution_bits(&p.solve(&opts())));
        let labels: Vec<String> = rec
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                cppll_trace::EventKind::Begin {
                    name: "sdp_solve",
                    label,
                    ..
                } => Some(label),
                _ => None,
            })
            .collect();
        assert_eq!(labels, ["m=4 blocks=2 free=1 components=2"]);
        // Two (2 + 1) × 2 panels and the 1 × 1 free block, once per solve;
        // the dense matrix held 25.
        assert_eq!(rec.counter_events("kkt_stored_entries").len(), 1);
        assert_eq!(rec.counter_total("kkt_stored_entries"), 13);
        // Nine 2 × 2 matrices per block (72 values), five vectors of
        // `m`, `nfree` or `m + nfree` (20), the Schur scratch (8 + 3 values,
        // 2 coefficients) and the line search's (2 whitened blocks, 2 × 2
        // scratch and test buffer, 2 order slots): 1016 bytes, once.
        assert_eq!(rec.counter_events("sdp_workspace_bytes").len(), 1);
        assert_eq!(
            rec.counter_total("sdp_workspace_bytes"),
            (72 + 20 + 11 + 16) * 8 + (2 + 2) * 16
        );
    }

    #[test]
    fn lovasz_theta_of_c5() {
        // ϑ(C₅) = √5 — a classic SDP test instance.
        // max ⟨J, X⟩ s.t. tr X = 1, X_{ij} = 0 for edges (i,i+1 mod 5), X ⪰ 0.
        // As a min problem: min ⟨-J, X⟩.
        let mut p = SdpProblem::new();
        let b = p.add_psd_block(5);
        for r in 0..5 {
            for c in r..5 {
                p.set_cost_entry(b, r, c, -1.0);
            }
        }
        let t = p.add_constraint(1.0);
        for i in 0..5 {
            p.set_entry(t, b, i, i, 1.0);
        }
        for i in 0..5 {
            let e = p.add_constraint(0.0);
            p.set_entry(e, b, i, (i + 1) % 5, 1.0);
        }
        let sol = p.solve(&opts());
        assert!(sol.is_ok(), "{sol}");
        let theta = -sol.primal_objective;
        assert!(
            (theta - 5.0_f64.sqrt()).abs() < 1e-4,
            "theta = {theta}, expected sqrt(5)"
        );
    }
}
