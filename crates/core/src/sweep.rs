//! Parameter-space certification atlases (`cppll sweep`).
//!
//! The paper certifies inevitability at the single Table-1 parameter point;
//! the engineering object is the *region* of circuit-parameter space where
//! lock is guaranteed (Kuznetsov et al.'s hold-in/pull-in analyses). This
//! module turns the single-point pipeline into a gridded sweep:
//!
//! * a [`SweepSpec`] names 1–2 axes over either [`TableOneParams`] fields
//!   (`{"kind":"pll"}`) or `$name` placeholders inside a [`SystemSpec`]
//!   template (`{"kind":"spec"}`);
//! * cells fan out across `cppll-par` workers, each cell a full
//!   [`InevitabilityVerifier::verify`] run;
//! * instead of solving the full grid, an adaptive bisection solves a
//!   coarse lattice and recursively splits only the rectangles whose corner
//!   verdicts disagree, down to a requested resolution — cells it never
//!   solves are *labeled* (`interior`/`unresolved`), never given a verdict;
//! * completed cells are journaled through the v2 machinery
//!   ([`StageRecord::SweepCell`]), making a killed sweep resumable
//!   cell-by-cell with a bit-identical final atlas.
//!
//! Everything that reaches the canonical atlas JSON is a deterministic
//! function of the sweep spec alone — independent of thread count, crash
//! schedule, and wall-clock — which is what the determinism acceptance
//! tests pin.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cppll_hybrid::HybridSystem;
use cppll_json::{ObjectBuilder, ToJson, Value};
use cppll_pll::{PllModelBuilder, PllOrder, TableOneParams};
use cppll_poly::{Monomial, Polynomial};
use cppll_trace::Tracer;

use crate::checkpoint::{
    self, CheckpointConfig, CheckpointError, LedgerSnapshot, RunJournal, StageRecord,
};
use crate::parse::parse_polynomial;
use crate::pipeline::{InevitabilityVerifier, PipelineOptions, Verdict};
use crate::region::Region;
use crate::resilience::ResilienceConfig;
use crate::spec::{SpecError, SystemSpec};
use crate::VerifyError;
use cppll_sos::Reduction;

// ---------------------------------------------------------------------------
// Sweep specification
// ---------------------------------------------------------------------------

/// One sweep axis: `cells` evenly spaced values from `min` to `max`
/// (inclusive endpoints; a single-cell axis sits at `min`).
#[derive(Debug, Clone)]
pub struct SweepAxis {
    /// Parameter name: a [`TableOneParams`] field for PLL targets, a
    /// `$name` placeholder for spec templates.
    pub name: String,
    /// First grid value.
    pub min: f64,
    /// Last grid value.
    pub max: f64,
    /// Number of grid cells along this axis (≥ 1).
    pub cells: usize,
}

impl SweepAxis {
    /// The axis value at grid index `i`.
    pub fn value(&self, i: usize) -> f64 {
        if self.cells <= 1 {
            self.min
        } else {
            self.min + (self.max - self.min) * (i as f64) / ((self.cells - 1) as f64)
        }
    }

    /// All grid values, in index order.
    pub fn values(&self) -> Vec<f64> {
        (0..self.cells).map(|i| self.value(i)).collect()
    }
}

impl ToJson for SweepAxis {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("name", &self.name)
            .field("min", self.min)
            .field("max", self.max)
            .field("cells", self.cells)
            .build()
    }
}

/// What each sweep cell verifies.
#[derive(Debug, Clone)]
pub enum SweepTarget {
    /// A CP PLL model: Table-1 parameters with axes applied via
    /// [`TableOneParams::with_axis`], then the standard PLL inevitability
    /// query ([`InevitabilityVerifier::for_pll`]'s boundary and initial
    /// set).
    Pll {
        /// Loop-filter order (3 or 4).
        order: u32,
        /// Lyapunov certificate degree.
        degree: u32,
    },
    /// A generic [`SystemSpec`] template whose polynomial strings may
    /// contain `$name` placeholders for the sweep axes.
    Spec {
        /// The template spec.
        template: SystemSpec,
    },
}

/// A full sweep specification: target, axes, and bisection knobs.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// What each cell verifies.
    pub target: SweepTarget,
    /// 1 or 2 sweep axes.
    pub axes: Vec<SweepAxis>,
    /// Adaptive boundary bisection: solve a coarse lattice and refine only
    /// across verdict changes (`true`, the default) or solve every cell.
    pub bisect: bool,
    /// Initial lattice stride in cells (`0` = automatic: the largest power
    /// of two ≤ `(cells − 1) / 4` per axis).
    pub coarse: usize,
    /// Stop splitting a disagreeing rectangle once its largest side is at
    /// most this many cells (default 1 = refine the boundary to single-cell
    /// resolution). Cells inside stopped rectangles are `unresolved`.
    pub resolution: usize,
}

impl ToJson for SweepSpec {
    fn to_json(&self) -> Value {
        let target = match &self.target {
            SweepTarget::Pll { order, degree } => ObjectBuilder::new()
                .field("kind", "pll")
                .field("order", *order)
                .field("degree", *degree)
                .build(),
            SweepTarget::Spec { template } => ObjectBuilder::new()
                .field("kind", "spec")
                .field("spec", template.to_json())
                .build(),
        };
        ObjectBuilder::new()
            .field("target", target)
            .field("axes", &self.axes)
            .field("bisect", self.bisect)
            .field("coarse", self.coarse)
            .field("resolution", self.resolution)
            .build()
    }
}

fn invalid(message: impl Into<String>) -> SweepError {
    SweepError::Invalid {
        message: message.into(),
    }
}

impl SweepSpec {
    /// Decodes a sweep spec from already-parsed JSON.
    ///
    /// # Errors
    ///
    /// [`SweepError::Invalid`] on missing/mistyped fields or an
    /// out-of-range axis count.
    pub fn from_json(v: &Value) -> Result<Self, SweepError> {
        let target_v = v
            .get("target")
            .ok_or_else(|| invalid("sweep: missing field 'target'"))?;
        let kind = target_v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("sweep.target: missing string field 'kind'"))?;
        let target = match kind {
            "pll" => SweepTarget::Pll {
                order: target_v
                    .get("order")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| invalid("sweep.target: missing integer field 'order'"))?
                    as u32,
                degree: target_v.get("degree").and_then(Value::as_u64).unwrap_or(4) as u32,
            },
            "spec" => SweepTarget::Spec {
                template: SystemSpec::from_json(
                    target_v
                        .get("spec")
                        .ok_or_else(|| invalid("sweep.target: missing field 'spec'"))?,
                )
                .map_err(SweepError::Spec)?,
            },
            other => {
                return Err(invalid(format!(
                    "sweep.target.kind: unknown kind '{other}'"
                )))
            }
        };
        let axes_v = v
            .get("axes")
            .and_then(Value::as_array)
            .ok_or_else(|| invalid("sweep: missing array field 'axes'"))?;
        let mut axes = Vec::with_capacity(axes_v.len());
        for (i, a) in axes_v.iter().enumerate() {
            let ctx = format!("sweep.axes[{i}]");
            axes.push(SweepAxis {
                name: a
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| invalid(format!("{ctx}: missing string field 'name'")))?
                    .to_string(),
                min: a
                    .get("min")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| invalid(format!("{ctx}: missing number field 'min'")))?,
                max: a
                    .get("max")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| invalid(format!("{ctx}: missing number field 'max'")))?,
                cells: a
                    .get("cells")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| invalid(format!("{ctx}: missing integer field 'cells'")))?
                    as usize,
            });
        }
        let spec = SweepSpec {
            target,
            axes,
            bisect: v.get("bisect").and_then(Value::as_bool).unwrap_or(true),
            coarse: v.get("coarse").and_then(Value::as_u64).unwrap_or(0) as usize,
            resolution: v.get("resolution").and_then(Value::as_u64).unwrap_or(1) as usize,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a sweep spec from JSON text.
    ///
    /// # Errors
    ///
    /// [`SweepError::Invalid`] on malformed JSON or a mistyped document.
    pub fn from_json_str(text: &str) -> Result<Self, SweepError> {
        let v = cppll_json::parse(text).map_err(|e| invalid(format!("json: {e}")))?;
        Self::from_json(&v)
    }

    /// Structural validation shared by every entry point.
    ///
    /// # Errors
    ///
    /// [`SweepError::Invalid`] when the axes or target are unusable.
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.axes.is_empty() || self.axes.len() > 2 {
            return Err(invalid(format!(
                "sweep.axes: expected 1 or 2 axes, found {}",
                self.axes.len()
            )));
        }
        for a in &self.axes {
            if a.cells == 0 {
                return Err(invalid(format!("axis '{}': cells must be ≥ 1", a.name)));
            }
            if !(a.min.is_finite() && a.max.is_finite()) || a.min > a.max {
                return Err(invalid(format!(
                    "axis '{}': expected finite min ≤ max",
                    a.name
                )));
            }
        }
        if self.axes.len() == 2 && self.axes[0].name == self.axes[1].name {
            return Err(invalid(format!(
                "sweep.axes: axis '{}' used twice",
                self.axes[0].name
            )));
        }
        if self.resolution == 0 {
            return Err(invalid("sweep.resolution: must be ≥ 1"));
        }
        if let SweepTarget::Pll { order, .. } = &self.target {
            if *order != 3 && *order != 4 {
                return Err(invalid(format!(
                    "sweep.target.order: expected 3 or 4, found {order}"
                )));
            }
        }
        Ok(())
    }

    /// Stable fingerprint of the sweep — the journal key a resumed sweep
    /// must match, analogous to the per-problem fingerprint of single runs.
    pub fn fingerprint(&self) -> u64 {
        checkpoint::fnv1a(self.to_json().to_compact_string().as_bytes())
    }

    /// A small runnable example: a two-state toy whose first coordinate is
    /// stable exactly when the `$a` axis is negative, so the certified
    /// region is the left half-plane of the grid and the bisection has a
    /// clean vertical boundary to chase.
    pub fn example() -> Self {
        SweepSpec {
            target: SweepTarget::Spec {
                template: SystemSpec::from_json_str(
                    r#"{
                      "states": 2,
                      "modes": [
                        {"name": "flow", "flow": ["$a x0", "-1 x1 + $b x1"]}
                      ],
                      "boundary": ["3 - 1 x0", "3 + 1 x0", "3 - 1 x1", "3 + 1 x1"],
                      "initial_radii": [2.0, 2.0],
                      "degree": 2
                    }"#,
                )
                .expect("example template is valid"),
            },
            axes: vec![
                SweepAxis {
                    name: "a".into(),
                    min: -1.0,
                    max: 1.0,
                    cells: 21,
                },
                SweepAxis {
                    name: "b".into(),
                    min: -1.5,
                    max: -0.5,
                    cells: 21,
                },
            ],
            bisect: true,
            coarse: 0,
            resolution: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors surfaced while interpreting or running a sweep.
#[derive(Debug)]
pub enum SweepError {
    /// The sweep specification is structurally inconsistent.
    Invalid {
        /// What is wrong.
        message: String,
    },
    /// The embedded system spec template is malformed.
    Spec(SpecError),
    /// The sweep journal could not be written or replayed.
    Checkpoint(CheckpointError),
    /// A cell's solver failed in a way that is not a verdict (e.g. the
    /// serve daemon became unreachable). Journaled cells remain resumable.
    Solver {
        /// Linear index of the failing cell.
        cell: usize,
        /// What failed.
        message: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Invalid { message } => write!(f, "invalid sweep: {message}"),
            SweepError::Spec(e) => write!(f, "sweep template: {e}"),
            SweepError::Checkpoint(e) => write!(f, "sweep journal: {e}"),
            SweepError::Solver { cell, message } => {
                write!(f, "sweep cell {cell}: {message}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

impl From<CheckpointError> for SweepError {
    fn from(e: CheckpointError) -> Self {
        SweepError::Checkpoint(e)
    }
}

// ---------------------------------------------------------------------------
// Cell problems: template instantiation
// ---------------------------------------------------------------------------

/// One cell's fully instantiated verification problem.
#[derive(Debug, Clone)]
pub struct CellProblem {
    /// The hybrid system at this cell's parameter values.
    pub system: HybridSystem,
    /// Boundary inequalities `g ≥ 0`.
    pub boundary: Vec<Polynomial>,
    /// Semi-axes of the ellipsoidal initial set.
    pub initial_radii: Vec<f64>,
    /// Lyapunov certificate degree.
    pub degree: u32,
}

impl CellProblem {
    /// Renders the problem as a concrete [`SystemSpec`] (no placeholders),
    /// e.g. to submit the cell to a `cppll-serve` daemon. The rendering
    /// round-trips bit-exactly, so the remote fingerprint matches the local
    /// one.
    pub fn to_spec(&self) -> SystemSpec {
        SystemSpec::from_parts(
            &self.system,
            &self.boundary,
            &self.initial_radii,
            self.degree,
        )
    }
}

/// Replaces every `$name` placeholder with the extended-ring variable
/// `x{base + axis_index}`, so the string can be parsed once and then
/// partially evaluated per cell. Substituting *variables* rather than
/// numbers sidesteps the polynomial grammar entirely: negative values and
/// scientific-notation magnitudes never enter a string.
fn splice_placeholders(src: &str, base: usize, axes: &[SweepAxis]) -> Result<String, SweepError> {
    let mut out = String::with_capacity(src.len());
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '$' {
            out.push(c);
            continue;
        }
        let mut name = String::new();
        while let Some(&d) = chars.peek() {
            if d.is_ascii_alphanumeric() || d == '_' {
                name.push(d);
                chars.next();
            } else {
                break;
            }
        }
        let k = axes
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| invalid(format!("placeholder '${name}' names no sweep axis")))?;
        out.push_str(&format!("x{}", base + k));
    }
    Ok(out)
}

/// Partially evaluates the trailing `values.len()` ring variables of `p`
/// (the spliced placeholders) at `values`, returning a polynomial over the
/// first `base` variables. Exact per term: the coefficient is multiplied by
/// `vᵉ` and the axis exponents dropped.
fn project_axes(p: &Polynomial, base: usize, values: &[f64]) -> Polynomial {
    let mut out = Polynomial::zero(base);
    for (m, c) in p.terms() {
        let mut coeff = c;
        for (k, &v) in values.iter().enumerate() {
            let e = m.exp(base + k);
            if e > 0 {
                coeff *= v.powi(e as i32);
            }
        }
        let exps: Vec<u32> = (0..base).map(|i| m.exp(i)).collect();
        out.add_term(Monomial::new(exps), coeff);
    }
    out
}

/// A jump pre-parsed in the axis-extended ring:
/// `(from, to, guard, guard_eq, reset)`.
type JumpTemplate = (
    usize,
    usize,
    Vec<Polynomial>,
    Vec<Polynomial>,
    Vec<Polynomial>,
);

/// A spec template pre-parsed into extended-ring polynomials (state/param
/// variables first, one extra variable per sweep axis), instantiated per
/// cell by exact partial evaluation.
#[derive(Debug, Clone)]
struct CompiledTemplate {
    states: usize,
    /// Flow ring size *without* axis variables (`states + nparams`).
    flow_ring: usize,
    mode_names: Vec<String>,
    /// Per mode: flows over `flow_ring + naxes`, flow-set over
    /// `states + naxes`.
    flows: Vec<Vec<Polynomial>>,
    flow_sets: Vec<Vec<Polynomial>>,
    /// `(from, to, guard, guard_eq, reset)`, all in `states + naxes` vars.
    jumps: Vec<JumpTemplate>,
    boundary: Vec<Polynomial>,
    param_lo: Vec<f64>,
    param_hi: Vec<f64>,
    initial_radii: Vec<f64>,
    degree: u32,
}

impl CompiledTemplate {
    fn compile(template: &SystemSpec, axes: &[SweepAxis]) -> Result<Self, SweepError> {
        let n = template.states;
        if template.params.lo.len() != template.params.hi.len() {
            return Err(invalid("params.lo and params.hi must have equal length"));
        }
        if template.initial_radii.len() != n {
            return Err(invalid("initial_radii must have one entry per state"));
        }
        let flow_ring = n + template.params.lo.len();
        let naxes = axes.len();
        let parse = |s: &str, base: usize, ctx: &str| -> Result<Polynomial, SweepError> {
            let spliced = splice_placeholders(s, base, axes)?;
            parse_polynomial(&spliced, base + naxes)
                .map_err(|e| invalid(format!("{ctx}: '{s}': {e}")))
        };
        let parse_all =
            |ss: &[String], base: usize, ctx: &str| -> Result<Vec<Polynomial>, SweepError> {
                ss.iter().map(|s| parse(s, base, ctx)).collect()
            };
        let mut mode_names = Vec::new();
        let mut flows = Vec::new();
        let mut flow_sets = Vec::new();
        for (mi, m) in template.modes.iter().enumerate() {
            if m.flow.len() != n {
                return Err(invalid(format!(
                    "mode {mi} has {} flow components; system has {n} states",
                    m.flow.len()
                )));
            }
            mode_names.push(m.name.clone());
            flows.push(parse_all(&m.flow, flow_ring, &format!("modes[{mi}].flow"))?);
            flow_sets.push(parse_all(&m.flow_set, n, &format!("modes[{mi}].flow_set"))?);
        }
        let mut jumps = Vec::new();
        for (ji, j) in template.jumps.iter().enumerate() {
            if j.from >= template.modes.len() || j.to >= template.modes.len() {
                return Err(invalid(format!("jump {ji} references an unknown mode")));
            }
            if !j.reset.is_empty() && j.reset.len() != n {
                return Err(invalid(format!("jump {ji} reset must have {n} components")));
            }
            jumps.push((
                j.from,
                j.to,
                parse_all(&j.guard, n, &format!("jumps[{ji}].guard"))?,
                parse_all(&j.guard_eq, n, &format!("jumps[{ji}].guard_eq"))?,
                parse_all(&j.reset, n, &format!("jumps[{ji}].reset"))?,
            ));
        }
        Ok(CompiledTemplate {
            states: n,
            flow_ring,
            mode_names,
            flows,
            flow_sets,
            jumps,
            boundary: parse_all(&template.boundary, n, "boundary")?,
            param_lo: template.params.lo.clone(),
            param_hi: template.params.hi.clone(),
            initial_radii: template.initial_radii.clone(),
            degree: template.degree,
        })
    }

    fn build(&self, values: &[f64]) -> CellProblem {
        let modes: Vec<cppll_hybrid::Mode> = self
            .mode_names
            .iter()
            .zip(self.flows.iter().zip(&self.flow_sets))
            .map(|(name, (flow, flow_set))| {
                cppll_hybrid::Mode::new(
                    name.clone(),
                    flow.iter()
                        .map(|p| project_axes(p, self.flow_ring, values))
                        .collect(),
                )
                .with_flow_set(
                    flow_set
                        .iter()
                        .map(|p| project_axes(p, self.states, values))
                        .collect(),
                )
            })
            .collect();
        let jumps: Vec<cppll_hybrid::Jump> = self
            .jumps
            .iter()
            .map(|(from, to, guard, guard_eq, reset)| {
                let proj = |ps: &[Polynomial]| {
                    ps.iter()
                        .map(|p| project_axes(p, self.states, values))
                        .collect()
                };
                let mut j = cppll_hybrid::Jump::identity(*from, *to)
                    .with_guard(proj(guard))
                    .with_guard_eq(proj(guard_eq));
                if !reset.is_empty() {
                    j = j.with_reset(proj(reset));
                }
                j
            })
            .collect();
        CellProblem {
            system: cppll_hybrid::HybridSystem::with_params(
                self.states,
                modes,
                jumps,
                cppll_hybrid::ParamBox::new(self.param_lo.clone(), self.param_hi.clone()),
            ),
            boundary: self
                .boundary
                .iter()
                .map(|p| project_axes(p, self.states, values))
                .collect(),
            initial_radii: self.initial_radii.clone(),
            degree: self.degree,
        }
    }
}

/// Per-cell problem builder for either target kind.
enum CellBuilder {
    Pll {
        base: TableOneParams,
        order: PllOrder,
        degree: u32,
        axis_names: Vec<String>,
    },
    Spec(CompiledTemplate),
}

impl CellBuilder {
    fn compile(spec: &SweepSpec) -> Result<Self, SweepError> {
        match &spec.target {
            SweepTarget::Pll { order, degree } => {
                let (order, base) = match order {
                    3 => (PllOrder::Third, TableOneParams::third_order()),
                    4 => (PllOrder::Fourth, TableOneParams::fourth_order()),
                    o => return Err(invalid(format!("pll order {o} is not 3 or 4"))),
                };
                // Validate the axis names once, up front.
                for a in &spec.axes {
                    base.clone().with_axis(&a.name, a.min).map_err(invalid)?;
                }
                Ok(CellBuilder::Pll {
                    base,
                    order,
                    degree: *degree,
                    axis_names: spec.axes.iter().map(|a| a.name.clone()).collect(),
                })
            }
            SweepTarget::Spec { template } => Ok(CellBuilder::Spec(CompiledTemplate::compile(
                template, &spec.axes,
            )?)),
        }
    }

    fn build(&self, values: &[f64]) -> Result<CellProblem, SweepError> {
        match self {
            CellBuilder::Pll {
                base,
                order,
                degree,
                axis_names,
            } => {
                let mut params = base.clone();
                for (name, &v) in axis_names.iter().zip(values) {
                    params = params.with_axis(name, v).map_err(invalid)?;
                }
                let model = PllModelBuilder::new(*order).with_params(params).build();
                // The standard PLL query, exactly as `for_pll` poses it:
                // boundary |e| ≤ θ_max, ellipsoidal initial set with the
                // phase-error semi-axis at 0.95·θ_max.
                let n = model.nstates();
                let e_idx = model.phase_error_index();
                let theta = model.theta_max();
                let e = Polynomial::var(n, e_idx);
                let boundary = vec![
                    &Polynomial::constant(n, theta) - &e,
                    &Polynomial::constant(n, theta) + &e,
                ];
                let mut radii = vec![1.5; n];
                radii[e_idx] = 0.95 * theta;
                Ok(CellProblem {
                    system: model.system().clone(),
                    boundary,
                    initial_radii: radii,
                    degree: *degree,
                })
            }
            CellBuilder::Spec(t) => Ok(t.build(values)),
        }
    }
}

// ---------------------------------------------------------------------------
// Grid, outcomes, options
// ---------------------------------------------------------------------------

/// The logical grid: axis 0 is `x` (fast index), optional axis 1 is `y`.
#[derive(Debug, Clone)]
struct Grid {
    nx: usize,
    ny: usize,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Grid {
    fn new(axes: &[SweepAxis]) -> Grid {
        let nx = axes[0].cells;
        let (ny, ys) = match axes.get(1) {
            Some(a) => (a.cells, a.values()),
            None => (1, Vec::new()),
        };
        Grid {
            nx,
            ny,
            xs: axes[0].values(),
            ys,
        }
    }

    fn len(&self) -> usize {
        self.nx * self.ny
    }

    fn idx(&self, x: usize, y: usize) -> usize {
        y * self.nx + x
    }

    fn coords(&self, cell: usize) -> (usize, usize) {
        (cell % self.nx, cell / self.nx)
    }

    fn values(&self, cell: usize) -> Vec<f64> {
        let (x, y) = self.coords(cell);
        if self.ys.is_empty() {
            vec![self.xs[x]]
        } else {
            vec![self.xs[x], self.ys[y]]
        }
    }
}

/// What solving one cell produced — returned by the pluggable cell solver
/// (local pipeline or serve submission).
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Verdict: `true` iff inevitability was certified.
    pub certified: bool,
    /// Canonical result digest, when a report was produced.
    pub digest: Option<String>,
    /// Failure reason for uncertified cells.
    pub reason: Option<String>,
    /// Per-cell problem fingerprint (hex).
    pub fingerprint: String,
    /// Wall-clock seconds spent on the cell.
    pub seconds: f64,
    /// The cell's solve counts and reduction totals, journaled with the
    /// cell; the sweep does not aggregate them.
    pub ledger: LedgerSnapshot,
}

/// A cell solver: `(linear cell index, problem, ()) → outcome`.
/// `Err` means infrastructure failure (not a verdict) and aborts the sweep;
/// journaled cells stay resumable.
///
/// The `()` argument is where a neighbour's warm-start seed was passed; it
/// stays only because the benchmark harness (`perfbench/`) wraps cell
/// solvers with three arguments, and goes with the harness's next change.
pub type CellSolver<'a> =
    dyn Fn(usize, &CellProblem, ()) -> Result<CellOutcome, String> + Sync + 'a;

/// Options of a sweep run. Everything but `reduction` changes only how
/// results are computed; `reduction` can change them, so it is hashed into
/// each cell's problem fingerprint (and through those into the atlas
/// digest).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads for each wave (`0` = process default).
    pub threads: usize,
    /// Per-solve supervision of every cell's pipeline run.
    pub resilience: ResilienceConfig,
    /// Problem-size reduction applied inside each cell.
    pub reduction: Reduction,
    /// Optional trace sink (sweep counters + per-cell markers).
    pub trace: Option<Tracer>,
    /// Journal completed cells under this config; with `resume`, replay
    /// them instead of re-solving.
    pub checkpoint: Option<CheckpointConfig>,
    /// Test hook: exit the process (status 3) immediately after journaling
    /// this many *fresh* cells, simulating a mid-sweep kill.
    pub crash_after_cells: Option<usize>,
}

/// Status of one atlas cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Solved; inevitability certified.
    Certified,
    /// Solved; not certified (infeasible, inconclusive, or degraded).
    Failed,
    /// Not solved; every bounding solved rectangle agrees, so the verdict
    /// is implied (carried in [`CellRecord::implied`]).
    Interior,
    /// Not solved; inside a rectangle whose corners disagree but whose size
    /// reached the requested resolution.
    Unresolved,
}

impl CellStatus {
    /// Stable lowercase name used in atlas JSON.
    pub fn name(&self) -> &'static str {
        match self {
            CellStatus::Certified => "certified",
            CellStatus::Failed => "failed",
            CellStatus::Interior => "interior",
            CellStatus::Unresolved => "unresolved",
        }
    }
}

/// One atlas cell.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Axis-0 index.
    pub ix: usize,
    /// Axis-1 index (0 for 1D sweeps).
    pub iy: usize,
    /// Axis values at this cell.
    pub values: Vec<f64>,
    /// Cell status.
    pub status: CellStatus,
    /// For `interior` cells: the verdict the bounding rectangle implies.
    pub implied: Option<bool>,
    /// Canonical result digest (solved cells with a report).
    pub digest: Option<String>,
    /// Failure reason (solved, uncertified cells).
    pub reason: Option<String>,
    /// Problem fingerprint (solved cells).
    pub fingerprint: Option<String>,
    /// Wall-clock seconds (0 for unsolved cells; excluded from the
    /// canonical atlas).
    pub seconds: f64,
    /// Whether the cell was replayed from the journal rather than solved in
    /// this process (excluded from the canonical atlas).
    pub replayed: bool,
}

/// Aggregate sweep counters (also emitted as trace counters).
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepCounters {
    /// Solved cells whose verdict certified inevitability.
    pub cells_certified: usize,
    /// Solved cells whose verdict did not.
    pub cells_failed: usize,
    /// Cells the bisection never solved (`interior` + `unresolved`).
    pub cells_skipped_by_bisection: usize,
    /// Always 0, and left out of the atlas JSON: sweeps no longer
    /// warm-start solves. It stays only because the benchmark harness
    /// (`perfbench/`) reads it, and goes with the harness's next change.
    pub warm_start_hits: usize,
    /// Cells replayed from the journal.
    pub cells_replayed: usize,
}

/// The durable result of a sweep: every cell labeled, plus counters.
#[derive(Debug, Clone)]
pub struct Atlas {
    /// The sweep spec, echoed canonically.
    pub sweep: SweepSpec,
    /// Axis-0 cell count.
    pub nx: usize,
    /// Axis-1 cell count (1 for 1D sweeps).
    pub ny: usize,
    /// Axis-0 values by index.
    pub xs: Vec<f64>,
    /// Axis-1 values by index (empty for 1D sweeps).
    pub ys: Vec<f64>,
    /// Row-major cells (`iy·nx + ix`).
    pub cells: Vec<CellRecord>,
    /// Aggregate counters.
    pub counters: SweepCounters,
    /// Refinement waves executed (wave 0 = coarse lattice).
    pub waves: usize,
    /// Total wall-clock seconds of the sweep.
    pub total_seconds: f64,
    /// Run id, when journaling was on.
    pub run_id: Option<String>,
}

impl Atlas {
    /// Canonical atlas JSON: everything the sweep *decided* — spec echo,
    /// grid, per-cell statuses/digests/provenance, counters. Wall-clock
    /// timings, thread counts and replay bookkeeping are excluded, so two
    /// atlases are byte-identical exactly when the sweep results are —
    /// across thread counts and kill/resume cycles.
    pub fn canonical_json(&self) -> String {
        let cells: Vec<Value> = self
            .cells
            .iter()
            .map(|c| {
                ObjectBuilder::new()
                    .field("ix", c.ix)
                    .field("iy", c.iy)
                    .field("values", &c.values)
                    .field("status", c.status.name())
                    .field("implied", c.implied)
                    .field("digest", &c.digest)
                    .field("reason", &c.reason)
                    .field("fingerprint", &c.fingerprint)
                    .build()
            })
            .collect();
        ObjectBuilder::new()
            .field("sweep", self.sweep.to_json())
            .field(
                "grid",
                ObjectBuilder::new()
                    .field("nx", self.nx)
                    .field("ny", self.ny)
                    .field("xs", &self.xs)
                    .field("ys", &self.ys)
                    .build(),
            )
            .field("cells", cells)
            .field(
                "counters",
                ObjectBuilder::new()
                    .field("cells_certified", self.counters.cells_certified)
                    .field("cells_failed", self.counters.cells_failed)
                    .field(
                        "cells_skipped_by_bisection",
                        self.counters.cells_skipped_by_bisection,
                    )
                    .build(),
            )
            .build()
            .to_compact_string()
    }

    /// FNV-1a digest of [`Self::canonical_json`].
    pub fn digest(&self) -> String {
        checkpoint::fingerprint_hex(checkpoint::fnv1a(self.canonical_json().as_bytes()))
    }

    /// Full atlas JSON: the canonical document plus wall-clock timings and
    /// resume bookkeeping (informational; varies run to run).
    pub fn full_json(&self) -> Value {
        let canonical = cppll_json::parse(&self.canonical_json()).expect("canonical JSON parses");
        let seconds: Vec<f64> = self.cells.iter().map(|c| c.seconds).collect();
        let replayed: Vec<usize> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.replayed)
            .map(|(i, _)| i)
            .collect();
        let mut b = ObjectBuilder::new();
        if let Value::Object(fields) = canonical {
            for (k, v) in fields {
                b = b.field(&k, v);
            }
        }
        b.field("digest", self.digest())
            .field("waves", self.waves)
            .field("total_seconds", self.total_seconds)
            .field("cell_seconds", seconds)
            .field("run_id", &self.run_id)
            .field("cells_replayed", replayed)
            .build()
    }

    /// `true` per cell iff the cell is certified or interior-to-certified —
    /// the mask the contour tracer draws.
    pub fn certified_mask(&self) -> Vec<bool> {
        self.cells
            .iter()
            .map(|c| match c.status {
                CellStatus::Certified => true,
                CellStatus::Interior => c.implied == Some(true),
                _ => false,
            })
            .collect()
    }

    /// ASCII preview: `#` certified, `-` failed, `+`/`.` interior
    /// (certified/failed), `?` unresolved. Row `iy = ny−1` prints first so
    /// the y axis points up.
    pub fn ascii(&self) -> String {
        let mut out = String::new();
        for iy in (0..self.ny).rev() {
            for ix in 0..self.nx {
                let c = &self.cells[iy * self.nx + ix];
                out.push(match (c.status, c.implied) {
                    (CellStatus::Certified, _) => '#',
                    (CellStatus::Failed, _) => '-',
                    (CellStatus::Interior, Some(true)) => '+',
                    (CellStatus::Interior, _) => '.',
                    (CellStatus::Unresolved, _) => '?',
                });
            }
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The bisection engine
// ---------------------------------------------------------------------------

/// A closed lattice rectangle with solved corners (degenerate in y for 1D
/// sweeps: `y0 == y1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rect {
    x0: usize,
    x1: usize,
    y0: usize,
    y1: usize,
}

impl Rect {
    fn corners(&self) -> Vec<(usize, usize)> {
        let mut c = vec![(self.x0, self.y0)];
        if self.x1 > self.x0 {
            c.push((self.x1, self.y0));
        }
        if self.y1 > self.y0 {
            c.push((self.x0, self.y1));
            if self.x1 > self.x0 {
                c.push((self.x1, self.y1));
            }
        }
        c
    }

    fn max_side(&self) -> usize {
        (self.x1 - self.x0).max(self.y1 - self.y0)
    }

    fn splittable(&self) -> bool {
        self.x1 - self.x0 > 1 || self.y1 - self.y0 > 1
    }

    /// Splits along every side longer than one cell; children cover the
    /// rectangle exactly and share the midline corners.
    fn split(&self) -> Vec<Rect> {
        let xs: Vec<(usize, usize)> = if self.x1 - self.x0 > 1 {
            let m = self.x0 + (self.x1 - self.x0) / 2;
            vec![(self.x0, m), (m, self.x1)]
        } else {
            vec![(self.x0, self.x1)]
        };
        let ys: Vec<(usize, usize)> = if self.y1 - self.y0 > 1 {
            let m = self.y0 + (self.y1 - self.y0) / 2;
            vec![(self.y0, m), (m, self.y1)]
        } else {
            vec![(self.y0, self.y1)]
        };
        let mut out = Vec::new();
        for &(y0, y1) in &ys {
            for &(x0, x1) in &xs {
                out.push(Rect { x0, x1, y0, y1 });
            }
        }
        out
    }
}

/// Lattice coordinates of the coarse wave along one axis: multiples of
/// `stride` plus the final index.
fn lattice_coords(cells: usize, stride: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..cells).step_by(stride.max(1)).collect();
    if *v.last().expect("cells ≥ 1") != cells - 1 {
        v.push(cells - 1);
    }
    v
}

/// Automatic coarse stride: the largest power of two ≤ `(cells − 1) / 4`
/// (at least 1), so the initial lattice has roughly five nodes per axis.
fn auto_stride(cells: usize) -> usize {
    let target = cells.saturating_sub(1) / 4;
    let mut s = 1;
    while s * 2 <= target {
        s *= 2;
    }
    s
}

/// Runs a sweep with the local in-process pipeline as the cell solver.
///
/// # Errors
///
/// [`SweepError`] on malformed specs, journal failures, or infrastructure
/// failures inside a cell solver.
pub fn run_sweep(spec: &SweepSpec, opt: &SweepOptions) -> Result<Atlas, SweepError> {
    let solver = local_cell_solver(opt);
    run_sweep_with(spec, opt, &solver)
}

/// The in-process cell solver: a full pipeline run per cell. Lyapunov
/// infeasibility is a *verdict* (`failed`), not an error.
pub fn local_cell_solver(
    opt: &SweepOptions,
) -> impl Fn(usize, &CellProblem, ()) -> Result<CellOutcome, String> + Sync + '_ {
    move |_cell, problem, ()| {
        let t0 = Instant::now();
        let verifier = InevitabilityVerifier::new(
            &problem.system,
            problem.boundary.clone(),
            Region::ellipsoid(&problem.initial_radii),
        );
        let mut popt = PipelineOptions::degree(problem.degree);
        popt.resilience = opt.resilience.clone();
        popt.reduction = opt.reduction;
        let fp = checkpoint::fingerprint_hex(verifier.problem_fingerprint(&popt));
        match verifier.verify(&popt) {
            Ok(report) => {
                let reason = match &report.verdict {
                    Verdict::Inevitable { .. } => None,
                    Verdict::Inconclusive { reason } => Some(reason.clone()),
                    Verdict::Degraded { stage, reason } => {
                        Some(format!("{}: {reason}", stage.name()))
                    }
                };
                Ok(CellOutcome {
                    certified: report.verdict.is_verified(),
                    digest: Some(report.result_digest()),
                    reason,
                    fingerprint: fp,
                    seconds: t0.elapsed().as_secs_f64(),
                    ledger: LedgerSnapshot {
                        stats: report.solve_stats,
                        reduction: report.reduction,
                    },
                })
            }
            // Infeasibility at this degree is an answer about the cell, not
            // an infrastructure fault: the cell fails, the sweep continues.
            Err(e @ VerifyError::Infeasible { .. }) => Ok(CellOutcome {
                certified: false,
                digest: None,
                reason: Some(e.to_string()),
                fingerprint: fp,
                seconds: t0.elapsed().as_secs_f64(),
                ledger: LedgerSnapshot::default(),
            }),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Runs a sweep with a pluggable cell solver (the CLI's `--via` mode routes
/// cells to a `cppll-serve` daemon through this).
///
/// The wave schedule and journal order are deterministic functions of the spec and the verdicts alone, so the
/// canonical atlas is bit-identical across thread counts and kill/resume
/// cycles.
///
/// # Errors
///
/// [`SweepError`] on malformed specs, journal failures, or solver
/// infrastructure failures.
pub fn run_sweep_with(
    spec: &SweepSpec,
    opt: &SweepOptions,
    solver: &CellSolver<'_>,
) -> Result<Atlas, SweepError> {
    spec.validate()?;
    let builder = CellBuilder::compile(spec)?;
    let grid = Grid::new(&spec.axes);
    let t_start = Instant::now();

    // Journal: replayed cells are consulted at solve time so the wave
    // structure (and therefore the journal append order) is identical to
    // the uninterrupted run.
    let mut journal: Option<RunJournal> = None;
    let mut replayed: BTreeMap<usize, CellOutcome> = BTreeMap::new();
    let mut run_id = None;
    if let Some(cfg) = &opt.checkpoint {
        let (j, records, recovery) = RunJournal::open(cfg, spec.fingerprint())?;
        for rec in records {
            if let StageRecord::SweepCell { cell, outcome } = rec {
                replayed.insert(cell, outcome);
            }
        }
        if recovery.recovered() {
            if let Some(t) = &opt.trace {
                t.counter("journal_recovered", 1);
            }
        }
        run_id = Some(cfg.run_id.clone());
        journal = Some(j);
    }

    // Coarse lattice: wave 0 solves every lattice node; the rectangles
    // between them are the bisection's work list.
    let stride_x = if !spec.bisect {
        1
    } else if spec.coarse > 0 {
        spec.coarse
    } else {
        auto_stride(grid.nx)
    };
    let stride_y = if !spec.bisect {
        1
    } else if spec.coarse > 0 {
        spec.coarse
    } else {
        auto_stride(grid.ny)
    };
    let lx = lattice_coords(grid.nx, stride_x);
    let ly = lattice_coords(grid.ny, stride_y);
    let mut pending: Vec<usize> = {
        let mut s = BTreeSet::new();
        for &y in &ly {
            for &x in &lx {
                s.insert(grid.idx(x, y));
            }
        }
        s.into_iter().collect()
    };
    let mut rects: Vec<Rect> = Vec::new();
    for yw in ly.windows(2) {
        for xw in lx.windows(2) {
            rects.push(Rect {
                x0: xw[0],
                x1: xw[1],
                y0: yw[0],
                y1: yw[1],
            });
        }
    }
    if grid.ny == 1 || ly.len() == 1 {
        // Degenerate y: intervals along x only.
        if rects.is_empty() {
            for xw in lx.windows(2) {
                rects.push(Rect {
                    x0: xw[0],
                    x1: xw[1],
                    y0: 0,
                    y1: 0,
                });
            }
        }
    }

    let mut solved: BTreeMap<usize, CellOutcome> = BTreeMap::new();
    let mut leaves: Vec<(Rect, Option<bool>)> = Vec::new();
    let mut fresh_cells = 0usize;
    let mut waves = 0usize;

    loop {
        if !pending.is_empty() {
            waves += 1;
            let outcomes: Vec<Result<CellOutcome, SweepError>> =
                cppll_par::parallel_map(pending.len(), opt.threads, |i| {
                    let cell = pending[i];
                    if let Some(r) = replayed.get(&cell) {
                        return Ok(r.clone());
                    }
                    let problem = builder.build(&grid.values(cell))?;
                    solver(cell, &problem, ())
                        .map_err(|message| SweepError::Solver { cell, message })
                });
            for (&cell, outcome) in pending.iter().zip(outcomes) {
                let outcome = outcome?;
                if !replayed.contains_key(&cell) {
                    if let Some(j) = journal.as_mut() {
                        j.append(&StageRecord::SweepCell {
                            cell,
                            outcome: outcome.clone(),
                        })?;
                    }
                    fresh_cells += 1;
                    if let Some(t) = &opt.trace {
                        t.counter("sweep_cells_solved", 1);
                    }
                    if opt.crash_after_cells == Some(fresh_cells) {
                        // Simulated mid-sweep kill for the determinism
                        // acceptance tests: the journal holds everything
                        // solved so far.
                        std::process::exit(3);
                    }
                }
                solved.insert(cell, outcome);
            }
            pending.clear();
        }
        if rects.is_empty() {
            break;
        }
        let mut new_points: BTreeSet<usize> = BTreeSet::new();
        let mut next_rects = Vec::new();
        for r in rects {
            let verdicts: Vec<bool> = r
                .corners()
                .iter()
                .map(|&(x, y)| solved[&grid.idx(x, y)].certified)
                .collect();
            let agree = verdicts.iter().all(|&v| v == verdicts[0]);
            if agree {
                leaves.push((r, Some(verdicts[0])));
            } else if r.splittable() && r.max_side() > spec.resolution {
                for child in r.split() {
                    for (x, y) in child.corners() {
                        let c = grid.idx(x, y);
                        if !solved.contains_key(&c) {
                            new_points.insert(c);
                        }
                    }
                    next_rects.push(child);
                }
            } else {
                leaves.push((r, None));
            }
        }
        rects = next_rects;
        pending = new_points.into_iter().collect();
    }

    // Labeling: start from `unresolved`, then every agreeing leaf stamps
    // its unsolved cells `interior`. Two agreeing leaves sharing cells
    // share solved corners, so their implied verdicts can never conflict.
    leaves.sort_by_key(|(r, _)| *r);
    let mut status: Vec<(CellStatus, Option<bool>)> =
        vec![(CellStatus::Unresolved, None); grid.len()];
    for (r, verdict) in &leaves {
        let Some(v) = verdict else { continue };
        for y in r.y0..=r.y1 {
            for x in r.x0..=r.x1 {
                let c = grid.idx(x, y);
                if !solved.contains_key(&c) {
                    status[c] = (CellStatus::Interior, Some(*v));
                }
            }
        }
    }

    let mut counters = SweepCounters::default();
    let mut cells = Vec::with_capacity(grid.len());
    for (c, &cell_status) in status.iter().enumerate() {
        let (ix, iy) = grid.coords(c);
        let values = grid.values(c);
        let rec = match solved.get(&c) {
            Some(s) => {
                if s.certified {
                    counters.cells_certified += 1;
                } else {
                    counters.cells_failed += 1;
                }
                let replayed = replayed.contains_key(&c);
                if replayed {
                    counters.cells_replayed += 1;
                }
                CellRecord {
                    ix,
                    iy,
                    values,
                    status: if s.certified {
                        CellStatus::Certified
                    } else {
                        CellStatus::Failed
                    },
                    implied: None,
                    digest: s.digest.clone(),
                    reason: s.reason.clone(),
                    fingerprint: Some(s.fingerprint.clone()),
                    seconds: s.seconds,
                    replayed,
                }
            }
            None => {
                counters.cells_skipped_by_bisection += 1;
                let (st, implied) = cell_status;
                CellRecord {
                    ix,
                    iy,
                    values,
                    status: st,
                    implied,
                    digest: None,
                    reason: None,
                    fingerprint: None,
                    seconds: 0.0,
                    replayed: false,
                }
            }
        };
        cells.push(rec);
    }
    if let Some(t) = &opt.trace {
        t.counter("cells_certified", counters.cells_certified as u64);
        t.counter("cells_failed", counters.cells_failed as u64);
        t.counter(
            "cells_skipped_by_bisection",
            counters.cells_skipped_by_bisection as u64,
        );
    }

    Ok(Atlas {
        sweep: spec.clone(),
        nx: grid.nx,
        ny: grid.ny,
        xs: grid.xs,
        ys: grid.ys,
        cells,
        counters,
        waves,
        total_seconds: t_start.elapsed().as_secs_f64(),
        run_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis(name: &str, min: f64, max: f64, cells: usize) -> SweepAxis {
        SweepAxis {
            name: name.into(),
            min,
            max,
            cells,
        }
    }

    /// A journaled cell carries its own solve ledger: the real per-cell
    /// counts, which survive a resume.
    #[test]
    fn journaled_cells_carry_their_solve_ledger() {
        let spec = SweepSpec {
            axes: vec![axis("a", -1.0, -0.5, 2), axis("b", -1.5, -1.5, 1)],
            bisect: false,
            ..SweepSpec::example()
        };
        let dir = std::env::temp_dir().join("cppll-sweep-ledger-tests");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CheckpointConfig::new("ledger").with_dir(&dir);
        let opt = SweepOptions {
            checkpoint: Some(cfg.clone()),
            ..SweepOptions::default()
        };
        let atlas = run_sweep(&spec, &opt).unwrap();
        assert_eq!(atlas.counters.cells_certified, 2);
        let (_, records, _) = RunJournal::open(&cfg.resuming(), spec.fingerprint()).unwrap();
        let ledgers: Vec<LedgerSnapshot> = records
            .iter()
            .filter_map(|r| match r {
                StageRecord::SweepCell { outcome, .. } if outcome.certified => Some(outcome.ledger),
                _ => None,
            })
            .collect();
        assert_eq!(ledgers.len(), 2);
        for ledger in &ledgers {
            assert!(ledger.stats.solves > 0, "empty cell ledger: {ledger:?}");
            assert!(ledger.stats.attempts >= ledger.stats.solves);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn axis_values_are_inclusive_linspace() {
        let a = axis("a", -1.0, 1.0, 5);
        assert_eq!(a.values(), vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
        assert_eq!(axis("a", 2.0, 9.0, 1).values(), vec![2.0]);
    }

    #[test]
    fn placeholder_splice_is_token_exact() {
        let axes = vec![axis("a", 0.0, 1.0, 2), axis("ab", 0.0, 1.0, 2)];
        let s = splice_placeholders("$a x0 + $ab x1", 2, &axes).unwrap();
        assert_eq!(s, "x2 x0 + x3 x1");
        assert!(splice_placeholders("$zzz x0", 2, &axes).is_err());
    }

    #[test]
    fn projection_is_exact_for_negative_values() {
        // p = a·x0 + a²·x1 over ring 2 + 1 axis var.
        let mut p = Polynomial::zero(3);
        p.add_term(Monomial::new(vec![1, 0, 1]), 1.0);
        p.add_term(Monomial::new(vec![0, 1, 2]), 1.0);
        let q = project_axes(&p, 2, &[-0.5]);
        assert_eq!(q.eval(&[1.0, 0.0]), -0.5);
        assert_eq!(q.eval(&[0.0, 1.0]), 0.25);
        assert_eq!(q.nvars(), 2);
    }

    #[test]
    fn spec_round_trips_and_fingerprint_is_stable() {
        let spec = SweepSpec::example();
        let json = spec.to_json().to_compact_string();
        let back = SweepSpec::from_json_str(&json).unwrap();
        assert_eq!(back.fingerprint(), spec.fingerprint());
        assert_eq!(back.axes.len(), 2);
        assert!(back.bisect);
    }

    #[test]
    fn validation_rejects_bad_axes() {
        let mut spec = SweepSpec::example();
        spec.axes.push(axis("c", 0.0, 1.0, 2));
        assert!(matches!(spec.validate(), Err(SweepError::Invalid { .. })));
        let mut spec = SweepSpec::example();
        spec.axes[1].name = "a".into();
        assert!(matches!(spec.validate(), Err(SweepError::Invalid { .. })));
        let mut spec = SweepSpec::example();
        spec.axes[0].min = 2.0;
        spec.axes[0].max = 1.0;
        assert!(matches!(spec.validate(), Err(SweepError::Invalid { .. })));
    }

    #[test]
    fn lattice_and_stride_cover_the_axis() {
        assert_eq!(lattice_coords(21, 4), vec![0, 4, 8, 12, 16, 20]);
        assert_eq!(lattice_coords(10, 4), vec![0, 4, 8, 9]);
        assert_eq!(lattice_coords(1, 1), vec![0]);
        assert_eq!(auto_stride(21), 4);
        assert_eq!(auto_stride(9), 2);
        assert_eq!(auto_stride(5), 1);
        assert_eq!(auto_stride(1), 1);
    }

    #[test]
    fn rect_split_shares_midline_corners() {
        let r = Rect {
            x0: 0,
            x1: 4,
            y0: 0,
            y1: 4,
        };
        let children = r.split();
        assert_eq!(children.len(), 4);
        assert!(children.iter().all(|c| c.max_side() == 2));
        // 1D interval splits into two.
        let i = Rect {
            x0: 0,
            x1: 5,
            y0: 0,
            y1: 0,
        };
        assert_eq!(i.split().len(), 2);
        assert!(!Rect {
            x0: 0,
            x1: 1,
            y0: 0,
            y1: 1
        }
        .splittable());
    }

    /// A synthetic solver (no SDPs) drives the full engine: left half
    /// certified, right half failed. The bisection must label every
    /// unsolved cell `interior`, never invent verdicts, and solve well
    /// under the full grid.
    #[test]
    fn engine_bisects_a_vertical_boundary() {
        let spec = SweepSpec {
            axes: vec![axis("a", -1.0, 1.0, 21), axis("b", -1.5, -0.5, 21)],
            ..SweepSpec::example()
        };
        let solver = |_cell: usize, problem: &CellProblem, (): ()| -> Result<CellOutcome, String> {
            // The example template's first flow is $a·x0: certified iff the
            // projected coefficient is negative.
            let a = problem.system.modes()[0].flow()[0].eval(&[1.0, 0.0]);
            Ok(CellOutcome {
                certified: a < 0.0,
                digest: Some(format!("d{a}")),
                reason: None,
                fingerprint: "f".into(),
                seconds: 0.0,
                ledger: LedgerSnapshot::default(),
            })
        };
        let atlas = run_sweep_with(&spec, &SweepOptions::default(), &solver).unwrap();
        assert_eq!(atlas.cells.len(), 21 * 21);
        let solved = atlas.counters.cells_certified + atlas.counters.cells_failed;
        assert!(
            solved * 100 < atlas.cells.len() * 40,
            "bisection should solve <40% of the grid, solved {solved}"
        );
        assert_eq!(
            atlas.counters.cells_skipped_by_bisection,
            atlas.cells.len() - solved
        );
        // Statuses are sound: every certified/failed cell has a digest and
        // fingerprint; every skipped cell has neither.
        for c in &atlas.cells {
            match c.status {
                CellStatus::Certified | CellStatus::Failed => {
                    assert!(c.fingerprint.is_some());
                }
                CellStatus::Interior => {
                    assert!(c.digest.is_none());
                    // The implied verdict matches the true half-plane.
                    let expect = atlas.xs[c.ix] < 0.0;
                    assert_eq!(c.implied, Some(expect), "cell ({}, {})", c.ix, c.iy);
                }
                CellStatus::Unresolved => panic!("full-resolution sweep left unresolved cells"),
            }
        }
        // The boundary column (a = 0 at ix = 10) is fully solved.
        for iy in 0..21 {
            let c = &atlas.cells[iy * 21 + 10];
            assert_eq!(c.status, CellStatus::Failed, "boundary cell iy={iy}");
        }
        // Determinism: a second run is byte-identical.
        let again = run_sweep_with(&spec, &SweepOptions::default(), &solver).unwrap();
        assert_eq!(again.canonical_json(), atlas.canonical_json());
    }

    /// Stopping refinement early (`resolution` > 1) leaves the disputed
    /// band `unresolved`, never mislabeled.
    #[test]
    fn coarse_resolution_leaves_unresolved_cells() {
        let spec = SweepSpec {
            axes: vec![axis("a", -1.0, 1.0, 17), axis("b", -1.5, -0.5, 17)],
            resolution: 4,
            ..SweepSpec::example()
        };
        let solver = |_cell: usize, problem: &CellProblem, (): ()| -> Result<CellOutcome, String> {
            let a = problem.system.modes()[0].flow()[0].eval(&[1.0, 0.0]);
            Ok(CellOutcome {
                certified: a < 0.0,
                digest: None,
                reason: None,
                fingerprint: "f".into(),
                seconds: 0.0,
                ledger: LedgerSnapshot::default(),
            })
        };
        let atlas = run_sweep_with(&spec, &SweepOptions::default(), &solver).unwrap();
        let unresolved = atlas
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Unresolved)
            .count();
        assert!(unresolved > 0, "resolution 4 must stop refinement early");
        for c in &atlas.cells {
            if c.status == CellStatus::Unresolved {
                assert!(c.digest.is_none() && c.fingerprint.is_none());
            }
        }
    }
}
