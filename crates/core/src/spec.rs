//! JSON system specification and pipeline execution.

use crate::{InevitabilityVerifier, PipelineOptions, Region, VerificationReport};
use cppll_hybrid::{HybridSystem, Jump, Mode, ParamBox};
use cppll_json::{ObjectBuilder, ToJson, Value};
use cppll_poly::Polynomial;

use crate::parse::{parse_polynomial, ParsePolynomialError};

/// One mode of the system.
#[derive(Debug, Clone)]
pub struct ModeSpec {
    /// Mode name.
    pub name: String,
    /// Flow components `ẋᵢ` as polynomial strings over states (+ params).
    pub flow: Vec<String>,
    /// Flow-set inequalities `g(x) ≥ 0` over the states (default empty).
    pub flow_set: Vec<String>,
}

/// One jump of the system.
#[derive(Debug, Clone)]
pub struct JumpSpec {
    /// Source mode index.
    pub from: usize,
    /// Target mode index.
    pub to: usize,
    /// Guard inequalities `g(x) ≥ 0` (default empty).
    pub guard: Vec<String>,
    /// Guard equalities `h(x) = 0` (default empty).
    pub guard_eq: Vec<String>,
    /// Reset map components (identity when omitted).
    pub reset: Vec<String>,
}

/// Uncertain-parameter box.
#[derive(Debug, Clone, Default)]
pub struct ParamSpec {
    /// Lower bounds.
    pub lo: Vec<f64>,
    /// Upper bounds.
    pub hi: Vec<f64>,
}

/// A polynomial hybrid system plus the inevitability query.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Number of state variables (`x0 … x{n−1}`).
    pub states: usize,
    /// Modes.
    pub modes: Vec<ModeSpec>,
    /// Jumps (default empty).
    pub jumps: Vec<JumpSpec>,
    /// Uncertain parameters (appended as `x{n} …` in flow strings).
    pub params: ParamSpec,
    /// Verified-region boundary inequalities `g(x) ≥ 0`.
    pub boundary: Vec<String>,
    /// Semi-axes of the ellipsoidal initial set.
    pub initial_radii: Vec<f64>,
    /// Lyapunov certificate degree (even, default 2).
    pub degree: u32,
}

fn default_degree() -> u32 {
    2
}

// ---------------------------------------------------------------------------
// JSON decoding (hand-rolled: the build has no registry access, so serde is
// unavailable; cppll-json supplies the Value tree).
// ---------------------------------------------------------------------------

fn invalid(message: impl Into<String>) -> SpecError {
    SpecError::Invalid {
        message: message.into(),
    }
}

fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, SpecError> {
    v.get(key)
        .ok_or_else(|| invalid(format!("{ctx}: missing field '{key}'")))
}

fn decode_usize(v: &Value, ctx: &str) -> Result<usize, SpecError> {
    v.as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| invalid(format!("{ctx}: expected a nonnegative integer")))
}

fn decode_strings(v: &Value, ctx: &str) -> Result<Vec<String>, SpecError> {
    let items = v
        .as_array()
        .ok_or_else(|| invalid(format!("{ctx}: expected an array of strings")))?;
    items
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("{ctx}: expected a string")))
        })
        .collect()
}

fn decode_numbers(v: &Value, ctx: &str) -> Result<Vec<f64>, SpecError> {
    let items = v
        .as_array()
        .ok_or_else(|| invalid(format!("{ctx}: expected an array of numbers")))?;
    items
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| invalid(format!("{ctx}: expected a number")))
        })
        .collect()
}

/// Decodes an optional array-of-strings field (absent → empty).
fn opt_strings(v: &Value, key: &str, ctx: &str) -> Result<Vec<String>, SpecError> {
    match v.get(key) {
        Some(inner) => decode_strings(inner, &format!("{ctx}.{key}")),
        None => Ok(Vec::new()),
    }
}

impl ModeSpec {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, SpecError> {
        Ok(ModeSpec {
            name: field(v, "name", ctx)?
                .as_str()
                .ok_or_else(|| invalid(format!("{ctx}.name: expected a string")))?
                .to_string(),
            flow: decode_strings(field(v, "flow", ctx)?, &format!("{ctx}.flow"))?,
            flow_set: opt_strings(v, "flow_set", ctx)?,
        })
    }
}

impl ToJson for ModeSpec {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("name", &self.name)
            .field("flow", &self.flow)
            .field("flow_set", &self.flow_set)
            .build()
    }
}

impl JumpSpec {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, SpecError> {
        Ok(JumpSpec {
            from: decode_usize(field(v, "from", ctx)?, &format!("{ctx}.from"))?,
            to: decode_usize(field(v, "to", ctx)?, &format!("{ctx}.to"))?,
            guard: opt_strings(v, "guard", ctx)?,
            guard_eq: opt_strings(v, "guard_eq", ctx)?,
            reset: opt_strings(v, "reset", ctx)?,
        })
    }
}

impl ToJson for JumpSpec {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("from", self.from)
            .field("to", self.to)
            .field("guard", &self.guard)
            .field("guard_eq", &self.guard_eq)
            .field("reset", &self.reset)
            .build()
    }
}

impl ToJson for ParamSpec {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("lo", &self.lo)
            .field("hi", &self.hi)
            .build()
    }
}

impl SystemSpec {
    /// Decodes a spec from already-parsed JSON.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] when required fields are missing or mistyped.
    pub fn from_json(v: &Value) -> Result<Self, SpecError> {
        let modes = field(v, "modes", "spec")?
            .as_array()
            .ok_or_else(|| invalid("spec.modes: expected an array"))?
            .iter()
            .enumerate()
            .map(|(i, m)| ModeSpec::from_json(m, &format!("modes[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let jumps = match v.get("jumps") {
            Some(js) => js
                .as_array()
                .ok_or_else(|| invalid("spec.jumps: expected an array"))?
                .iter()
                .enumerate()
                .map(|(i, j)| JumpSpec::from_json(j, &format!("jumps[{i}]")))
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        let params = match v.get("params") {
            Some(p) => ParamSpec {
                lo: match p.get("lo") {
                    Some(lo) => decode_numbers(lo, "params.lo")?,
                    None => Vec::new(),
                },
                hi: match p.get("hi") {
                    Some(hi) => decode_numbers(hi, "params.hi")?,
                    None => Vec::new(),
                },
            },
            None => ParamSpec::default(),
        };
        let degree = match v.get("degree") {
            Some(d) => u32::try_from(decode_usize(d, "spec.degree")?)
                .map_err(|_| invalid("spec.degree: out of range"))?,
            None => default_degree(),
        };
        Ok(SystemSpec {
            states: decode_usize(field(v, "states", "spec")?, "spec.states")?,
            modes,
            jumps,
            params,
            boundary: decode_strings(field(v, "boundary", "spec")?, "spec.boundary")?,
            initial_radii: decode_numbers(
                field(v, "initial_radii", "spec")?,
                "spec.initial_radii",
            )?,
            degree,
        })
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] on malformed JSON or a mistyped document.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        let v = cppll_json::parse(text).map_err(|e| invalid(format!("json: {e}")))?;
        Self::from_json(&v)
    }

    /// Renders an in-memory verification problem back into a spec, so a
    /// locally built system (e.g. one cell of a parameter sweep, PLL models
    /// included) can be shipped to a `cppll-serve` daemon as JSON.
    ///
    /// Polynomials are printed with shortest-round-trip coefficient
    /// formatting and re-parse to bit-identical term maps, so
    /// [`spec_fingerprint`] of the result equals the fingerprint of the
    /// original problem at the same degree.
    pub fn from_parts(
        system: &HybridSystem,
        boundary: &[Polynomial],
        initial_radii: &[f64],
        degree: u32,
    ) -> Self {
        let render = |ps: &[Polynomial]| ps.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        SystemSpec {
            states: system.nstates(),
            modes: system
                .modes()
                .iter()
                .map(|m| ModeSpec {
                    name: m.name().to_string(),
                    flow: render(m.flow()),
                    flow_set: render(m.flow_set()),
                })
                .collect(),
            jumps: system
                .jumps()
                .iter()
                .map(|j| JumpSpec {
                    from: j.from,
                    to: j.to,
                    guard: render(&j.guard),
                    guard_eq: render(&j.guard_eq),
                    reset: render(&j.reset),
                })
                .collect(),
            params: ParamSpec {
                lo: system.params().lo().to_vec(),
                hi: system.params().hi().to_vec(),
            },
            boundary: render(boundary),
            initial_radii: initial_radii.to_vec(),
            degree,
        }
    }
}

impl ToJson for SystemSpec {
    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("states", self.states)
            .field("modes", &self.modes)
            .field("jumps", &self.jumps)
            .field("params", &self.params)
            .field("boundary", &self.boundary)
            .field("initial_radii", &self.initial_radii)
            .field("degree", self.degree)
            .build()
    }
}

/// Errors surfaced while interpreting a [`SystemSpec`].
#[derive(Debug)]
pub enum SpecError {
    /// A polynomial string failed to parse (`context` says which field).
    Parse {
        /// Field the string came from.
        context: String,
        /// Underlying parse error.
        source: ParsePolynomialError,
    },
    /// The specification is structurally inconsistent.
    Invalid {
        /// What is wrong.
        message: String,
    },
    /// The verification pipeline failed.
    Verify(crate::VerifyError),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse { context, source } => write!(f, "in {context}: {source}"),
            SpecError::Invalid { message } => write!(f, "invalid spec: {message}"),
            SpecError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl SystemSpec {
    /// Builds the [`HybridSystem`] the spec describes.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] / [`SpecError::Invalid`] on malformed input.
    pub fn build_system(&self) -> Result<HybridSystem, SpecError> {
        let n = self.states;
        if self.params.lo.len() != self.params.hi.len() {
            return Err(SpecError::Invalid {
                message: "params.lo and params.hi must have equal length".into(),
            });
        }
        let ring = n + self.params.lo.len();
        let parse = |s: &str, nv: usize, ctx: &str| {
            parse_polynomial(s, nv).map_err(|source| SpecError::Parse {
                context: ctx.to_string(),
                source,
            })
        };
        let mut modes = Vec::with_capacity(self.modes.len());
        for (mi, m) in self.modes.iter().enumerate() {
            if m.flow.len() != n {
                return Err(SpecError::Invalid {
                    message: format!(
                        "mode {mi} has {} flow components; system has {n} states",
                        m.flow.len()
                    ),
                });
            }
            let flow: Vec<Polynomial> = m
                .flow
                .iter()
                .map(|s| parse(s, ring, &format!("modes[{mi}].flow")))
                .collect::<Result<_, _>>()?;
            let flow_set: Vec<Polynomial> = m
                .flow_set
                .iter()
                .map(|s| parse(s, n, &format!("modes[{mi}].flow_set")))
                .collect::<Result<_, _>>()?;
            modes.push(Mode::new(m.name.clone(), flow).with_flow_set(flow_set));
        }
        let mut jumps = Vec::with_capacity(self.jumps.len());
        for (ji, j) in self.jumps.iter().enumerate() {
            if j.from >= self.modes.len() || j.to >= self.modes.len() {
                return Err(SpecError::Invalid {
                    message: format!("jump {ji} references an unknown mode"),
                });
            }
            let mut jump = Jump::identity(j.from, j.to)
                .with_guard(
                    j.guard
                        .iter()
                        .map(|s| parse(s, n, &format!("jumps[{ji}].guard")))
                        .collect::<Result<_, _>>()?,
                )
                .with_guard_eq(
                    j.guard_eq
                        .iter()
                        .map(|s| parse(s, n, &format!("jumps[{ji}].guard_eq")))
                        .collect::<Result<_, _>>()?,
                );
            if !j.reset.is_empty() {
                if j.reset.len() != n {
                    return Err(SpecError::Invalid {
                        message: format!("jump {ji} reset must have {n} components"),
                    });
                }
                jump = jump.with_reset(
                    j.reset
                        .iter()
                        .map(|s| parse(s, n, &format!("jumps[{ji}].reset")))
                        .collect::<Result<_, _>>()?,
                );
            }
            jumps.push(jump);
        }
        Ok(HybridSystem::with_params(
            n,
            modes,
            jumps,
            ParamBox::new(self.params.lo.clone(), self.params.hi.clone()),
        ))
    }

    /// Parses the boundary inequalities.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] on malformed polynomials.
    pub fn build_boundary(&self) -> Result<Vec<Polynomial>, SpecError> {
        self.boundary
            .iter()
            .map(|s| {
                parse_polynomial(s, self.states).map_err(|source| SpecError::Parse {
                    context: "boundary".into(),
                    source,
                })
            })
            .collect()
    }
}

impl SystemSpec {
    /// Builds the spec's system, boundary and initial region and hands the
    /// resulting verifier to `f` (the verifier borrows the system, so it
    /// cannot outlive this call).
    ///
    /// # Errors
    ///
    /// [`SpecError`] on malformed input; `f` itself is infallible here.
    pub fn with_verifier<T>(
        &self,
        f: impl FnOnce(&InevitabilityVerifier<'_>) -> T,
    ) -> Result<T, SpecError> {
        if self.initial_radii.len() != self.states {
            return Err(invalid("initial_radii must have one entry per state"));
        }
        let system = self.build_system()?;
        let boundary = self.build_boundary()?;
        let verifier =
            InevitabilityVerifier::new(&system, boundary, Region::ellipsoid(&self.initial_radii));
        Ok(f(&verifier))
    }
}

/// Runs the inevitability pipeline for a JSON spec under `opt`, which
/// should be built from `PipelineOptions::degree(spec.degree)` so the
/// spec's certificate degree applies. With `validate = Some((trials,
/// seed))` the run is followed by a Monte-Carlo check of the certified
/// claims on that many sampled trajectories; the validation report is
/// `None` when it was not requested or the run produced no certificates.
///
/// # Errors
///
/// [`SpecError`] on malformed input or pipeline failure, including journal
/// I/O failures and stale/corrupt journals on resume.
pub fn run_inevitability(
    spec: &SystemSpec,
    opt: &PipelineOptions,
    validate: Option<(usize, u64)>,
) -> Result<(VerificationReport, Option<crate::ValidationReport>), SpecError> {
    spec.with_verifier(|verifier| {
        let report = verifier.verify(opt).map_err(SpecError::Verify)?;
        let validation =
            validate.and_then(|(trials, seed)| verifier.validate(&report, trials, seed));
        Ok((report, validation))
    })?
}

/// Computes the problem fingerprint a checkpointed run of `spec` would be
/// keyed by, without solving anything. Identical specs (and math-relevant
/// options) always map to the same fingerprint, which is what the
/// `cppll-serve` certificate cache and the run journals key on.
///
/// # Errors
///
/// [`SpecError`] on malformed input.
pub fn spec_fingerprint(spec: &SystemSpec) -> Result<u64, SpecError> {
    spec.with_verifier(|v| v.problem_fingerprint(&PipelineOptions::degree(spec.degree)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec() -> SystemSpec {
        SystemSpec::from_json_str(
            r#"{
              "states": 2,
              "modes": [
                {"name": "right", "flow": ["-1 x0 + 1 x1", "-1 x0 - 1 x1"], "flow_set": ["x0"]},
                {"name": "left",  "flow": ["-1 x0 + 0.5 x1", "-0.5 x0 - 1 x1"], "flow_set": ["-1 x0"]}
              ],
              "jumps": [
                {"from": 0, "to": 1, "guard_eq": ["x0"]},
                {"from": 1, "to": 0, "guard_eq": ["x0"]}
              ],
              "boundary": ["3 - 1 x0", "3 + 1 x0", "3 - 1 x1", "3 + 1 x1"],
              "initial_radii": [2.0, 2.0],
              "degree": 2
            }"#,
        )
        .expect("valid json")
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = toy_spec();
        let json = spec.to_json().to_compact_string();
        let back = SystemSpec::from_json_str(&json).unwrap();
        assert_eq!(back.states, 2);
        assert_eq!(back.modes.len(), 2);
        assert_eq!(back.jumps.len(), 2);
        assert_eq!(back.degree, spec.degree);
    }

    #[test]
    fn defaults_apply_for_omitted_fields() {
        let spec = SystemSpec::from_json_str(
            r#"{
              "states": 1,
              "modes": [{"name": "only", "flow": ["-1 x0"]}],
              "boundary": ["2 - 1 x0", "2 + 1 x0"],
              "initial_radii": [1.0]
            }"#,
        )
        .expect("valid json");
        assert_eq!(spec.degree, 2);
        assert!(spec.jumps.is_empty());
        assert!(spec.params.lo.is_empty());
        assert!(spec.modes[0].flow_set.is_empty());
    }

    #[test]
    fn decode_errors_name_the_field() {
        let missing = SystemSpec::from_json_str(r#"{"states": 1}"#).unwrap_err();
        assert!(missing.to_string().contains("modes"), "{missing}");
        let mistyped = SystemSpec::from_json_str(
            r#"{"states": 1, "modes": [{"name": 3, "flow": []}],
                "boundary": [], "initial_radii": []}"#,
        )
        .unwrap_err();
        assert!(mistyped.to_string().contains("modes[0].name"), "{mistyped}");
    }

    #[test]
    fn builds_hybrid_system() {
        let sys = toy_spec().build_system().expect("valid spec");
        assert_eq!(sys.nstates(), 2);
        assert_eq!(sys.modes().len(), 2);
        assert_eq!(sys.jumps().len(), 2);
        // Flow evaluates as written.
        let f = sys.eval_flow(0, &[1.0, 2.0], &[]);
        assert_eq!(f, vec![1.0, -3.0]);
    }

    #[test]
    fn from_parts_round_trips_the_fingerprint() {
        let spec = toy_spec();
        let sys = spec.build_system().unwrap();
        let boundary = spec.build_boundary().unwrap();
        let back = SystemSpec::from_parts(&sys, &boundary, &spec.initial_radii, spec.degree);
        assert_eq!(
            spec_fingerprint(&spec).unwrap(),
            spec_fingerprint(&back).unwrap(),
            "Display → parse must reproduce the exact problem"
        );
    }

    #[test]
    fn end_to_end_verification_from_json() {
        let spec = toy_spec();
        let (report, _) = run_inevitability(&spec, &PipelineOptions::degree(spec.degree), None)
            .expect("toy verifies");
        assert!(report.verdict.is_verified());
    }

    #[test]
    fn uncertain_parameters_flow_through_json() {
        // ẋ = −u·x with u ∈ [1, 2]: parameters are extra ring variables in
        // flow strings (x1 here), and the pipeline must verify robustly
        // over the box vertices.
        let spec = SystemSpec::from_json_str(
            r#"{
              "states": 1,
              "modes": [{"name": "decay", "flow": ["-1 x0 x1"]}],
              "params": {"lo": [1.0], "hi": [2.0]},
              "boundary": ["3 - 1 x0", "3 + 1 x0"],
              "initial_radii": [2.0],
              "degree": 2
            }"#,
        )
        .expect("valid json");
        let sys = spec.build_system().expect("valid spec");
        assert_eq!(sys.params().len(), 1);
        assert_eq!(sys.eval_flow(0, &[2.0], &[1.5]), vec![-3.0]);
        let (report, _) = run_inevitability(&spec, &PipelineOptions::degree(spec.degree), None)
            .expect("verifies");
        assert!(report.verdict.is_verified());
    }

    #[test]
    fn structural_errors_are_reported() {
        let mut spec = toy_spec();
        spec.modes[0].flow.pop();
        assert!(matches!(
            spec.build_system(),
            Err(SpecError::Invalid { .. })
        ));
        let mut spec2 = toy_spec();
        spec2.jumps[0].from = 9;
        assert!(matches!(
            spec2.build_system(),
            Err(SpecError::Invalid { .. })
        ));
        let mut spec3 = toy_spec();
        spec3.modes[0].flow[0] = "x7".into();
        assert!(matches!(spec3.build_system(), Err(SpecError::Parse { .. })));
    }
}
