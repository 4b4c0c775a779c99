//! Experiment specs: the typed schema behind `experiments/*.toml`.
//!
//! A spec file declares *what* to run — utility family, population
//! shape, contact model or trace, sweep axes, seeds, trials, fault
//! configuration — and names the `results/*.csv` artifacts it produces.
//! [`Spec::parse`] turns the TOML into a typed [`SpecKind`] payload,
//! rejecting unknown kinds, missing fields, bad utility strings, and
//! mismatched array lengths up front; [`Spec::plan`] derives the
//! execution plan (cells, seeds, outputs) without running anything.
//!
//! ```
//! use impatience_exp::Spec;
//!
//! let spec = Spec::parse(
//!     r#"
//!     name = "mini"
//!     figure = 4
//!     kind = "loss_sweep"
//!     title = "QCR vs fixed allocations"
//!
//!     [setting]
//!     nodes = 20
//!     items = 10
//!     rho = 2
//!     mu = 0.05
//!     bin = 60.0
//!     warmup_fraction = 0.3
//!     duration = 500.0
//!     trials = 2
//!
//!     [[sweep]]
//!     file = "mini_power_loss"
//!     param = "alpha"
//!     family = "power"
//!     values = [0.0, 0.5]
//!     seed = 42
//!     "#,
//!     std::path::Path::new("mini.toml"),
//! )
//! .unwrap();
//! let plan = spec.plan().unwrap();
//! assert_eq!(plan.outputs, vec!["mini_power_loss"]);
//! assert_eq!(plan.cells, vec!["alpha=0", "alpha=0.5"]);
//! assert_eq!(plan.seeds, vec![42]);
//! spec.validate().unwrap();
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use impatience_core::hash::fnv1a64;
use impatience_core::utility::{parse_utility, DelayUtility, Exponential, Power, Step};

use crate::error::ExpError;
use crate::toml::{self, Table, Value};

/// A parsed experiment spec: identity plus the kind-specific payload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Short unique name (`fig4`, `ext_eviction`, ...).
    pub name: String,
    /// Paper figure number, if the spec reproduces one.
    pub figure: Option<u32>,
    /// One-line human title.
    pub title: String,
    /// The typed payload.
    pub kind: SpecKind,
    /// Source file (for provenance and error messages).
    pub path: PathBuf,
    /// Raw file text (hashed into artifact manifests).
    pub raw: String,
}

/// The experiment families the executor knows how to run.
#[derive(Clone, Debug)]
pub enum SpecKind {
    /// Fig. 1: analytic delay-utility curves `h(t)` per panel.
    UtilityCurves(UtilityCurvesSpec),
    /// Fig. 2: fitted allocation exponent vs the analytic `1/(2−α)`.
    AllocExponent(AllocExponentSpec),
    /// Table 1: closed forms vs numeric integration.
    ClosedForms(ClosedFormsSpec),
    /// Mixed-catalog extension: per-item utilities, analytic welfare.
    MixedCatalog(MixedCatalogSpec),
    /// Figs. 4 / dedicated extension: normalized-loss sweeps under
    /// homogeneous (optionally dedicated-server) contacts.
    LossSweep(LossSweepSpec),
    /// Fig. 3: mandate-routing ablation time series.
    MandateRouting(MandateRoutingSpec),
    /// Figs. 5–6: generated-trace suites (time series + loss sweeps,
    /// optionally on the memoryless resynthesis).
    TraceSuite(TraceSuiteSpec),
    /// QCR knob ablation.
    QcrAblation(QcrAblationSpec),
    /// Dynamic-demand extension (mid-run popularity reversal).
    DynamicDemand(DynamicDemandSpec),
    /// Cache-eviction-rule extension.
    Eviction(EvictionSpec),
    /// Degraded-network fault sweeps (contact drops, server churn).
    Degraded(DegradedSpec),
}

impl SpecKind {
    /// The kind string as written in spec files.
    pub fn name(&self) -> &'static str {
        match self {
            SpecKind::UtilityCurves(_) => "utility_curves",
            SpecKind::AllocExponent(_) => "alloc_exponent",
            SpecKind::ClosedForms(_) => "closed_forms",
            SpecKind::MixedCatalog(_) => "mixed_catalog",
            SpecKind::LossSweep(_) => "loss_sweep",
            SpecKind::MandateRouting(_) => "mandate_routing",
            SpecKind::TraceSuite(_) => "trace_suite",
            SpecKind::QcrAblation(_) => "qcr_ablation",
            SpecKind::DynamicDemand(_) => "dynamic_demand",
            SpecKind::Eviction(_) => "eviction",
            SpecKind::Degraded(_) => "degraded",
        }
    }
}

/// One panel of a [`SpecKind::UtilityCurves`] spec.
#[derive(Clone, Debug)]
pub struct Panel {
    /// CSV stem.
    pub file: String,
    /// Column labels, aligned with `utilities`.
    pub labels: Vec<String>,
    /// Utility spec strings (`step:1`, `exp:0.1`, `power:-1`, `neglog`).
    pub utilities: Vec<String>,
}

/// Fig. 1 payload: sample `h(t)` on the grid `t = t_step·k, k = 1..=points`.
#[derive(Clone, Debug)]
pub struct UtilityCurvesSpec {
    /// Grid step.
    pub t_step: f64,
    /// Grid points.
    pub points: usize,
    /// The panels (one CSV each).
    pub panels: Vec<Panel>,
}

/// Fig. 2 payload: relaxed optimum on a dedicated system, log-log fit of
/// `x̃_i` against `d_i` for `α = tenths/10`.
#[derive(Clone, Debug)]
pub struct AllocExponentSpec {
    /// Client count of the dedicated system.
    pub clients: usize,
    /// Dedicated server count.
    pub servers: usize,
    /// Per-server cache capacity.
    pub rho: usize,
    /// Contact rate.
    pub mu: f64,
    /// Catalog size.
    pub items: usize,
    /// Pareto popularity exponent.
    pub omega: f64,
    /// Inclusive α range in integer tenths (α = k/10 keeps the grid
    /// bit-exact; k = 10, i.e. α = 1, is skipped and covered by NegLog).
    pub alpha_tenths: (i64, i64),
    /// CSV stem.
    pub file: String,
}

/// Table 1 payload: closed forms vs numerics for each utility family.
#[derive(Clone, Debug)]
pub struct ClosedFormsSpec {
    /// Contact rate for the gain/φ columns.
    pub mu: f64,
    /// Server count for the ψ column.
    pub servers: f64,
    /// Family display labels, aligned with `families`.
    pub labels: Vec<String>,
    /// Utility spec strings.
    pub families: Vec<String>,
    /// Evaluation points for the gain `G(μx)`.
    pub gain_points: Vec<f64>,
    /// Evaluation points for `φ(x)`.
    pub phi_points: Vec<f64>,
    /// Evaluation points for `ψ(y)`.
    pub psi_points: Vec<f64>,
    /// CSV stem.
    pub file: String,
}

/// Mixed-catalog payload: urgent/patient exponential catalog, analytic
/// welfare of each allocation strategy.
#[derive(Clone, Debug)]
pub struct MixedCatalogSpec {
    /// Catalog size.
    pub items: usize,
    /// Node count (pure P2P).
    pub nodes: usize,
    /// Cache capacity.
    pub rho: usize,
    /// Contact rate.
    pub mu: f64,
    /// ν of the urgent (even) items.
    pub urgent_nu: f64,
    /// ν of the patient (odd) items.
    pub patient_nu: f64,
    /// CSV stem.
    pub file: String,
}

/// One axis of a loss sweep: a utility family swept over `values`.
#[derive(Clone, Debug)]
pub struct SweepAxis {
    /// CSV stem.
    pub file: String,
    /// Parameter column name (`alpha`, `tau`, `nu`).
    pub param: String,
    /// Utility family: `power`, `step`, or `exp`.
    pub family: String,
    /// Swept parameter values.
    pub values: Vec<f64>,
    /// Base seed shared by every policy at every point (paired runs).
    pub seed: u64,
}

/// Figs. 4 / dedicated-extension payload.
#[derive(Clone, Debug)]
pub struct LossSweepSpec {
    /// Total node count.
    pub nodes: usize,
    /// Dedicated servers among them (0 = pure P2P).
    pub servers: usize,
    /// Catalog size.
    pub items: usize,
    /// Cache capacity.
    pub rho: usize,
    /// Contact rate.
    pub mu: f64,
    /// Metrics bin width (minutes).
    pub bin: f64,
    /// Warmup fraction excluded from the mean.
    pub warmup_fraction: f64,
    /// Trial horizon (minutes).
    pub duration: f64,
    /// Trials per (point, policy).
    pub trials: usize,
    /// The sweep axes (one CSV each).
    pub sweeps: Vec<SweepAxis>,
}

/// Fig. 3 payload.
#[derive(Clone, Debug)]
pub struct MandateRoutingSpec {
    /// Trials per policy.
    pub trials: usize,
    /// Trial horizon (minutes).
    pub duration: f64,
    /// Base seed (also the single-trial seed of the replica panels).
    pub seed: u64,
    /// Power-utility exponent (the paper uses α = 0, `h(t) = −t`).
    pub alpha: f64,
    /// CSV stem: expected-utility series.
    pub expected_file: String,
    /// CSV stem: observed-utility series.
    pub observed_file: String,
    /// CSV stem: top-5 replica series with routing.
    pub routing_file: String,
    /// CSV stem: top-5 replica series without routing.
    pub noroute_file: String,
}

/// Which generated trace a [`TraceSuiteSpec`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Conference scenario (Infocom'06 substitute).
    Conference,
    /// Vehicular scenario (Cabspotting substitute).
    Vehicular,
}

/// The optional time-series panel of a trace suite.
#[derive(Clone, Debug)]
pub struct TimeseriesPanel {
    /// CSV stem.
    pub file: String,
    /// Utility spec string.
    pub utility: String,
    /// Base seed.
    pub seed: u64,
}

/// One τ/α/ν axis of a trace suite.
#[derive(Clone, Debug)]
pub struct TraceSweepAxis {
    /// The common sweep fields.
    pub axis: SweepAxis,
    /// Run on the memoryless resynthesis instead of the actual trace.
    pub synthesized: bool,
}

/// Figs. 5–6 payload.
#[derive(Clone, Debug)]
pub struct TraceSuiteSpec {
    /// Which generator.
    pub trace: TraceKind,
    /// Seed of the trace generator RNG (which *continues* into the
    /// memoryless resynthesis, as Fig. 5 requires).
    pub trace_seed: u64,
    /// Catalog size.
    pub items: usize,
    /// Cache capacity.
    pub rho: usize,
    /// Metrics bin width (minutes).
    pub bin: f64,
    /// Warmup fraction.
    pub warmup_fraction: f64,
    /// Trials per (point, policy).
    pub trials: usize,
    /// Optional observed-utility time series panel.
    pub timeseries: Option<TimeseriesPanel>,
    /// The sweep axes.
    pub sweeps: Vec<TraceSweepAxis>,
}

/// QCR-ablation payload.
#[derive(Clone, Debug)]
pub struct QcrAblationSpec {
    /// Trials per variant.
    pub trials: usize,
    /// Trial horizon (minutes).
    pub duration: f64,
    /// Base seed shared by OPT and every variant.
    pub seed: u64,
    /// Regime display labels, aligned with `regimes`.
    pub regime_labels: Vec<String>,
    /// Utility spec strings of the regimes.
    pub regimes: Vec<String>,
    /// CSV stem.
    pub file: String,
}

/// Dynamic-demand payload.
#[derive(Clone, Debug)]
pub struct DynamicDemandSpec {
    /// Catalog size.
    pub items: usize,
    /// Node count (pure P2P).
    pub nodes: usize,
    /// Cache capacity.
    pub rho: usize,
    /// Contact rate.
    pub mu: f64,
    /// Trial horizon; demand reverses at `duration / 2`.
    pub duration: f64,
    /// Trials per policy.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
    /// Utility spec string.
    pub utility: String,
    /// CSV stem.
    pub file: String,
}

/// Eviction-rule payload.
#[derive(Clone, Debug)]
pub struct EvictionSpec {
    /// Trials per (regime, rule).
    pub trials: usize,
    /// Trial horizon (minutes).
    pub duration: f64,
    /// Base seed.
    pub seed: u64,
    /// Regime display labels, aligned with `regimes`.
    pub regime_labels: Vec<String>,
    /// Utility spec strings of the regimes.
    pub regimes: Vec<String>,
    /// Eviction rules to compare (`random`, `lru`, `fifo`).
    pub rules: Vec<String>,
    /// CSV stem.
    pub file: String,
}

/// One fault axis of a [`DegradedSpec`].
#[derive(Clone, Debug)]
pub struct FaultAxis {
    /// CSV stem.
    pub file: String,
    /// Parameter column name.
    pub param: String,
    /// Swept values (drop probability / down-time fraction).
    pub values: Vec<f64>,
    /// Dedicated fault-RNG seed.
    pub fault_seed: u64,
}

/// Degraded-network payload.
#[derive(Clone, Debug)]
pub struct DegradedSpec {
    /// Trials per (point, policy).
    pub trials: usize,
    /// Trial horizon (minutes).
    pub duration: f64,
    /// Utility spec string.
    pub utility: String,
    /// Base seed of the paired policy suite.
    pub seed: u64,
    /// Bursty contact-drop sweep (`mean_burst` length per drop).
    pub drop: FaultAxis,
    /// Mean burst length of the drop process.
    pub drop_mean_burst: f64,
    /// Exponential server-churn sweep.
    pub churn: FaultAxis,
    /// Mean up+down cycle length (minutes) of the churn process.
    pub churn_cycle: f64,
}

/// The execution plan [`Spec::plan`] derives without running anything:
/// what the spec will produce and from which seeds.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// CSV stems the spec writes (no extension).
    pub outputs: Vec<String>,
    /// Cell labels in execution order.
    pub cells: Vec<String>,
    /// Distinct base seeds, in first-use order (empty for analytic specs).
    pub seeds: Vec<u64>,
    /// Trials per simulated cell (0 for analytic specs).
    pub trials: usize,
}

// ---------------------------------------------------------------------
// Field accessors with spec-context errors.
// ---------------------------------------------------------------------

fn req<'a>(t: &'a Table, spec: &str, at: &str, key: &str) -> Result<&'a Value, ExpError> {
    t.get(key)
        .ok_or_else(|| ExpError::spec(spec, format!("missing `{key}` in {at}")))
}

fn req_str(t: &Table, spec: &str, at: &str, key: &str) -> Result<String, ExpError> {
    let v = req(t, spec, at, key)?;
    v.as_str().map(str::to_string).ok_or_else(|| {
        ExpError::spec(
            spec,
            format!("`{key}` in {at} must be a string, got {}", v.type_name()),
        )
    })
}

fn req_f64(t: &Table, spec: &str, at: &str, key: &str) -> Result<f64, ExpError> {
    let v = req(t, spec, at, key)?;
    v.as_f64().ok_or_else(|| {
        ExpError::spec(
            spec,
            format!("`{key}` in {at} must be a number, got {}", v.type_name()),
        )
    })
}

fn req_usize(t: &Table, spec: &str, at: &str, key: &str) -> Result<usize, ExpError> {
    let v = req(t, spec, at, key)?;
    v.as_int()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| {
            ExpError::spec(
                spec,
                format!(
                    "`{key}` in {at} must be a non-negative integer, got {}",
                    v.type_name()
                ),
            )
        })
}

fn req_u64(t: &Table, spec: &str, at: &str, key: &str) -> Result<u64, ExpError> {
    let v = req(t, spec, at, key)?;
    v.as_int()
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| {
            ExpError::spec(
                spec,
                format!(
                    "`{key}` in {at} must be a non-negative integer, got {}",
                    v.type_name()
                ),
            )
        })
}

fn req_i64(t: &Table, spec: &str, at: &str, key: &str) -> Result<i64, ExpError> {
    let v = req(t, spec, at, key)?;
    v.as_int().ok_or_else(|| {
        ExpError::spec(
            spec,
            format!("`{key}` in {at} must be an integer, got {}", v.type_name()),
        )
    })
}

fn req_f64_array(t: &Table, spec: &str, at: &str, key: &str) -> Result<Vec<f64>, ExpError> {
    let v = req(t, spec, at, key)?;
    let arr = v.as_array().ok_or_else(|| {
        ExpError::spec(
            spec,
            format!("`{key}` in {at} must be an array, got {}", v.type_name()),
        )
    })?;
    arr.iter()
        .map(|x| {
            x.as_f64().ok_or_else(|| {
                ExpError::spec(spec, format!("`{key}` in {at} must contain only numbers"))
            })
        })
        .collect()
}

fn req_str_array(t: &Table, spec: &str, at: &str, key: &str) -> Result<Vec<String>, ExpError> {
    let v = req(t, spec, at, key)?;
    let arr = v.as_array().ok_or_else(|| {
        ExpError::spec(
            spec,
            format!("`{key}` in {at} must be an array, got {}", v.type_name()),
        )
    })?;
    arr.iter()
        .map(|x| {
            x.as_str().map(str::to_string).ok_or_else(|| {
                ExpError::spec(spec, format!("`{key}` in {at} must contain only strings"))
            })
        })
        .collect()
}

fn req_table<'a>(t: &'a Table, spec: &str, key: &str) -> Result<&'a Table, ExpError> {
    let v = req(t, spec, "the spec", key)?;
    v.as_table().ok_or_else(|| {
        ExpError::spec(
            spec,
            format!("`[{key}]` must be a table, got {}", v.type_name()),
        )
    })
}

fn req_table_array<'a>(t: &'a Table, spec: &str, key: &str) -> Result<Vec<&'a Table>, ExpError> {
    let v = req(t, spec, "the spec", key)?;
    let arr = v
        .as_array()
        .ok_or_else(|| ExpError::spec(spec, format!("`[[{key}]]` must be an array of tables")))?;
    arr.iter()
        .map(|x| {
            x.as_table()
                .ok_or_else(|| ExpError::spec(spec, format!("`[[{key}]]` must contain tables")))
        })
        .collect()
}

/// Parse + validate a utility spec string, with spec context on failure.
pub fn utility_of(spec: &str, s: &str) -> Result<Arc<dyn DelayUtility>, ExpError> {
    parse_utility(s).map_err(|e| ExpError::spec(spec, e.to_string()))
}

/// Build a swept utility directly from (family, value) so the parameter
/// keeps the exact bits the spec file carries.
pub fn family_utility(
    spec: &str,
    family: &str,
    value: f64,
) -> Result<Arc<dyn DelayUtility>, ExpError> {
    // Mirror `parse_utility`'s bounds so a bad spec value surfaces as a
    // config error instead of tripping the constructors' asserts.
    match family {
        "power" if value.is_finite() && value < 2.0 && value != 1.0 => {
            Ok(Arc::new(Power::new(value)))
        }
        "power" => Err(ExpError::spec(
            spec,
            format!("power exponent must be finite, < 2 and ≠ 1 (got {value})"),
        )),
        "step" if value.is_finite() && value > 0.0 => Ok(Arc::new(Step::new(value))),
        "step" => Err(ExpError::spec(
            spec,
            format!("step deadline must be positive (got {value})"),
        )),
        "exp" if value.is_finite() && value > 0.0 => Ok(Arc::new(Exponential::new(value))),
        "exp" => Err(ExpError::spec(
            spec,
            format!("exponential decay rate must be positive (got {value})"),
        )),
        other => Err(ExpError::spec(
            spec,
            format!("unknown sweep family `{other}` (expected power|step|exp)"),
        )),
    }
}

fn aligned(spec: &str, at: &str, labels: &[String], values: &[String]) -> Result<(), ExpError> {
    if labels.len() != values.len() {
        return Err(ExpError::spec(
            spec,
            format!(
                "{at}: label/utility arrays have mismatched lengths ({} vs {})",
                labels.len(),
                values.len()
            ),
        ));
    }
    Ok(())
}

fn parse_sweep_axis(t: &Table, spec: &str, at: &str) -> Result<SweepAxis, ExpError> {
    let axis = SweepAxis {
        file: req_str(t, spec, at, "file")?,
        param: req_str(t, spec, at, "param")?,
        family: req_str(t, spec, at, "family")?,
        values: req_f64_array(t, spec, at, "values")?,
        seed: req_u64(t, spec, at, "seed")?,
    };
    if axis.values.is_empty() {
        return Err(ExpError::spec(spec, format!("{at}: empty `values`")));
    }
    // Reject unknown families and out-of-range parameters at parse
    // time, not mid-campaign.
    for &v in &axis.values {
        family_utility(spec, &axis.family, v)?;
    }
    Ok(axis)
}

impl Spec {
    /// Parse a spec document. `path` is recorded for provenance and
    /// error messages only; use [`Spec::load`] to read from disk.
    pub fn parse(text: &str, path: &Path) -> Result<Spec, ExpError> {
        let root = toml::parse(text).map_err(|source| ExpError::Parse {
            path: path.to_path_buf(),
            source,
        })?;
        let fallback = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "?".to_string());
        let name = match root.get("name") {
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| ExpError::spec(&fallback, "`name` must be a string"))?,
            None => return Err(ExpError::spec(&fallback, "missing top-level `name`")),
        };
        let figure = match root.get("figure") {
            None => None,
            Some(v) => Some(
                v.as_int()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| ExpError::spec(&name, "`figure` must be a small integer"))?,
            ),
        };
        let title = req_str(&root, &name, "the spec", "title")?;
        let kind_name = req_str(&root, &name, "the spec", "kind")?;
        let kind = Self::parse_kind(&kind_name, &name, &root)?;
        Ok(Spec {
            name,
            figure,
            title,
            kind,
            path: path.to_path_buf(),
            raw: text.to_string(),
        })
    }

    /// Read and parse a spec file.
    pub fn load(path: &Path) -> Result<Spec, ExpError> {
        let text = std::fs::read_to_string(path).map_err(|source| ExpError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        Spec::parse(&text, path)
    }

    fn parse_kind(kind: &str, name: &str, root: &Table) -> Result<SpecKind, ExpError> {
        match kind {
            "utility_curves" => {
                let s = req_table(root, name, "setting")?;
                let panels = req_table_array(root, name, "panel")?
                    .into_iter()
                    .map(|p| {
                        let panel = Panel {
                            file: req_str(p, name, "[[panel]]", "file")?,
                            labels: req_str_array(p, name, "[[panel]]", "labels")?,
                            utilities: req_str_array(p, name, "[[panel]]", "utilities")?,
                        };
                        aligned(name, "[[panel]]", &panel.labels, &panel.utilities)?;
                        for u in &panel.utilities {
                            utility_of(name, u)?;
                        }
                        Ok(panel)
                    })
                    .collect::<Result<Vec<_>, ExpError>>()?;
                Ok(SpecKind::UtilityCurves(UtilityCurvesSpec {
                    t_step: req_f64(s, name, "[setting]", "t_step")?,
                    points: req_usize(s, name, "[setting]", "points")?,
                    panels,
                }))
            }
            "alloc_exponent" => {
                let s = req_table(root, name, "setting")?;
                Ok(SpecKind::AllocExponent(AllocExponentSpec {
                    clients: req_usize(s, name, "[setting]", "clients")?,
                    servers: req_usize(s, name, "[setting]", "servers")?,
                    rho: req_usize(s, name, "[setting]", "rho")?,
                    mu: req_f64(s, name, "[setting]", "mu")?,
                    items: req_usize(s, name, "[setting]", "items")?,
                    omega: req_f64(s, name, "[setting]", "omega")?,
                    alpha_tenths: (
                        req_i64(s, name, "[setting]", "alpha_tenths_min")?,
                        req_i64(s, name, "[setting]", "alpha_tenths_max")?,
                    ),
                    file: req_str(s, name, "[setting]", "file")?,
                }))
            }
            "closed_forms" => {
                let s = req_table(root, name, "setting")?;
                let labels = req_str_array(s, name, "[setting]", "labels")?;
                let families = req_str_array(s, name, "[setting]", "families")?;
                aligned(name, "[setting]", &labels, &families)?;
                for f in &families {
                    utility_of(name, f)?;
                }
                Ok(SpecKind::ClosedForms(ClosedFormsSpec {
                    mu: req_f64(s, name, "[setting]", "mu")?,
                    servers: req_f64(s, name, "[setting]", "servers")?,
                    labels,
                    families,
                    gain_points: req_f64_array(s, name, "[setting]", "gain_points")?,
                    phi_points: req_f64_array(s, name, "[setting]", "phi_points")?,
                    psi_points: req_f64_array(s, name, "[setting]", "psi_points")?,
                    file: req_str(s, name, "[setting]", "file")?,
                }))
            }
            "mixed_catalog" => {
                let s = req_table(root, name, "setting")?;
                Ok(SpecKind::MixedCatalog(MixedCatalogSpec {
                    items: req_usize(s, name, "[setting]", "items")?,
                    nodes: req_usize(s, name, "[setting]", "nodes")?,
                    rho: req_usize(s, name, "[setting]", "rho")?,
                    mu: req_f64(s, name, "[setting]", "mu")?,
                    urgent_nu: req_f64(s, name, "[setting]", "urgent_nu")?,
                    patient_nu: req_f64(s, name, "[setting]", "patient_nu")?,
                    file: req_str(s, name, "[setting]", "file")?,
                }))
            }
            "loss_sweep" => {
                let s = req_table(root, name, "setting")?;
                let sweeps = req_table_array(root, name, "sweep")?
                    .into_iter()
                    .map(|t| parse_sweep_axis(t, name, "[[sweep]]"))
                    .collect::<Result<Vec<_>, _>>()?;
                let servers = match s.get("servers") {
                    None => 0,
                    Some(_) => req_usize(s, name, "[setting]", "servers")?,
                };
                Ok(SpecKind::LossSweep(LossSweepSpec {
                    nodes: req_usize(s, name, "[setting]", "nodes")?,
                    servers,
                    items: req_usize(s, name, "[setting]", "items")?,
                    rho: req_usize(s, name, "[setting]", "rho")?,
                    mu: req_f64(s, name, "[setting]", "mu")?,
                    bin: req_f64(s, name, "[setting]", "bin")?,
                    warmup_fraction: req_f64(s, name, "[setting]", "warmup_fraction")?,
                    duration: req_f64(s, name, "[setting]", "duration")?,
                    trials: req_usize(s, name, "[setting]", "trials")?,
                    sweeps,
                }))
            }
            "mandate_routing" => {
                let s = req_table(root, name, "setting")?;
                Ok(SpecKind::MandateRouting(MandateRoutingSpec {
                    trials: req_usize(s, name, "[setting]", "trials")?,
                    duration: req_f64(s, name, "[setting]", "duration")?,
                    seed: req_u64(s, name, "[setting]", "seed")?,
                    alpha: req_f64(s, name, "[setting]", "alpha")?,
                    expected_file: req_str(s, name, "[setting]", "expected_file")?,
                    observed_file: req_str(s, name, "[setting]", "observed_file")?,
                    routing_file: req_str(s, name, "[setting]", "routing_file")?,
                    noroute_file: req_str(s, name, "[setting]", "noroute_file")?,
                }))
            }
            "trace_suite" => {
                let s = req_table(root, name, "setting")?;
                let trace = match req_str(s, name, "[setting]", "trace")?.as_str() {
                    "conference" => TraceKind::Conference,
                    "vehicular" => TraceKind::Vehicular,
                    other => {
                        return Err(ExpError::spec(
                            name,
                            format!("unknown trace `{other}` (expected conference|vehicular)"),
                        ))
                    }
                };
                let timeseries = match root.get("timeseries") {
                    None => None,
                    Some(v) => {
                        let t = v.as_table().ok_or_else(|| {
                            ExpError::spec(name, "`[timeseries]` must be a table")
                        })?;
                        let panel = TimeseriesPanel {
                            file: req_str(t, name, "[timeseries]", "file")?,
                            utility: req_str(t, name, "[timeseries]", "utility")?,
                            seed: req_u64(t, name, "[timeseries]", "seed")?,
                        };
                        utility_of(name, &panel.utility)?;
                        Some(panel)
                    }
                };
                let sweeps = req_table_array(root, name, "sweep")?
                    .into_iter()
                    .map(|t| {
                        Ok(TraceSweepAxis {
                            axis: parse_sweep_axis(t, name, "[[sweep]]")?,
                            synthesized: match t.get("synthesized") {
                                None => false,
                                Some(v) => v.as_bool().ok_or_else(|| {
                                    ExpError::spec(name, "`synthesized` must be a boolean")
                                })?,
                            },
                        })
                    })
                    .collect::<Result<Vec<_>, ExpError>>()?;
                Ok(SpecKind::TraceSuite(TraceSuiteSpec {
                    trace,
                    trace_seed: req_u64(s, name, "[setting]", "trace_seed")?,
                    items: req_usize(s, name, "[setting]", "items")?,
                    rho: req_usize(s, name, "[setting]", "rho")?,
                    bin: req_f64(s, name, "[setting]", "bin")?,
                    warmup_fraction: req_f64(s, name, "[setting]", "warmup_fraction")?,
                    trials: req_usize(s, name, "[setting]", "trials")?,
                    timeseries,
                    sweeps,
                }))
            }
            "qcr_ablation" => {
                let s = req_table(root, name, "setting")?;
                let regime_labels = req_str_array(s, name, "[setting]", "regime_labels")?;
                let regimes = req_str_array(s, name, "[setting]", "regimes")?;
                aligned(name, "[setting]", &regime_labels, &regimes)?;
                for r in &regimes {
                    utility_of(name, r)?;
                }
                Ok(SpecKind::QcrAblation(QcrAblationSpec {
                    trials: req_usize(s, name, "[setting]", "trials")?,
                    duration: req_f64(s, name, "[setting]", "duration")?,
                    seed: req_u64(s, name, "[setting]", "seed")?,
                    regime_labels,
                    regimes,
                    file: req_str(s, name, "[setting]", "file")?,
                }))
            }
            "dynamic_demand" => {
                let s = req_table(root, name, "setting")?;
                let spec = DynamicDemandSpec {
                    items: req_usize(s, name, "[setting]", "items")?,
                    nodes: req_usize(s, name, "[setting]", "nodes")?,
                    rho: req_usize(s, name, "[setting]", "rho")?,
                    mu: req_f64(s, name, "[setting]", "mu")?,
                    duration: req_f64(s, name, "[setting]", "duration")?,
                    trials: req_usize(s, name, "[setting]", "trials")?,
                    seed: req_u64(s, name, "[setting]", "seed")?,
                    utility: req_str(s, name, "[setting]", "utility")?,
                    file: req_str(s, name, "[setting]", "file")?,
                };
                utility_of(name, &spec.utility)?;
                Ok(SpecKind::DynamicDemand(spec))
            }
            "eviction" => {
                let s = req_table(root, name, "setting")?;
                let regime_labels = req_str_array(s, name, "[setting]", "regime_labels")?;
                let regimes = req_str_array(s, name, "[setting]", "regimes")?;
                aligned(name, "[setting]", &regime_labels, &regimes)?;
                for r in &regimes {
                    utility_of(name, r)?;
                }
                let rules = req_str_array(s, name, "[setting]", "rules")?;
                for r in &rules {
                    if !matches!(r.as_str(), "random" | "lru" | "fifo") {
                        return Err(ExpError::spec(
                            name,
                            format!("unknown eviction rule `{r}` (expected random|lru|fifo)"),
                        ));
                    }
                }
                Ok(SpecKind::Eviction(EvictionSpec {
                    trials: req_usize(s, name, "[setting]", "trials")?,
                    duration: req_f64(s, name, "[setting]", "duration")?,
                    seed: req_u64(s, name, "[setting]", "seed")?,
                    regime_labels,
                    regimes,
                    rules,
                    file: req_str(s, name, "[setting]", "file")?,
                }))
            }
            "degraded" => {
                let s = req_table(root, name, "setting")?;
                let utility = req_str(s, name, "[setting]", "utility")?;
                utility_of(name, &utility)?;
                let axis = |key: &str| -> Result<FaultAxis, ExpError> {
                    let t = req_table(root, name, key)?;
                    Ok(FaultAxis {
                        file: req_str(t, name, key, "file")?,
                        param: req_str(t, name, key, "param")?,
                        values: req_f64_array(t, name, key, "values")?,
                        fault_seed: req_u64(t, name, key, "fault_seed")?,
                    })
                };
                let drop_table = req_table(root, name, "drop")?;
                let churn_table = req_table(root, name, "churn")?;
                Ok(SpecKind::Degraded(DegradedSpec {
                    trials: req_usize(s, name, "[setting]", "trials")?,
                    duration: req_f64(s, name, "[setting]", "duration")?,
                    utility,
                    seed: req_u64(s, name, "[setting]", "seed")?,
                    drop: axis("drop")?,
                    drop_mean_burst: req_f64(drop_table, name, "[drop]", "mean_burst")?,
                    churn: axis("churn")?,
                    churn_cycle: req_f64(churn_table, name, "[churn]", "cycle")?,
                }))
            }
            other => Err(ExpError::spec(
                name,
                format!("unknown experiment kind `{other}`"),
            )),
        }
    }

    /// The FNV-1a 64-bit hash of the spec file bytes, as stamped into
    /// artifact manifests (`fnv1a:<16 hex digits>`).
    pub fn hash(&self) -> String {
        format!("fnv1a:{:016x}", fnv1a64(self.raw.as_bytes()))
    }

    /// Derive the execution plan: outputs, cell labels, seeds, trials.
    pub fn plan(&self) -> Result<Plan, ExpError> {
        let mut outputs = Vec::new();
        let mut cells = Vec::new();
        let mut seeds: Vec<u64> = Vec::new();
        let push_seed = |seeds: &mut Vec<u64>, s: u64| {
            if !seeds.contains(&s) {
                seeds.push(s);
            }
        };
        let trials = match &self.kind {
            SpecKind::UtilityCurves(s) => {
                for p in &s.panels {
                    outputs.push(p.file.clone());
                    cells.push(p.file.clone());
                }
                0
            }
            SpecKind::AllocExponent(s) => {
                outputs.push(s.file.clone());
                cells.push(s.file.clone());
                0
            }
            SpecKind::ClosedForms(s) => {
                outputs.push(s.file.clone());
                for l in &s.labels {
                    cells.push(l.clone());
                }
                0
            }
            SpecKind::MixedCatalog(s) => {
                outputs.push(s.file.clone());
                cells.push(s.file.clone());
                0
            }
            SpecKind::LossSweep(s) => {
                for sw in &s.sweeps {
                    outputs.push(sw.file.clone());
                    push_seed(&mut seeds, sw.seed);
                    for v in &sw.values {
                        cells.push(format!("{}={v}", sw.param));
                    }
                }
                s.trials
            }
            SpecKind::MandateRouting(s) => {
                outputs.extend([
                    s.expected_file.clone(),
                    s.observed_file.clone(),
                    s.routing_file.clone(),
                    s.noroute_file.clone(),
                ]);
                for label in ["QCR", "QCR-no-routing", "OPT", "UNI", "DOM"] {
                    cells.push(label.to_string());
                }
                cells.push("replicas".to_string());
                push_seed(&mut seeds, s.seed);
                s.trials
            }
            SpecKind::TraceSuite(s) => {
                if let Some(ts) = &s.timeseries {
                    outputs.push(ts.file.clone());
                    cells.push(format!("{} timeseries", ts.file));
                    push_seed(&mut seeds, ts.seed);
                }
                for sw in &s.sweeps {
                    outputs.push(sw.axis.file.clone());
                    push_seed(&mut seeds, sw.axis.seed);
                    for v in &sw.axis.values {
                        let tag = if sw.synthesized { " (synthesized)" } else { "" };
                        cells.push(format!("{}={v}{tag}", sw.axis.param));
                    }
                }
                s.trials
            }
            SpecKind::QcrAblation(s) => {
                outputs.push(s.file.clone());
                for r in &s.regime_labels {
                    cells.push(r.clone());
                }
                push_seed(&mut seeds, s.seed);
                s.trials
            }
            SpecKind::DynamicDemand(s) => {
                outputs.push(s.file.clone());
                for label in ["QCR", "OPT-stale", "OPT-fresh", "UNI"] {
                    cells.push(label.to_string());
                }
                push_seed(&mut seeds, s.seed);
                s.trials
            }
            SpecKind::Eviction(s) => {
                outputs.push(s.file.clone());
                for r in &s.regime_labels {
                    cells.push(r.clone());
                }
                push_seed(&mut seeds, s.seed);
                s.trials
            }
            SpecKind::Degraded(s) => {
                for axis in [&s.drop, &s.churn] {
                    outputs.push(axis.file.clone());
                    for v in &axis.values {
                        cells.push(format!("{}={v}", axis.param));
                    }
                }
                push_seed(&mut seeds, s.seed);
                s.trials
            }
        };
        Ok(Plan {
            outputs,
            cells,
            seeds,
            trials,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unknown_kind_and_missing_fields() {
        let bad = Spec::parse(
            "name = \"x\"\ntitle = \"t\"\nkind = \"nope\"\n",
            Path::new("x.toml"),
        );
        assert!(matches!(bad, Err(ExpError::Spec { .. })), "{bad:?}");
        let missing = Spec::parse("title = \"t\"\nkind = \"degraded\"\n", Path::new("x.toml"));
        assert!(missing.is_err());
    }

    #[test]
    fn rejects_bad_utility_strings_at_parse_time() {
        let doc = r#"
            name = "x"
            title = "t"
            kind = "qcr_ablation"
            [setting]
            trials = 2
            duration = 100.0
            seed = 1
            regime_labels = ["bad"]
            regimes = ["step:-3"]
            file = "f"
        "#;
        let e = Spec::parse(doc, Path::new("x.toml")).unwrap_err();
        assert!(e.to_string().contains("step"), "{e}");
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = Spec::parse(
            "name = \"a\"\ntitle = \"t\"\nkind = \"mixed_catalog\"\n[setting]\nitems = 4\nnodes = 4\nrho = 1\nmu = 0.05\nurgent_nu = 1.0\npatient_nu = 0.01\nfile = \"f\"\n",
            Path::new("a.toml"),
        )
        .unwrap();
        assert!(a.hash().starts_with("fnv1a:"));
        assert_eq!(a.hash(), a.hash());
        let mut other = a.clone();
        other.raw.push('\n');
        assert_ne!(a.hash(), other.hash());
    }
}
