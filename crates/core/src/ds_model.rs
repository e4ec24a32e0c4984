//! The domain-specific energy/time models (§4.2 of the paper).
//!
//! Two models per application — one for execution time, one for energy —
//! trained on `(input features, frequency) → (time, energy)` samples
//! gathered by running the application itself (Figure 11). At prediction
//! time the models are evaluated at every frequency plus the default
//! configuration, and speedup / normalized energy are computed from the
//! *predicted* default values (Figure 12) — so any systematic per-input
//! offset cancels in the ratios.
//!
//! Targets are modelled in log space: times and energies span orders of
//! magnitude across the paper's input grid, and the quantities of interest
//! are ratios.
//!
//! [`DomainSpecificModel::train_selecting`] reproduces the paper's model
//! selection (§5.2.1): Linear, Lasso, SVR-RBF, and Random Forest compete
//! under K-fold cross-validation; Random Forest wins.

use std::sync::Arc;

use ml::dataset::Matrix;
use ml::flat::FlatForest;
use ml::forest::{RandomForest, RandomForestParams};
use ml::lasso::Lasso;
use ml::linear::LinearRegression;
use ml::svr::SvrRbf;
use ml::Regressor;
use serde::{Deserialize, Serialize};

pub use crate::gp_model::PredictedPoint;

/// One training sample `s = (f⃗, c, t, e)` (§4.2.2).
///
/// The feature vector is shared (`Arc`) with its sibling samples: a sweep
/// contributes one sample per frequency point but only one distinct input
/// feature vector, so cloning samples — which LOOCV and model selection do
/// per fold — costs a reference count, not an allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DsSample {
    /// Domain-specific input features `f⃗` (Table 2).
    pub features: Arc<Vec<f64>>,
    /// Frequency configuration `c` (MHz).
    pub freq_mhz: f64,
    /// Measured execution time `t` (s).
    pub time_s: f64,
    /// Measured energy `e` (J).
    pub energy_j: f64,
}

/// One training sample keyed by a full operating configuration: the
/// input features plus a `config` row whose width is the model's
/// [`DomainSpecificModel::config_cols`] — `[core_mhz, mem_mhz, cap_w]` for
/// a configuration lattice, with `num_devices` appended for a gang.
///
/// Every configuration value is a plain finite number: the cap column
/// carries the device TDP for uncapped points, so the model sees one
/// continuous axis instead of a sentinel, and the gang size is an exact
/// small integer carried as `f64` so the design matrix stays one
/// homogeneous float block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigSample {
    /// Domain-specific input features `f⃗` (Table 2).
    pub features: Arc<Vec<f64>>,
    /// The operating configuration the sample was measured at.
    pub config: Vec<f64>,
    /// Measured execution time (makespan, for a gang) `t` (s).
    pub time_s: f64,
    /// Measured energy (summed over a gang) `e` (J).
    pub energy_j: f64,
}

/// One predicted operating point, normalized to the model's default
/// configuration (the configuration-keyed sibling of [`PredictedPoint`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigPredictedPoint {
    /// The configuration, in the model's column order.
    pub config: Vec<f64>,
    /// Predicted `t_default / t`.
    pub speedup: f64,
    /// Predicted `e / e_default`.
    pub norm_energy: f64,
}

/// One input's predicted configuration surface: the default-configuration
/// anchors plus the normalized points.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigCurvePrediction {
    /// Predicted execution time at the default configuration (s).
    pub default_time_s: f64,
    /// Predicted energy at the default configuration (J).
    pub default_energy_j: f64,
    /// Normalized predictions over the requested configurations.
    pub curve: Vec<ConfigPredictedPoint>,
}

/// The regression algorithms the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Ordinary least squares.
    Linear,
    /// L1-regularized linear regression.
    Lasso,
    /// ε-SVR with an RBF kernel.
    SvrRbf,
    /// Random Forest (the winner in the paper and here).
    RandomForest,
}

impl Algorithm {
    /// All four candidates, in the paper's order.
    pub fn all() -> [Algorithm; 4] {
        [
            Algorithm::Linear,
            Algorithm::Lasso,
            Algorithm::SvrRbf,
            Algorithm::RandomForest,
        ]
    }

    fn build(&self, seed: u64) -> AnyModel {
        match self {
            Algorithm::Linear => AnyModel::Linear(LinearRegression::new()),
            Algorithm::Lasso => AnyModel::Lasso(Lasso::new(1e-3)),
            Algorithm::SvrRbf => AnyModel::Svr(SvrRbf::with_defaults()),
            Algorithm::RandomForest => AnyModel::Forest(RandomForest::new(
                RandomForestParams {
                    n_estimators: 60,
                    ..Default::default()
                },
                seed,
            )),
        }
    }
}

/// Type-erased regressor covering the four candidate algorithms.
#[derive(Debug, Clone, PartialEq)]
enum AnyModel {
    Linear(LinearRegression),
    Lasso(Lasso),
    Svr(SvrRbf),
    Forest(RandomForest),
}

impl Regressor for AnyModel {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        match self {
            AnyModel::Linear(m) => m.fit(x, y),
            AnyModel::Lasso(m) => m.fit(x, y),
            AnyModel::Svr(m) => m.fit(x, y),
            AnyModel::Forest(m) => m.fit(x, y),
        }
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        match self {
            AnyModel::Linear(m) => m.predict_row(row),
            AnyModel::Lasso(m) => m.predict_row(row),
            AnyModel::Svr(m) => m.predict_row(row),
            AnyModel::Forest(m) => m.predict_row(row),
        }
    }

    /// One enum dispatch per batch instead of per row; the forest arm also
    /// picks up `RandomForest`'s tree-major override.
    fn predict_batch(&self, x: &Matrix, out: &mut Vec<f64>) {
        match self {
            AnyModel::Linear(m) => m.predict_batch(x, out),
            AnyModel::Lasso(m) => m.predict_batch(x, out),
            AnyModel::Svr(m) => m.predict_batch(x, out),
            AnyModel::Forest(m) => m.predict_batch(x, out),
        }
    }
}

impl AnyModel {
    /// Flattened-forest compilation hook: `Some` only for the forest arm.
    fn compile_flat(&self) -> Option<FlatForest> {
        match self {
            AnyModel::Forest(m) => Some(m.flatten()),
            _ => None,
        }
    }

    /// The stored form of this model: a forest as its compiled arena plus
    /// the parameters and seed that rebuild its trees, any other algorithm
    /// as itself.
    fn store(&self, flat: Option<&FlatForest>) -> StoredModel {
        match self {
            AnyModel::Linear(m) => StoredModel::Linear(m.clone()),
            AnyModel::Lasso(m) => StoredModel::Lasso(m.clone()),
            AnyModel::Svr(m) => StoredModel::Svr(m.clone()),
            AnyModel::Forest(m) => StoredModel::FlatForest(StoredForest {
                params: m.params,
                seed: m.seed(),
                arena: flat.cloned().unwrap_or_else(|| m.flatten()),
            }),
        }
    }
}

/// One model of a pair as a payload stores it. The writer emits only
/// `FlatForest` for a forest; `Forest` (nested pointer trees) is the
/// artifact schema v1 encoding, still read.
#[derive(Serialize, Deserialize)]
enum StoredModel {
    Linear(LinearRegression),
    Lasso(Lasso),
    Svr(SvrRbf),
    Forest(RandomForest),
    FlatForest(StoredForest),
}

/// A forest stored as its compiled arena, served as loaded.
#[derive(Serialize, Deserialize)]
struct StoredForest {
    params: RandomForestParams,
    seed: u64,
    arena: FlatForest,
}

impl StoredModel {
    /// The model and its flat layout, checked against the design width
    /// the pair declares. A v2 forest hands its arena over as read and
    /// rebuilds its pointer trees from it; a v1 forest compiles its trees.
    fn load(
        self,
        schema: PayloadSchema,
        width: usize,
    ) -> Result<(AnyModel, Option<FlatForest>), String> {
        let (model, flat) = match (self, schema) {
            (StoredModel::Linear(m), _) => (AnyModel::Linear(m), None),
            (StoredModel::Lasso(m), _) => (AnyModel::Lasso(m), None),
            (StoredModel::Svr(m), _) => (AnyModel::Svr(m), None),
            (StoredModel::FlatForest(f), PayloadSchema::Arena) => {
                let forest = RandomForest::from_flat(f.params, f.seed, &f.arena)
                    .map_err(|e| e.to_string())?;
                (AnyModel::Forest(forest), Some(f.arena))
            }
            (StoredModel::Forest(m), PayloadSchema::Trees) => {
                let flat = FlatForest::try_compile(&m).map_err(|e| e.to_string())?;
                flat.validate()
                    .map_err(|e| format!("compiled forest: {e}"))?;
                (AnyModel::Forest(m), Some(flat))
            }
            (StoredModel::Forest(_), PayloadSchema::Arena) => {
                return Err("a v2 payload stores forests as arenas, found trees".into())
            }
            (StoredModel::FlatForest(_), PayloadSchema::Trees) => {
                return Err("a v1 payload stores forests as trees, found an arena".into())
            }
        };
        if let Some(flat) = &flat {
            if flat.n_features() != width {
                return Err(format!(
                    "forest expects {} columns, the model's design has {width}",
                    flat.n_features()
                ));
            }
        }
        Ok((model, flat))
    }
}

/// How a payload stores its forests.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PayloadSchema {
    /// Artifact schema v1: nested pointer trees, compiled on load.
    Trees,
    /// Artifact schema v2: compiled flat arenas.
    Arena,
}

/// The serialized model pair ([`DomainSpecificModel::to_json`]).
#[derive(Serialize, Deserialize)]
struct StoredPair {
    time_model: StoredModel,
    energy_model: StoredModel,
    algorithm: Algorithm,
    n_features: usize,
    default_freq_mhz: f64,
    /// Defaulted to 1 so pre-lattice payloads read unchanged.
    #[serde(default = "one_config_col")]
    config_cols: usize,
    #[serde(default)]
    default_config: Vec<f64>,
}

/// A trained domain-specific model pair (time + energy).
///
/// Forest models additionally carry a compiled [`FlatForest`] — the
/// struct-of-arrays arena used on the serving hot path, bit-identical to
/// the pointer walk. `train*` compiles it once; it is also what
/// [`DomainSpecificModel::to_json`] stores for a forest, so
/// [`DomainSpecificModel::from_json`] serves the stored arena as read and
/// rebuilds the pointer forests (kept for the `*_reference` oracles) from
/// it, with no recompile.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSpecificModel {
    time_model: AnyModel,
    energy_model: AnyModel,
    /// Algorithm used for both models.
    pub algorithm: Algorithm,
    n_features: usize,
    default_freq_mhz: f64,
    /// How many configuration columns follow the input features in the
    /// design matrix: 1 for the legacy frequency-only models, 3 for
    /// lattice models (`core_mhz`, `mem_mhz`, `cap_w`), 4 for distributed
    /// models (the lattice columns plus `num_devices`).
    config_cols: usize,
    /// The default operating configuration lattice models normalize by
    /// (`[core_mhz, mem_mhz, cap_w]`); empty for legacy models, whose
    /// anchor is `default_freq_mhz` alone.
    default_config: Vec<f64>,
    time_flat: Option<FlatForest>,
    energy_flat: Option<FlatForest>,
}

fn one_config_col() -> usize {
    1
}

/// One input's batched curve prediction: the predicted default-frequency
/// anchors plus the Figure-12 normalized curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePrediction {
    /// Predicted execution time at the default frequency (s).
    pub default_time_s: f64,
    /// Predicted energy at the default frequency (J).
    pub default_energy_j: f64,
    /// Speedup / normalized energy over the requested frequencies.
    pub curve: Vec<PredictedPoint>,
}

/// Builds the design matrix — each row the input features followed by the
/// configuration columns — and the log-space targets.
fn build_design<'a>(
    rows: impl ExactSizeIterator<Item = (&'a [f64], &'a [f64], f64, f64)>,
    n_features: usize,
    config_cols: usize,
) -> (Matrix, Vec<f64>, Vec<f64>) {
    let mut x = Matrix::with_cols(n_features + config_cols);
    let mut y_time = Vec::with_capacity(rows.len());
    let mut y_energy = Vec::with_capacity(rows.len());
    let mut row = Vec::with_capacity(n_features + config_cols);
    for (features, config, time_s, energy_j) in rows {
        assert_eq!(features.len(), n_features, "ragged feature vectors");
        assert_eq!(config.len(), config_cols, "configuration width mismatch");
        assert!(
            config.iter().all(|c| c.is_finite() && *c > 0.0),
            "configuration values must be finite and positive"
        );
        assert!(
            time_s > 0.0 && energy_j > 0.0,
            "times and energies must be positive"
        );
        row.clear();
        row.extend_from_slice(features);
        row.extend_from_slice(config);
        x.push_row(&row);
        y_time.push(time_s.ln());
        y_energy.push(energy_j.ln());
    }
    (x, y_time, y_energy)
}

/// The frequency samples' design: one configuration column, the frequency.
fn freq_design(samples: &[DsSample]) -> (Matrix, Vec<f64>, Vec<f64>) {
    let rows = samples.iter().map(|s| {
        (
            s.features.as_slice(),
            std::slice::from_ref(&s.freq_mhz),
            s.time_s,
            s.energy_j,
        )
    });
    build_design(rows, samples[0].features.len(), 1)
}

impl DomainSpecificModel {
    /// Trains the Random Forest model pair (the paper's selected
    /// configuration) on the sample set.
    ///
    /// # Panics
    /// Panics on an empty sample set or inconsistent feature widths.
    pub fn train(samples: &[DsSample], default_freq_mhz: f64, seed: u64) -> Self {
        DomainSpecificModel::train_algorithm(
            samples,
            default_freq_mhz,
            Algorithm::RandomForest,
            seed,
        )
    }

    /// Trains a specific algorithm (used by the model-selection study).
    pub fn train_algorithm(
        samples: &[DsSample],
        default_freq_mhz: f64,
        algorithm: Algorithm,
        seed: u64,
    ) -> Self {
        assert!(!samples.is_empty(), "empty training set");
        let (x, y_time, y_energy) = freq_design(samples);
        DomainSpecificModel::fit(&x, &y_time, &y_energy, algorithm, seed, &[default_freq_mhz])
    }

    /// Trains the Random Forest model pair on configuration-keyed samples:
    /// the design matrix carries one column per configuration value after
    /// the input features, so `config_cols` is the samples' (and
    /// `default_config`'s) width — 3 for a `(core, mem, cap)` lattice, 4
    /// for a gang, whose extra `num_devices` column lets one model price
    /// the compute/communication trade-off. Predictions normalize by the
    /// predicted values at `default_config` (conventionally the device
    /// default; the 1-device default for gangs). A width-1 sample set
    /// trains exactly the model [`DomainSpecificModel::train`] does.
    ///
    /// # Panics
    /// Panics on an empty sample set, inconsistent feature widths, or a
    /// sample whose configuration width differs from `default_config`'s.
    pub fn train_config(samples: &[ConfigSample], default_config: &[f64], seed: u64) -> Self {
        assert!(!samples.is_empty(), "empty training set");
        let rows = samples.iter().map(|s| {
            (
                s.features.as_slice(),
                s.config.as_slice(),
                s.time_s,
                s.energy_j,
            )
        });
        let (x, y_time, y_energy) =
            build_design(rows, samples[0].features.len(), default_config.len());
        DomainSpecificModel::fit(
            &x,
            &y_time,
            &y_energy,
            Algorithm::RandomForest,
            seed,
            default_config,
        )
    }

    /// Fits the time and energy models on one design and compiles their
    /// flat layouts. `default_config` is the normalization anchor; its
    /// width is the design's configuration width.
    fn fit(
        x: &Matrix,
        y_time: &[f64],
        y_energy: &[f64],
        algorithm: Algorithm,
        seed: u64,
        default_config: &[f64],
    ) -> Self {
        let config_cols = default_config.len();
        let mut time_model = algorithm.build(seed);
        time_model.fit(x, y_time);
        let mut energy_model = algorithm.build(seed ^ 0xE);
        energy_model.fit(x, y_energy);
        let time_flat = time_model.compile_flat();
        let energy_flat = energy_model.compile_flat();
        DomainSpecificModel {
            time_model,
            energy_model,
            algorithm,
            n_features: x.cols() - config_cols,
            default_freq_mhz: default_config[0],
            config_cols,
            // A frequency model's anchor is `default_freq_mhz` alone; its
            // serialized form keeps the pre-lattice empty list.
            default_config: if config_cols == 1 {
                Vec::new()
            } else {
                default_config.to_vec()
            },
            time_flat,
            energy_flat,
        }
    }

    /// The paper's model selection (§5.2.1): each of the four algorithms is
    /// scored by leave-one-input-out cross-validation on the quantity the
    /// paper cares about — the MAPE of the *normalized* (speedup) curve of
    /// the held-out input. Normalizing inside the score is essential:
    /// absolute times differ by orders of magnitude between inputs and
    /// those offsets cancel in the prediction phase (Fig. 12), so a raw
    /// regression loss would reward the wrong models. Under this protocol
    /// Random Forest wins, as in the paper: linear models miss the
    /// roofline/occupancy kinks, and SVR-RBF collapses toward its bias on
    /// unseen inputs.
    ///
    /// Returns the winning model (trained on the full set) and the
    /// per-algorithm mean CV scores.
    ///
    /// # Panics
    /// Panics with fewer than three distinct input configurations or fewer
    /// than two frequency points per input.
    pub fn train_selecting(
        samples: &[DsSample],
        default_freq_mhz: f64,
        seed: u64,
    ) -> (Self, Vec<(Algorithm, f64)>) {
        assert!(samples.len() >= 10, "too few samples for model selection");
        let (x, _, _) = freq_design(samples);
        let feature_cols: Vec<usize> = (0..samples[0].features.len()).collect();
        let groups = ml::cv::groups_from_columns(&x, &feature_cols);
        let folds = ml::cv::leave_one_group_out(&groups);
        assert!(folds.len() >= 3, "need at least three input configurations");

        let mut scores = Vec::new();
        for alg in Algorithm::all() {
            let mut fold_scores = Vec::with_capacity(folds.len());
            for (train_idx, val_idx) in &folds {
                assert!(val_idx.len() >= 2, "need ≥2 frequency points per input");
                let train: Vec<DsSample> = train_idx.iter().map(|&i| samples[i].clone()).collect();
                let model =
                    DomainSpecificModel::train_algorithm(&train, default_freq_mhz, alg, seed);
                // Normalize truth and prediction by the held-out input's
                // point nearest the default frequency.
                let ref_idx = val_idx
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        (samples[a].freq_mhz - default_freq_mhz)
                            .abs()
                            .total_cmp(&(samples[b].freq_mhz - default_freq_mhz).abs())
                    })
                    .expect("non-empty validation group");
                let t_ref_true = samples[ref_idx].time_s;
                let (t_ref_pred, _) = model
                    .predict_time_energy(&samples[ref_idx].features, samples[ref_idx].freq_mhz);
                let mut true_speedup = Vec::with_capacity(val_idx.len());
                let mut pred_speedup = Vec::with_capacity(val_idx.len());
                for &i in val_idx {
                    let s = &samples[i];
                    let (t_pred, _) = model.predict_time_energy(&s.features, s.freq_mhz);
                    true_speedup.push(t_ref_true / s.time_s);
                    pred_speedup.push(t_ref_pred / t_pred);
                }
                fold_scores.push(ml::metrics::mape(&true_speedup, &pred_speedup));
            }
            let mean = fold_scores.iter().sum::<f64>() / fold_scores.len() as f64;
            scores.push((alg, mean));
        }
        let best = scores
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(a, _)| *a)
            .expect("non-empty");
        (
            DomainSpecificModel::train_algorithm(samples, default_freq_mhz, best, seed),
            scores,
        )
    }

    /// Predicts raw `(time, energy)` for an input at one frequency,
    /// through the flat layout when the model pair is a forest.
    ///
    /// # Panics
    /// Panics on a feature-width mismatch.
    pub fn predict_time_energy(&self, features: &[f64], freq_mhz: f64) -> (f64, f64) {
        self.predict_time_energy_config(features, std::slice::from_ref(&freq_mhz))
    }

    /// Pointer-walk reference for [`DomainSpecificModel::predict_time_energy`]:
    /// bypasses the flat layout. Kept as the bit-identity oracle for golden
    /// tests and the `BENCH_serving` baseline.
    pub fn predict_time_energy_reference(&self, features: &[f64], freq_mhz: f64) -> (f64, f64) {
        assert_eq!(features.len(), self.n_features, "feature width mismatch");
        assert_eq!(
            self.config_cols, 1,
            "lattice model needs a full configuration, not a bare frequency"
        );
        let mut row = features.to_vec();
        row.push(freq_mhz);
        (
            self.time_model.predict_row(&row).exp(),
            self.energy_model.predict_row(&row).exp(),
        )
    }

    /// The Figure-12 prediction phase: predicted speedup and normalized
    /// energy over `freqs`, normalized by the *predicted* default-frequency
    /// values. Evaluates the whole curve as one batch through the flat
    /// layout — bit-identical to the row-at-a-time reference.
    pub fn predict_curve(&self, features: &[f64], freqs: &[f64]) -> Vec<PredictedPoint> {
        self.predict_curves_batch(&[features], freqs)
            .pop()
            .expect("one input yields one curve")
            .curve
    }

    /// Row-at-a-time pointer-walk reference for
    /// [`DomainSpecificModel::predict_curve`] — the pre-flattening serving
    /// path, kept for golden tests and the `BENCH_serving` baseline.
    pub fn predict_curve_reference(&self, features: &[f64], freqs: &[f64]) -> Vec<PredictedPoint> {
        let (t_def, e_def) = self.predict_time_energy_reference(features, self.default_freq_mhz);
        freqs
            .iter()
            .map(|&f| {
                let (t, e) = self.predict_time_energy_reference(features, f);
                PredictedPoint {
                    freq_mhz: f,
                    speedup: t_def / t,
                    norm_energy: e / e_def,
                }
            })
            .collect()
    }

    /// Batched prediction phase for many inputs at once. The serving drain
    /// path feeds whole admitted batches through this.
    ///
    /// Forest models (the production pair) take the **sweep-aware flat
    /// path**: every `(input, frequency)` row of a curve differs from its
    /// siblings only in the frequency column, so each flattened tree is
    /// descended once per input via `FlatForest::predict_sweep_into` —
    /// frequency splits partition the sweep range instead of re-walking
    /// the tree per frequency. Non-forest models materialize one design
    /// matrix and evaluate it in two batched model passes.
    ///
    /// Per-row float schedules are unchanged on both paths, so every
    /// returned curve is bit-identical to
    /// [`DomainSpecificModel::predict_curve_reference`].
    ///
    /// # Panics
    /// Panics on a feature-width mismatch.
    pub fn predict_curves_batch(&self, inputs: &[&[f64]], freqs: &[f64]) -> Vec<CurvePrediction> {
        assert_eq!(
            self.config_cols, 1,
            "lattice model needs a full configuration, not a bare frequency"
        );
        let stride = freqs.len() + 1;
        let assemble = |t_log: &[f64], e_log: &[f64], base: usize| {
            let t_def = t_log[base].exp();
            let e_def = e_log[base].exp();
            let curve = freqs
                .iter()
                .enumerate()
                .map(|(j, &f)| {
                    let t = t_log[base + 1 + j].exp();
                    let e = e_log[base + 1 + j].exp();
                    PredictedPoint {
                        freq_mhz: f,
                        speedup: t_def / t,
                        norm_energy: e / e_def,
                    }
                })
                .collect();
            CurvePrediction {
                default_time_s: t_def,
                default_energy_j: e_def,
                curve,
            }
        };

        if let (Some(time_flat), Some(energy_flat)) = (&self.time_flat, &self.energy_flat) {
            // One template row per input, the default frequency in the
            // swept column: the same matrix serves as the anchor batch
            // (feature-major plain descents) and as the sweep templates
            // (tree-major, frequency splits partition the ascending sweep
            // range) — four tree-major passes total, each arena streamed
            // once per pass regardless of batch size.
            let mut x = Matrix::with_cols(self.n_features + 1);
            let mut row = Vec::with_capacity(self.n_features + 1);
            for features in inputs {
                assert_eq!(features.len(), self.n_features, "feature width mismatch");
                row.clear();
                row.extend_from_slice(features);
                row.push(self.default_freq_mhz);
                x.push_row(&row);
            }
            let mut t_def_log = Vec::with_capacity(inputs.len());
            let mut e_def_log = Vec::with_capacity(inputs.len());
            time_flat.predict_batch_into(&x, &mut t_def_log);
            energy_flat.predict_batch_into(&x, &mut e_def_log);
            let mut t_curve = Vec::new();
            let mut e_curve = Vec::new();
            time_flat.predict_sweep_batch_into(&x, self.n_features, freqs, &mut t_curve);
            energy_flat.predict_sweep_batch_into(&x, self.n_features, freqs, &mut e_curve);
            return (0..inputs.len())
                .map(|i| {
                    let t_def = t_def_log[i].exp();
                    let e_def = e_def_log[i].exp();
                    let base = i * freqs.len();
                    let curve = freqs
                        .iter()
                        .enumerate()
                        .map(|(j, &f)| PredictedPoint {
                            freq_mhz: f,
                            speedup: t_def / t_curve[base + j].exp(),
                            norm_energy: e_curve[base + j].exp() / e_def,
                        })
                        .collect();
                    CurvePrediction {
                        default_time_s: t_def,
                        default_energy_j: e_def,
                        curve,
                    }
                })
                .collect();
        }

        let mut x = Matrix::with_cols(self.n_features + 1);
        let mut row = Vec::with_capacity(self.n_features + 1);
        for features in inputs {
            assert_eq!(features.len(), self.n_features, "feature width mismatch");
            row.clear();
            row.extend_from_slice(features);
            row.push(self.default_freq_mhz);
            x.push_row(&row);
            for &f in freqs {
                if let Some(last) = row.last_mut() {
                    *last = f;
                }
                x.push_row(&row);
            }
        }

        let mut t_log = Vec::with_capacity(x.rows());
        let mut e_log = Vec::with_capacity(x.rows());
        self.time_model.predict_batch(&x, &mut t_log);
        self.energy_model.predict_batch(&x, &mut e_log);

        (0..inputs.len())
            .map(|i| assemble(&t_log, &e_log, i * stride))
            .collect()
    }

    /// Predicts raw `(time, energy)` for an input at one operating
    /// configuration. `config` must carry exactly
    /// [`DomainSpecificModel::config_cols`] values — `[freq_mhz]` for
    /// legacy models, `[core_mhz, mem_mhz, cap_w]` for lattice models.
    ///
    /// # Panics
    /// Panics on a feature- or configuration-width mismatch.
    pub fn predict_time_energy_config(&self, features: &[f64], config: &[f64]) -> (f64, f64) {
        assert_eq!(features.len(), self.n_features, "feature width mismatch");
        assert_eq!(
            config.len(),
            self.config_cols,
            "configuration width mismatch"
        );
        let mut row = Vec::with_capacity(self.n_features + self.config_cols);
        row.extend_from_slice(features);
        row.extend_from_slice(config);
        let t = match &self.time_flat {
            Some(flat) => flat.predict_row(&row),
            None => self.time_model.predict_row(&row),
        };
        let e = match &self.energy_flat {
            Some(flat) => flat.predict_row(&row),
            None => self.energy_model.predict_row(&row),
        };
        (t.exp(), e.exp())
    }

    /// The configuration prediction phase — Figure 12 over any number of
    /// configuration axes: speedup and normalized energy over explicit
    /// `points`, each [`DomainSpecificModel::config_cols`] wide,
    /// normalized by the *predicted* default-configuration values.
    ///
    /// A width-1 (frequency) model takes the sweep-aware flat path of
    /// [`DomainSpecificModel::predict_curves_batch`]; wider models send the
    /// anchor row and every point row through one batched model pass per
    /// target. Both are bit-identical to the row-at-a-time
    /// [`DomainSpecificModel::predict_time_energy_config`].
    ///
    /// # Panics
    /// Panics on a feature-width mismatch or a point whose width is not
    /// the model's `config_cols`.
    pub fn predict_config_curve<P: AsRef<[f64]>>(
        &self,
        features: &[f64],
        points: &[P],
    ) -> ConfigCurvePrediction {
        assert_eq!(features.len(), self.n_features, "feature width mismatch");
        for p in points {
            assert_eq!(
                p.as_ref().len(),
                self.config_cols,
                "configuration width mismatch"
            );
        }
        if self.config_cols == 1 {
            let freqs: Vec<f64> = points.iter().map(|p| p.as_ref()[0]).collect();
            let prediction = self
                .predict_curves_batch(&[features], &freqs)
                .pop()
                .expect("one input yields one curve");
            return ConfigCurvePrediction {
                default_time_s: prediction.default_time_s,
                default_energy_j: prediction.default_energy_j,
                curve: prediction
                    .curve
                    .into_iter()
                    .map(|p| ConfigPredictedPoint {
                        config: vec![p.freq_mhz],
                        speedup: p.speedup,
                        norm_energy: p.norm_energy,
                    })
                    .collect(),
            };
        }
        let mut x = Matrix::with_cols(self.n_features + self.config_cols);
        let mut row = Vec::with_capacity(self.n_features + self.config_cols);
        row.extend_from_slice(features);
        row.extend_from_slice(&self.default_config);
        x.push_row(&row);
        for p in points {
            row.truncate(self.n_features);
            row.extend_from_slice(p.as_ref());
            x.push_row(&row);
        }
        let mut t_log = Vec::with_capacity(x.rows());
        let mut e_log = Vec::with_capacity(x.rows());
        match (&self.time_flat, &self.energy_flat) {
            (Some(tf), Some(ef)) => {
                tf.predict_batch_into(&x, &mut t_log);
                ef.predict_batch_into(&x, &mut e_log);
            }
            _ => {
                self.time_model.predict_batch(&x, &mut t_log);
                self.energy_model.predict_batch(&x, &mut e_log);
            }
        }
        let t_def = t_log[0].exp();
        let e_def = e_log[0].exp();
        let curve = points
            .iter()
            .enumerate()
            .map(|(j, p)| ConfigPredictedPoint {
                config: p.as_ref().to_vec(),
                speedup: t_def / t_log[1 + j].exp(),
                norm_energy: e_log[1 + j].exp() / e_def,
            })
            .collect();
        ConfigCurvePrediction {
            default_time_s: t_def,
            default_energy_j: e_def,
            curve,
        }
    }

    /// How many configuration columns the design matrix carries after the
    /// input features: 1 (frequency) for legacy models, 3 for lattice
    /// models, 4 for gang models.
    pub fn config_cols(&self) -> usize {
        self.config_cols
    }

    /// The default operating configuration predictions normalize by:
    /// `[core, mem, cap]` for lattice models, `[default_freq_mhz]` for
    /// legacy ones (always `config_cols` wide).
    pub fn default_config(&self) -> Vec<f64> {
        if self.default_config.is_empty() {
            vec![self.default_freq_mhz]
        } else {
            self.default_config.clone()
        }
    }

    /// Whether the model pair carries compiled flat forests (true for every
    /// trained or deserialized Random Forest pair).
    pub fn has_flat(&self) -> bool {
        self.time_flat.is_some() && self.energy_flat.is_some()
    }

    /// Default frequency used for normalization.
    pub fn default_freq_mhz(&self) -> f64 {
        self.default_freq_mhz
    }

    /// Width of the feature vectors this model was trained on — callers
    /// serving predictions validate request width against this instead of
    /// tripping the `predict_time_energy` assertion.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Serializes the trained model pair to JSON — train once during the
    /// (expensive) training phase, ship the model to the runtime that does
    /// frequency selection. A forest is stored as its compiled flat arena
    /// (artifact schema v2).
    pub fn to_json(&self) -> String {
        let stored = StoredPair {
            time_model: self.time_model.store(self.time_flat.as_ref()),
            energy_model: self.energy_model.store(self.energy_flat.as_ref()),
            algorithm: self.algorithm,
            n_features: self.n_features,
            default_freq_mhz: self.default_freq_mhz,
            config_cols: self.config_cols,
            default_config: self.default_config.clone(),
        };
        serde_json::to_string(&stored).expect("model serialization cannot fail")
    }

    /// Restores a model pair from [`DomainSpecificModel::to_json`] output.
    /// Each stored arena is validated and served as read; the pointer
    /// forests are rebuilt from it. An arena that is not exactly a
    /// compiled layout, or does not fit the pair's design width, is an
    /// error.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        DomainSpecificModel::from_payload(json, PayloadSchema::Arena)
    }

    /// Restores a model pair from a payload whose forests are stored as
    /// `schema` says: [`PayloadSchema::Arena`] is
    /// [`DomainSpecificModel::from_json`]; [`PayloadSchema::Trees`] reads
    /// the artifact schema v1 tree JSON and compiles the flat layouts.
    pub(crate) fn from_payload(
        json: &str,
        schema: PayloadSchema,
    ) -> Result<Self, serde_json::Error> {
        let stored: StoredPair = serde_json::from_str(json)?;
        let invalid = serde_json::Error::custom;
        let anchor_cols = if stored.config_cols == 1 {
            0
        } else {
            stored.config_cols
        };
        if stored.config_cols == 0 || stored.default_config.len() != anchor_cols {
            return Err(invalid(format!(
                "{} configuration columns with a {}-value default configuration",
                stored.config_cols,
                stored.default_config.len()
            )));
        }
        let width = stored
            .n_features
            .checked_add(stored.config_cols)
            .ok_or_else(|| invalid("design width overflows".to_string()))?;
        let (time_model, time_flat) = stored.time_model.load(schema, width).map_err(invalid)?;
        let (energy_model, energy_flat) =
            stored.energy_model.load(schema, width).map_err(invalid)?;
        Ok(DomainSpecificModel {
            time_model,
            energy_model,
            algorithm: stored.algorithm,
            n_features: stored.n_features,
            default_freq_mhz: stored.default_freq_mhz,
            config_cols: stored.config_cols,
            default_config: stored.default_config,
            time_flat,
            energy_flat,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic app with a roofline kink: compute time ∝ work/f competes
    /// with a frequency-independent memory floor — the nonsmooth response
    /// surface real DVFS data has.
    fn synth_samples(inputs: &[(f64, f64)], freqs: &[f64]) -> Vec<DsSample> {
        let mut out = Vec::new();
        for &(a, b) in inputs {
            let work = a * b * 1e6;
            for &f in freqs {
                // The memory roof caps the effective rate at 900 MHz.
                let eff = f.min(900.0);
                let time = work / (eff * 1e6) + 4.0e-5;
                let power = 50.0 + 0.1 * f;
                out.push(DsSample {
                    features: Arc::new(vec![a, b]),
                    freq_mhz: f,
                    time_s: time,
                    energy_j: time * power,
                });
            }
        }
        out
    }

    fn freqs() -> Vec<f64> {
        (0..40).map(|i| 500.0 + i as f64 * 27.5).collect()
    }

    #[test]
    fn fits_training_inputs_accurately() {
        let inputs = [(2.0, 3.0), (4.0, 5.0), (8.0, 2.0), (10.0, 10.0)];
        let samples = synth_samples(&inputs, &freqs());
        let model = DomainSpecificModel::train(&samples, 1315.0, 0);
        for s in samples.iter().step_by(7) {
            let (t, e) = model.predict_time_energy(&s.features, s.freq_mhz);
            assert!((t - s.time_s).abs() / s.time_s < 0.1, "time");
            assert!((e - s.energy_j).abs() / s.energy_j < 0.1, "energy");
        }
    }

    #[test]
    fn curve_normalizes_to_predicted_default() {
        let inputs = [(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)];
        let samples = synth_samples(&inputs, &freqs());
        let default = 855.0;
        let model = DomainSpecificModel::train(&samples, default, 0);
        let curve = model.predict_curve(&[4.0, 5.0], &[default]);
        assert!((curve[0].speedup - 1.0).abs() < 1e-9);
        assert!((curve[0].norm_energy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_cancels_systematic_offset() {
        // Hold out an unseen input whose absolute time the forest cannot
        // extrapolate; the speedup *curve* must still be accurate because
        // the offset cancels in the ratio (the mechanism that makes the
        // paper's LOOCV errors tiny).
        let train_inputs = [(2.0, 3.0), (4.0, 5.0), (8.0, 2.0), (6.0, 6.0)];
        let samples = synth_samples(&train_inputs, &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 0);
        let unseen = [12.0, 9.0];
        let fs = freqs();
        let curve = model.predict_curve(&unseen, &fs);
        for p in &curve {
            let true_speedup = p.freq_mhz.min(900.0) / 855.0;
            assert!(
                (p.speedup - true_speedup).abs() / true_speedup < 0.08,
                "freq {}: predicted {} vs true {}",
                p.freq_mhz,
                p.speedup,
                true_speedup
            );
        }
    }

    #[test]
    fn selection_prefers_random_forest() {
        // The synthetic response is multiplicative/nonlinear in features ×
        // frequency; the paper (and this pipeline) select Random Forest.
        let inputs = [
            (2.0, 3.0),
            (4.0, 5.0),
            (8.0, 2.0),
            (6.0, 6.0),
            (3.0, 9.0),
            (12.0, 4.0),
        ];
        let samples = synth_samples(&inputs, &freqs());
        let (model, scores) = DomainSpecificModel::train_selecting(&samples, 855.0, 1);
        assert_eq!(scores.len(), 4);
        assert_eq!(model.algorithm, Algorithm::RandomForest);
    }

    #[test]
    fn deterministic_training() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0)], &freqs());
        let a = DomainSpecificModel::train(&samples, 855.0, 9);
        let b = DomainSpecificModel::train(&samples, 855.0, 9);
        let pa = a.predict_time_energy(&[2.0, 3.0], 500.0);
        let pb = b.predict_time_energy(&[2.0, 3.0], 500.0);
        assert_eq!(pa, pb);
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)], &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 4);
        let json = model.to_json();
        let back = DomainSpecificModel::from_json(&json).unwrap();
        assert_eq!(back.algorithm, model.algorithm);
        for &f in freqs().iter().step_by(5) {
            let (t0, e0) = model.predict_time_energy(&[4.0, 5.0], f);
            let (t1, e1) = back.predict_time_energy(&[4.0, 5.0], f);
            assert!(((t1 - t0) / t0).abs() < 1e-12);
            assert!(((e1 - e0) / e0).abs() < 1e-12);
        }
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(DomainSpecificModel::from_json("{not json").is_err());
    }

    #[test]
    fn flat_path_bit_identical_to_reference() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)], &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 4);
        assert!(model.has_flat());
        for &f in freqs().iter().step_by(3) {
            let (t, e) = model.predict_time_energy(&[4.0, 5.0], f);
            let (tr, er) = model.predict_time_energy_reference(&[4.0, 5.0], f);
            assert_eq!(t.to_bits(), tr.to_bits());
            assert_eq!(e.to_bits(), er.to_bits());
        }
        let fs = freqs();
        let curve = model.predict_curve(&[4.0, 5.0], &fs);
        let reference = model.predict_curve_reference(&[4.0, 5.0], &fs);
        assert_eq!(curve.len(), reference.len());
        for (a, b) in curve.iter().zip(&reference) {
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            assert_eq!(a.norm_energy.to_bits(), b.norm_energy.to_bits());
        }
    }

    #[test]
    fn batched_curves_match_per_input_curves() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)], &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 7);
        let fs = freqs();
        let inputs: [&[f64]; 3] = [&[2.0, 3.0], &[4.0, 5.0], &[12.0, 9.0]];
        let batch = model.predict_curves_batch(&inputs, &fs);
        assert_eq!(batch.len(), 3);
        for (input, pred) in inputs.iter().zip(&batch) {
            let (t_def, e_def) = model.predict_time_energy_reference(input, 855.0);
            assert_eq!(pred.default_time_s.to_bits(), t_def.to_bits());
            assert_eq!(pred.default_energy_j.to_bits(), e_def.to_bits());
            let single = model.predict_curve_reference(input, &fs);
            for (a, b) in pred.curve.iter().zip(&single) {
                assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
                assert_eq!(a.norm_energy.to_bits(), b.norm_energy.to_bits());
            }
        }
    }

    #[test]
    fn deserialized_model_serves_the_stored_arena() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)], &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 4);
        let back = DomainSpecificModel::from_json(&model.to_json()).unwrap();
        assert!(back.has_flat());
        // The stored arena and the pointer forests rebuilt from it are the
        // trained ones exactly.
        assert_eq!(back, model);
        for &f in freqs().iter().step_by(5) {
            let (t0, e0) = back.predict_time_energy(&[4.0, 5.0], f);
            let (t1, e1) = back.predict_time_energy_reference(&[4.0, 5.0], f);
            assert_eq!(t0.to_bits(), t1.to_bits());
            assert_eq!(e0.to_bits(), e1.to_bits());
        }
    }

    #[test]
    fn non_forest_models_serve_without_flat_layout() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)], &freqs());
        let model = DomainSpecificModel::train_algorithm(&samples, 855.0, Algorithm::Linear, 0);
        assert!(!model.has_flat());
        let fs = freqs();
        let curve = model.predict_curve(&[4.0, 5.0], &fs);
        let reference = model.predict_curve_reference(&[4.0, 5.0], &fs);
        for (a, b) in curve.iter().zip(&reference) {
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            assert_eq!(a.norm_energy.to_bits(), b.norm_energy.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_rejected() {
        let _ = DomainSpecificModel::train(&[], 1312.0, 0);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_feature_width_rejected() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0)], &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 0);
        let _ = model.predict_time_energy(&[1.0], 500.0);
    }

    // ---- Configuration-keyed (lattice and gang) models ----

    /// Synthetic lattice app: the memory clock moves the roofline, the cap
    /// stretches time when it binds — the qualitative response surface of
    /// the simulator's power model. Configurations are `[core, mem, cap]`.
    fn synth_lattice_samples(inputs: &[(f64, f64)]) -> Vec<ConfigSample> {
        let mut out = Vec::new();
        for &(a, b) in inputs {
            let work = a * b * 1e6;
            for &f in &[600.0f64, 900.0, 1200.0, 1500.0] {
                for &m in &[800.0f64, 1100.0] {
                    for &cap in &[150.0f64, 300.0] {
                        let roof = 0.9 * m;
                        let eff = f.min(roof);
                        let raw_power = 60.0 + 0.08 * f + 0.03 * m;
                        let stretch = (raw_power / cap).max(1.0);
                        let time = (work / (eff * 1e6) + 4.0e-5) * stretch;
                        let power = raw_power.min(cap);
                        out.push(ConfigSample {
                            features: Arc::new(vec![a, b]),
                            config: vec![f, m, cap],
                            time_s: time,
                            energy_j: time * power,
                        });
                    }
                }
            }
        }
        out
    }

    /// Synthetic strong-scaling app: compute shrinks as `1/d`, the halo
    /// exchange cost is fixed per device — the qualitative surface
    /// `cronos::DistributedGpuCronos` measures. Configurations are
    /// `[core, mem, cap, num_devices]`.
    fn synth_distributed_samples(inputs: &[(f64, f64)]) -> Vec<ConfigSample> {
        let mut out = Vec::new();
        for &(a, b) in inputs {
            let work = a * b * 1e6;
            for &f in &[600.0f64, 900.0, 1200.0, 1500.0] {
                for &d in &[1.0f64, 2.0, 4.0, 8.0] {
                    let eff = f.min(900.0);
                    let exchange = if d > 1.0 { 6.0e-5 } else { 0.0 };
                    let time = work / (d * eff * 1e6) + 4.0e-5 + exchange;
                    let power = 50.0 + 0.1 * f;
                    out.push(ConfigSample {
                        features: Arc::new(vec![a, b]),
                        config: vec![f, 1100.0, 300.0, d],
                        time_s: time,
                        energy_j: time * power * d,
                    });
                }
            }
        }
        out
    }

    const LATTICE_DEFAULT: [f64; 3] = [1500.0, 1100.0, 300.0];
    const DIST_DEFAULT: [f64; 4] = [1500.0, 1100.0, 300.0, 1.0];

    fn lattice_model(seed: u64) -> DomainSpecificModel {
        let samples = synth_lattice_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)]);
        DomainSpecificModel::train_config(&samples, &LATTICE_DEFAULT, seed)
    }

    fn gang_model(seed: u64) -> DomainSpecificModel {
        let samples = synth_distributed_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)]);
        DomainSpecificModel::train_config(&samples, &DIST_DEFAULT, seed)
    }

    #[test]
    fn config_models_fit_training_configurations() {
        let inputs = [(2.0, 3.0), (4.0, 5.0), (8.0, 2.0), (10.0, 10.0)];
        for (samples, default, tol) in [
            (synth_lattice_samples(&inputs), &LATTICE_DEFAULT[..], 0.15),
            (synth_distributed_samples(&inputs), &DIST_DEFAULT[..], 0.2),
        ] {
            let model = DomainSpecificModel::train_config(&samples, default, 0);
            assert_eq!(model.config_cols(), default.len());
            assert_eq!(model.default_config(), default.to_vec());
            for s in samples.iter().step_by(5) {
                let (t, e) = model.predict_time_energy_config(&s.features, &s.config);
                assert!((t - s.time_s).abs() / s.time_s < tol, "time");
                assert!((e - s.energy_j).abs() / s.energy_j < tol, "energy");
            }
        }
    }

    #[test]
    fn config_curve_normalizes_to_default_config() {
        let lattice_pts = vec![vec![900.0, 800.0, 150.0], vec![1200.0, 1100.0, 300.0]];
        let gang_pts = vec![
            vec![900.0, 1100.0, 300.0, 2.0],
            vec![1200.0, 1100.0, 300.0, 4.0],
        ];
        for (model, default, pts) in [
            (lattice_model(0), &LATTICE_DEFAULT[..], lattice_pts),
            (gang_model(0), &DIST_DEFAULT[..], gang_pts),
        ] {
            let pred = model.predict_config_curve(&[4.0, 5.0], &[default]);
            assert!((pred.curve[0].speedup - 1.0).abs() < 1e-9);
            assert!((pred.curve[0].norm_energy - 1.0).abs() < 1e-9);
            // And the curve rows agree with the row-at-a-time config path.
            let pred = model.predict_config_curve(&[4.0, 5.0], &pts);
            let (t_def, e_def) = model.predict_time_energy_config(&[4.0, 5.0], default);
            for (p, cfg) in pred.curve.iter().zip(&pts) {
                assert_eq!(&p.config, cfg);
                let (t, e) = model.predict_time_energy_config(&[4.0, 5.0], cfg);
                assert_eq!(p.speedup.to_bits(), (t_def / t).to_bits());
                assert_eq!(p.norm_energy.to_bits(), (e / e_def).to_bits());
            }
            assert_eq!(pred.default_time_s.to_bits(), t_def.to_bits());
            assert_eq!(pred.default_energy_j.to_bits(), e_def.to_bits());
        }
    }

    /// Checks one predicted surface against pinned `to_bits` values:
    /// `[default_time, default_energy, (speedup, norm_energy)…]`.
    fn assert_golden(pred: &ConfigCurvePrediction, golden: &[u64]) {
        let mut got = vec![
            pred.default_time_s.to_bits(),
            pred.default_energy_j.to_bits(),
        ];
        for p in &pred.curve {
            got.push(p.speedup.to_bits());
            got.push(p.norm_energy.to_bits());
        }
        assert_eq!(got, golden);
    }

    /// `(input, [default_time, default_energy, (speedup, norm_energy)…])`
    /// at each pinned point, as `to_bits`.
    #[rustfmt::skip]
    const LATTICE_GOLDENS: [([f64; 2], [u64; 12]); 3] = [
        (
            [4.0, 5.0],
            [
                0x3f957d698aaf404e, 0x4011ec8257c389c0, 0x3ff0000000000000,
                0x3ff0000000000000, 0x3fe6992736ec72d8, 0x3feefc606b5ac715,
                0x3ff010bbdcb86242, 0x3febee97e5e41105, 0x3fe4f252f5c904f1,
                0x3fef7cbdb01c9e75, 0x3fe43c95aa7a72e6, 0x3ff1cdceac21de2b,
            ],
        ),
        (
            [2.0, 3.0],
            [
                0x3f79992bf29381b0, 0x3ff5241afa2f0aa3, 0x3ff0000000000000,
                0x3ff0000000000000, 0x3fe5b1b54391ffd2, 0x3fefb10edf3c2f9b,
                0x3fef42971303d320, 0x3fec3ba53dc212e4, 0x3fe4a7cc83e49eea,
                0x3ff011b140f3569e, 0x3fe3faf274183371, 0x3ff23878d8183aa3,
            ],
        ),
        (
            [8.0, 2.0],
            [
                0x3f917b10d1cdc6ef, 0x400bfd8ed7d45de8, 0x3ff0000000000000,
                0x3ff0000000000000, 0x3fe68c0e16bcb494, 0x3ff000ea8974f57e,
                0x3fefe6d4bbbd9bdb, 0x3fec4ce8aded0c12, 0x3fe4943b13da32eb,
                0x3ff023b04ec3076f, 0x3fe4cc8b2f04b218, 0x3ff231aa41044c1d,
            ],
        ),
    ];

    #[test]
    fn lattice_predictions_match_the_pinned_goldens() {
        // Pinned from the dedicated three-column lattice predictor this
        // path replaced: the merged predictor must reproduce it bit for bit.
        let model = lattice_model(0);
        let pts = [
            [1500.0, 1100.0, 300.0],
            [900.0, 800.0, 150.0],
            [1200.0, 1100.0, 300.0],
            [600.0, 800.0, 300.0],
            [1350.0, 950.0, 220.0],
        ];
        for (input, golden) in &LATTICE_GOLDENS {
            assert_golden(&model.predict_config_curve(input, &pts), golden);
        }
    }

    /// `(input, [default_time, default_energy, (speedup, norm_energy)…])`
    /// at each pinned point, as `to_bits`.
    #[rustfmt::skip]
    const GANG_GOLDENS: [([f64; 2], [u64; 12]); 3] = [
        (
            [4.0, 5.0],
            [
                0x3f96dda762982cc2, 0x4011dd69923366bd, 0x3ff0000000000000,
                0x3ff0000000000000, 0x3fff29008cb6b990, 0x3fe68637d83ad557,
                0x401016c7a5b01705, 0x3fead94f9daf42f1, 0x40175f74ce58ab9a,
                0x3fea8d4041dbb3f4, 0x3fffc5a004a86ffa, 0x3fe69745f792ba28,
            ],
        ),
        (
            [2.0, 3.0],
            [
                0x3f7b2f35f971202b, 0x3ff5b5400afd26aa, 0x3ff0000000000000,
                0x3ff0000000000000, 0x3ffca230690df8be, 0x3fe6b78f9c60d414,
                0x400d57980e62c454, 0x3febb55c5c803e7d, 0x4015120777dcf45f,
                0x3feb5eef95de93ae, 0x3ffdca11130bfe0a, 0x3fe6f3b9b9e03fdd,
            ],
        ),
        (
            [8.0, 2.0],
            [
                0x3f9284af6ec52682, 0x400ca47c8da33f16, 0x3ff0000000000000,
                0x3ff0000000000000, 0x3fff41163bb55b22, 0x3fe68c29be5318d2,
                0x400fdd46b39294a7, 0x3feb71e31e31ea85, 0x40159953f29f4d79,
                0x3fea765939cd8ba1, 0x40001c58e50f4e68, 0x3fe69b9415c1ca0c,
            ],
        ),
    ];

    #[test]
    fn gang_predictions_match_the_pinned_goldens() {
        // Pinned from the dedicated four-column gang predictor this path
        // replaced: the merged predictor must reproduce it bit for bit.
        let model = gang_model(0);
        let pts = [
            [1500.0, 1100.0, 300.0, 1.0],
            [900.0, 1100.0, 300.0, 2.0],
            [1200.0, 1100.0, 300.0, 4.0],
            [600.0, 1100.0, 300.0, 8.0],
            [1050.0, 1100.0, 300.0, 3.0],
        ];
        for (input, golden) in &GANG_GOLDENS {
            assert_golden(&model.predict_config_curve(input, &pts), golden);
        }
    }

    #[test]
    fn width_one_config_path_is_the_frequency_path() {
        // A width-1 configuration model is the frequency model: same
        // training, same serialized form, and its configuration curve is
        // the sweep-aware `predict_curve` bit for bit.
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)], &freqs());
        let as_config: Vec<ConfigSample> = samples
            .iter()
            .map(|s| ConfigSample {
                features: Arc::clone(&s.features),
                config: vec![s.freq_mhz],
                time_s: s.time_s,
                energy_j: s.energy_j,
            })
            .collect();
        let legacy = DomainSpecificModel::train(&samples, 855.0, 3);
        let config = DomainSpecificModel::train_config(&as_config, &[855.0], 3);
        assert_eq!(config.to_json(), legacy.to_json());
        let fs = freqs();
        let pts: Vec<[f64; 1]> = fs.iter().map(|&f| [f]).collect();
        let surface = config.predict_config_curve(&[4.0, 5.0], &pts);
        let curve = legacy.predict_curve(&[4.0, 5.0], &fs);
        assert_eq!(surface.curve.len(), curve.len());
        for (a, b) in surface.curve.iter().zip(&curve) {
            assert_eq!(a.config, vec![b.freq_mhz]);
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            assert_eq!(a.norm_energy.to_bits(), b.norm_energy.to_bits());
        }
    }

    #[test]
    fn config_model_json_round_trip_keeps_config_cols() {
        for (model, cfg) in [
            (lattice_model(4), vec![900.0, 800.0, 150.0]),
            (gang_model(4), vec![900.0, 1100.0, 300.0, 4.0]),
        ] {
            let back = DomainSpecificModel::from_json(&model.to_json()).unwrap();
            assert_eq!(back.config_cols(), model.config_cols());
            assert_eq!(back.default_config(), model.default_config());
            assert!(back.has_flat());
            let (t0, e0) = model.predict_time_energy_config(&[4.0, 5.0], &cfg);
            let (t1, e1) = back.predict_time_energy_config(&[4.0, 5.0], &cfg);
            assert!(((t1 - t0) / t0).abs() < 1e-12);
            assert!(((e1 - e0) / e0).abs() < 1e-12);
        }
    }

    #[test]
    fn legacy_json_defaults_to_one_config_col() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0)], &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 9);
        // Strip the new fields from the JSON to simulate a pre-lattice
        // artifact; deserialization must default them.
        let json = model
            .to_json()
            .replace("\"config_cols\":1,", "")
            .replace("\"default_config\":[],", "");
        let back = DomainSpecificModel::from_json(&json).unwrap();
        assert_eq!(back.config_cols(), 1);
        assert_eq!(back.default_config(), vec![855.0]);
        let (t0, _) = model.predict_time_energy(&[2.0, 3.0], 700.0);
        let (t1, _) = back.predict_time_energy(&[2.0, 3.0], 700.0);
        assert!(((t1 - t0) / t0).abs() < 1e-12);
    }

    #[test]
    fn legacy_config_path_matches_frequency_path() {
        let samples = synth_samples(&[(2.0, 3.0), (4.0, 5.0)], &freqs());
        let model = DomainSpecificModel::train(&samples, 855.0, 9);
        let (t0, e0) = model.predict_time_energy(&[2.0, 3.0], 700.0);
        let (t1, e1) = model.predict_time_energy_config(&[2.0, 3.0], &[700.0]);
        assert_eq!(t0.to_bits(), t1.to_bits());
        assert_eq!(e0.to_bits(), e1.to_bits());
    }

    #[test]
    fn every_predictor_rejects_a_configuration_of_the_wrong_width() {
        // Models of width 1, 3 and 4, each offered every other width on
        // the curve path, the row path and (for the wider ones) the bare
        // frequency path: all must panic on the width, never mis-price.
        let freq_model = DomainSpecificModel::train(
            &synth_samples(&[(2.0, 3.0), (4.0, 5.0)], &freqs()),
            855.0,
            0,
        );
        let config = |width: usize| vec![900.0; width];
        let panics_on_width = |f: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err("a width mismatch must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("configuration width mismatch")
                    || msg.contains("lattice model needs a full configuration"),
                "unexpected panic: {msg}"
            );
        };
        for model in [freq_model, lattice_model(0), gang_model(0)] {
            let width = model.config_cols();
            for other in [1, 3, 4].into_iter().filter(|&w| w != width) {
                panics_on_width(&|| {
                    let _ = model.predict_config_curve(&[2.0, 3.0], &[config(other)]);
                });
                panics_on_width(&|| {
                    let _ = model.predict_time_energy_config(&[2.0, 3.0], &config(other));
                });
            }
            if width != 1 {
                panics_on_width(&|| {
                    let _ = model.predict_time_energy(&[2.0, 3.0], 900.0);
                });
                panics_on_width(&|| {
                    let _ = model.predict_curve(&[2.0, 3.0], &[900.0]);
                });
            }
        }
    }
}
