//! The general-purpose energy model (the Fan et al. baseline, §4.1).
//!
//! Two-phase supervised learning. **Training**: every micro-benchmark of
//! [`crate::microbench`] is executed at every frequency configuration; its
//! static code features, the frequency, and the measured normalized
//! energy / speedup form the training set of two Random Forests.
//! **Prediction**: a new application contributes only its *static code
//! features* (extracted without running it), and the model predicts its
//! speedup / normalized-energy curve over frequency.
//!
//! Because static features are input-independent, the model emits one
//! curve per application regardless of workload — the inaccuracy the
//! domain-specific models remove.
//!
//! Training is deterministic in its inputs, and the Figure-13 protocol
//! asks for the same baseline once per application. So
//! [`GeneralPurposeModel::train_with`] keeps the last model it trained,
//! keyed by (device spec, training clocks, seed, forest parameters). A
//! call with the same key shares that model's two forests instead of
//! fitting them again; any other key trains and replaces it.

use std::sync::{Arc, Mutex, PoisonError};

use gpu_sim::{Device, DeviceSpec, KernelProfile};
use ml::dataset::{Dataset, Matrix};
use ml::forest::{RandomForest, RandomForestParams};
use ml::Regressor;
use rayon::prelude::*;

use crate::features::{static_features, N_STATIC_FEATURES};
use crate::microbench::microbenchmarks;

/// A trained general-purpose model for one device.
#[derive(Debug, Clone)]
pub struct GeneralPurposeModel {
    speedup_model: Arc<RandomForest>,
    energy_model: Arc<RandomForest>,
    default_freq_mhz: f64,
}

/// What a trained model depends on: device, clocks (as bits), seed and
/// forest parameters.
type TrainKey = (DeviceSpec, Vec<u64>, u64, RandomForestParams);

/// The speedup and normalized-energy forests of one trained model.
type ForestPair = (Arc<RandomForest>, Arc<RandomForest>);

/// A single-entry memo of the last trained forest pair.
struct TrainMemo(Mutex<Option<(TrainKey, ForestPair)>>);

impl TrainMemo {
    const fn new() -> Self {
        TrainMemo(Mutex::new(None))
    }

    /// The forests stored under `key`, or those `train` returns, which
    /// then replace the entry. The lock is not held while training, so
    /// two first calls with one key may both train; both get equal
    /// forests. A poisoned lock is recovered: the entry is only ever
    /// replaced whole.
    fn get_or_train(&self, key: TrainKey, train: impl FnOnce() -> ForestPair) -> ForestPair {
        let hit = self
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .filter(|(k, _)| *k == key)
            .map(|(_, forests)| forests.clone());
        if let Some(forests) = hit {
            return forests;
        }
        let forests = train();
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = Some((key, forests.clone()));
        forests
    }
}

/// The process-wide memo behind [`GeneralPurposeModel::train_with`].
static TRAINED: TrainMemo = TrainMemo::new();

/// A predicted operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedPoint {
    /// Core frequency (MHz).
    pub freq_mhz: f64,
    /// Predicted speedup vs the default configuration.
    pub speedup: f64,
    /// Predicted normalized energy vs the default configuration.
    pub norm_energy: f64,
}

/// Builds the micro-benchmark training design: one row per
/// (benchmark, frequency), with speedup and normalized-energy targets.
/// Benchmarks are priced in parallel (each worker gets its own noiseless
/// device; pricing is deterministic) and the per-benchmark blocks are
/// concatenated in suite order, so the matrix is identical to a serial
/// build.
/// One benchmark's design rows plus its speedup / normalized-energy targets.
type DesignBlock = (Vec<Vec<f64>>, Vec<f64>, Vec<f64>);

fn microbench_design(spec: &DeviceSpec, freqs: &[f64]) -> (Matrix, Vec<f64>, Vec<f64>) {
    let suite = microbenchmarks();
    let blocks: Vec<DesignBlock> = suite
        .par_iter()
        .map(|bench| {
            let dev = Device::new(spec.clone());
            let sf = static_features(std::slice::from_ref(bench));
            // Ground truth from the simulator (noiseless peek).
            let (t_def, e_def) = dev.peek_cost(bench, spec.default_core_mhz);
            let mut rows = Vec::with_capacity(freqs.len());
            let mut y_speedup = Vec::with_capacity(freqs.len());
            let mut y_energy = Vec::with_capacity(freqs.len());
            for &f in freqs {
                let (t, e) = dev.peek_cost(bench, f);
                let mut row = sf.to_vec();
                row.push(f);
                rows.push(row);
                y_speedup.push(t_def / t);
                y_energy.push(e / e_def);
            }
            (rows, y_speedup, y_energy)
        })
        .collect();

    let mut x = Matrix::with_cols(N_STATIC_FEATURES + 1);
    let mut y_speedup = Vec::new();
    let mut y_energy = Vec::new();
    for (rows, ys, ye) in blocks {
        for row in &rows {
            x.push_row(row);
        }
        y_speedup.extend(ys);
        y_energy.extend(ye);
    }
    (x, y_speedup, y_energy)
}

impl GeneralPurposeModel {
    /// Trains on the 106 micro-benchmarks swept over `freqs`, with
    /// scikit-learn-default forests (the paper's grid search concludes the
    /// defaults win).
    pub fn train(spec: &DeviceSpec, freqs: &[f64], seed: u64) -> Self {
        GeneralPurposeModel::train_with(spec, freqs, seed, RandomForestParams::default())
    }

    /// Trains with explicit forest hyper-parameters (used by tests and the
    /// ablation benches to trade accuracy for speed). Repeating the last
    /// call's arguments returns a model sharing its forests (see the
    /// module docs).
    ///
    /// # Panics
    /// Panics on an empty frequency list.
    pub fn train_with(
        spec: &DeviceSpec,
        freqs: &[f64],
        seed: u64,
        params: RandomForestParams,
    ) -> Self {
        GeneralPurposeModel::train_in(&TRAINED, spec, freqs, seed, params)
    }

    fn train_in(
        memo: &TrainMemo,
        spec: &DeviceSpec,
        freqs: &[f64],
        seed: u64,
        params: RandomForestParams,
    ) -> Self {
        assert!(!freqs.is_empty(), "need at least one training frequency");
        let key = (
            spec.clone(),
            freqs.iter().map(|f| f.to_bits()).collect(),
            seed,
            params,
        );
        let (speedup_model, energy_model) = memo.get_or_train(key, || {
            let (x, y_speedup, y_energy) = microbench_design(spec, freqs);
            let mut speedup_model = RandomForest::new(params, seed);
            speedup_model.fit(&x, &y_speedup);
            let mut energy_model = RandomForest::new(params, seed ^ 0xE);
            energy_model.fit(&x, &y_energy);
            (Arc::new(speedup_model), Arc::new(energy_model))
        });

        GeneralPurposeModel {
            speedup_model,
            energy_model,
            default_freq_mhz: spec.default_core_mhz,
        }
    }

    /// The training set the model was built from, exposed for diagnostics.
    pub fn training_dataset(spec: &DeviceSpec, freqs: &[f64]) -> (Dataset, Dataset) {
        let (x, y_speedup, y_energy) = microbench_design(spec, freqs);
        (
            Dataset::new(x.clone(), y_speedup),
            Dataset::new(x, y_energy),
        )
    }

    /// Extracts the static feature vector of an application from its
    /// kernel profiles (the "static code features … extracted from a new
    /// input code" of the prediction phase).
    pub fn application_features(kernels: &[KernelProfile]) -> [f64; N_STATIC_FEATURES] {
        static_features(kernels)
    }

    /// Predicts (speedup, normalized energy) at one frequency.
    pub fn predict(&self, app_features: &[f64; N_STATIC_FEATURES], freq_mhz: f64) -> (f64, f64) {
        let mut row = app_features.to_vec();
        row.push(freq_mhz);
        (
            self.speedup_model.predict_row(&row),
            self.energy_model.predict_row(&row),
        )
    }

    /// Predicts the full curve over `freqs` as one batch: a single design
    /// matrix and two tree-major `predict_batch` passes instead of
    /// `2 × freqs` virtual dispatches. Bit-identical to calling
    /// [`GeneralPurposeModel::predict`] per frequency.
    pub fn predict_curve(
        &self,
        app_features: &[f64; N_STATIC_FEATURES],
        freqs: &[f64],
    ) -> Vec<PredictedPoint> {
        let mut x = Matrix::with_cols(N_STATIC_FEATURES + 1);
        let mut row = app_features.to_vec();
        row.push(0.0);
        for &f in freqs {
            if let Some(last) = row.last_mut() {
                *last = f;
            }
            x.push_row(&row);
        }
        let mut speedup = Vec::with_capacity(freqs.len());
        let mut energy = Vec::with_capacity(freqs.len());
        self.speedup_model.predict_batch(&x, &mut speedup);
        self.energy_model.predict_batch(&x, &mut energy);
        freqs
            .iter()
            .zip(speedup.iter().zip(&energy))
            .map(|(&f, (&s, &e))| PredictedPoint {
                freq_mhz: f,
                speedup: s,
                norm_energy: e,
            })
            .collect()
    }

    /// Default frequency of the device this model was trained for.
    pub fn default_freq_mhz(&self) -> f64 {
        self.default_freq_mhz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::tree::TreeParams;

    fn quick_params() -> RandomForestParams {
        RandomForestParams {
            n_estimators: 15,
            tree: TreeParams::default(),
            bootstrap: true,
        }
    }

    fn quick_model(spec: &DeviceSpec) -> GeneralPurposeModel {
        let freqs = spec.core_freqs.strided(12);
        GeneralPurposeModel::train_with(spec, &freqs, 0, quick_params())
    }

    #[test]
    fn predicts_unity_at_default_frequency() {
        let spec = DeviceSpec::v100();
        let model = quick_model(&spec);
        // A compute-heavy mix the suite covers well.
        let k = KernelProfile::compute_bound("app", 4_000_000, 2000.0);
        let sf = GeneralPurposeModel::application_features(&[k]);
        let (s, e) = model.predict(&sf, spec.default_core_mhz);
        assert!((s - 1.0).abs() < 0.05, "speedup at default ≈ 1, got {s}");
        assert!((e - 1.0).abs() < 0.05, "energy at default ≈ 1, got {e}");
    }

    #[test]
    fn compute_bound_app_predicted_to_scale_with_frequency() {
        let spec = DeviceSpec::v100();
        let model = quick_model(&spec);
        let k = KernelProfile::compute_bound("app", 4_000_000, 2000.0);
        let sf = GeneralPurposeModel::application_features(&[k]);
        let (s_low, _) = model.predict(&sf, 700.0);
        let (s_high, _) = model.predict(&sf, spec.max_core_mhz());
        assert!(s_low < 0.75, "700 MHz speedup {s_low}");
        assert!(s_high > 1.1, "max-clock speedup {s_high}");
    }

    #[test]
    fn memory_bound_app_predicted_flat_under_downclock() {
        let spec = DeviceSpec::v100();
        let model = quick_model(&spec);
        let k = KernelProfile::memory_bound("app", 4_000_000, 64.0);
        let sf = GeneralPurposeModel::application_features(&[k]);
        let (s_low, e_low) = model.predict(&sf, 950.0);
        assert!(s_low > 0.9, "memory-bound down-clock speedup {s_low}");
        assert!(e_low < 0.95, "memory-bound down-clock energy {e_low}");
    }

    #[test]
    fn prediction_is_input_size_independent() {
        // The defining limitation: scaling the workload does not change the
        // static features, so the prediction cannot change.
        let spec = DeviceSpec::v100();
        let model = quick_model(&spec);
        let small = KernelProfile::compute_bound("app", 1_000, 2000.0);
        let big = KernelProfile::compute_bound("app", 100_000_000, 2000.0);
        let sf_small = GeneralPurposeModel::application_features(&[small]);
        let sf_big = GeneralPurposeModel::application_features(&[big]);
        assert_eq!(
            model.predict(&sf_small, 800.0),
            model.predict(&sf_big, 800.0)
        );
    }

    #[test]
    fn curve_has_requested_frequencies() {
        let spec = DeviceSpec::v100();
        let model = quick_model(&spec);
        let k = KernelProfile::compute_bound("app", 4_000_000, 2000.0);
        let sf = GeneralPurposeModel::application_features(&[k]);
        let freqs = [500.0, 1000.0, 1500.0];
        let curve = model.predict_curve(&sf, &freqs);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[1].freq_mhz, 1000.0);
    }

    #[test]
    fn batched_curve_matches_per_frequency_predict() {
        let spec = DeviceSpec::v100();
        let model = quick_model(&spec);
        let k = KernelProfile::compute_bound("app", 4_000_000, 2000.0);
        let sf = GeneralPurposeModel::application_features(&[k]);
        let freqs = [500.0, 900.0, 1100.0, 1380.0];
        let curve = model.predict_curve(&sf, &freqs);
        for p in &curve {
            let (s, e) = model.predict(&sf, p.freq_mhz);
            assert_eq!(p.speedup.to_bits(), s.to_bits());
            assert_eq!(p.norm_energy.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn training_dataset_shape() {
        let spec = DeviceSpec::v100();
        let freqs = spec.core_freqs.strided(40);
        let (ds_s, ds_e) = GeneralPurposeModel::training_dataset(&spec, &freqs);
        assert_eq!(ds_s.len(), 106 * freqs.len());
        assert_eq!(ds_s.x.cols(), 11);
        assert_eq!(ds_e.len(), ds_s.len());
    }

    /// Trains through a test-local memo, so no other test can evict it.
    fn memo_train(
        memo: &TrainMemo,
        spec: &DeviceSpec,
        seed: u64,
        params: RandomForestParams,
    ) -> GeneralPurposeModel {
        let freqs = spec.core_freqs.strided(12);
        GeneralPurposeModel::train_in(memo, spec, &freqs, seed, params)
    }

    fn shares_forests(a: &GeneralPurposeModel, b: &GeneralPurposeModel) -> bool {
        Arc::ptr_eq(&a.speedup_model, &b.speedup_model)
            && Arc::ptr_eq(&a.energy_model, &b.energy_model)
    }

    fn tiny_params() -> RandomForestParams {
        RandomForestParams {
            n_estimators: 3,
            ..quick_params()
        }
    }

    #[test]
    fn memo_shares_the_forests_of_a_repeated_key() {
        let memo = TrainMemo::new();
        let spec = DeviceSpec::v100();
        let a = memo_train(&memo, &spec, 1, tiny_params());
        let b = memo_train(&memo, &spec, 1, tiny_params());
        assert!(shares_forests(&a, &b));
    }

    #[test]
    fn memo_misses_when_any_key_part_changes() {
        let memo = TrainMemo::new();
        let spec = DeviceSpec::v100();
        let mut hotter = spec.clone();
        hotter.idle_power_w += 1.0;
        let deeper = RandomForestParams {
            n_estimators: 4,
            ..tiny_params()
        };
        let variants: [&dyn Fn() -> GeneralPurposeModel; 4] = [
            &|| memo_train(&memo, &spec, 2, tiny_params()),
            &|| memo_train(&memo, &spec, 1, deeper),
            &|| {
                let freqs = spec.core_freqs.strided(13);
                GeneralPurposeModel::train_in(&memo, &spec, &freqs, 1, tiny_params())
            },
            &|| memo_train(&memo, &hotter, 1, tiny_params()),
        ];
        for variant in variants {
            // The memo holds the base key when the variant asks.
            let base = memo_train(&memo, &spec, 1, tiny_params());
            assert!(!shares_forests(&base, &variant()));
        }
    }

    #[test]
    fn retraining_an_evicted_key_reproduces_its_predictions() {
        let memo = TrainMemo::new();
        let spec = DeviceSpec::v100();
        let first = memo_train(&memo, &spec, 1, tiny_params());
        let _evict = memo_train(&memo, &spec, 2, tiny_params());
        let again = memo_train(&memo, &spec, 1, tiny_params());
        assert!(!shares_forests(&first, &again));
        let k = KernelProfile::compute_bound("app", 4_000_000, 2000.0);
        let sf = GeneralPurposeModel::application_features(&[k]);
        let freqs = spec.core_freqs.strided(5);
        let bits = |m: &GeneralPurposeModel| -> Vec<(u64, u64)> {
            m.predict_curve(&sf, &freqs)
                .iter()
                .map(|p| (p.speedup.to_bits(), p.norm_energy.to_bits()))
                .collect()
        };
        assert_eq!(bits(&first), bits(&again));
    }
}
