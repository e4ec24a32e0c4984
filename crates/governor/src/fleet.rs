//! Fleet-scale scheduling: many heterogeneous devices, one deadline-
//! carrying job stream.
//!
//! The closed loop in [`crate::sim`] picks an energy-optimal clock for
//! *one* GPU. This module scales that decision to a fleet of simulated
//! V100s and MI100s: per-device FIFO queues with work stealing, a
//! placement policy that picks *(device, clock)* per job from
//! per-device-class model artifacts, and the campaign circuit breakers
//! (Closed → Open → HalfOpen → Evicted) so a dying device drains its
//! queue onto the survivors instead of wedging the run.
//!
//! ## Device affinity
//!
//! Predictions must stay device-faithful: a Cronos model fitted on V100
//! characterization data must never silently price an MI100.
//! [`train_and_publish_fleet`] therefore publishes one artifact per
//! *device class* under `"<app>--<class-slug>"`, each fingerprinted with
//! its own class's sweep, and every class runs its own admission-
//! controlled [`PredictionEngine`]. A job that lands — by placement,
//! stealing, or eviction drain — on a class with no matching artifact
//! degrades to the default clock; the degradation is counted in
//! [`DegradationMetrics::affinity_fallbacks`] and journaled. A job that
//! lands on a *different* class that does have an artifact is re-priced
//! through that class's engine before it runs, so the clock it executes
//! at always comes from the model of the device that executes it.
//!
//! ## Differential contract
//!
//! A fleet of exactly one V100 with stealing disabled walks the same
//! code path as [`crate::sim::run_governor`] — same arrival stream, same
//! admission order, same drain batches, same per-job clock decisions,
//! same device state sequence — so its [`DecisionRecord`]s are
//! bit-identical to the single-device run on the same seed. The
//! differential golden test in `tests/fleet.rs` pins this.
//!
//! ## Determinism
//!
//! Every decision is a pure function of `(seed, policies, fault plans)`.
//! Per-device fault streams are split from the shared plan with
//! [`gpu_sim::substream_seed`] — hashed, not offset, so adjacent devices
//! draw statistically independent faults. Ticks are dispatch rounds, not
//! wall clock; stealing and eviction drains visit devices in index
//! order; all float comparisons go through `total_cmp`.

// The fleet must degrade, not die: no unwraps on the runtime path.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use energy_model::campaign::{BreakerState, SlotState};
use energy_model::telemetry::Telemetry;
use energy_model::workflow::{
    characterize_cronos, characterize_ligen, experiment_frequencies, training_set,
};
use energy_model::{training_fingerprint, BreakerConfig, DomainSpecificModel};
use gpu_sim::{Device, DeviceSpec, FaultPlan};
use serde::Serialize;
use synergy::{DegradationMetrics, SynergyQueue};

use crate::policy::{resolve_clock, Policy};
use crate::registry::{ModelRegistry, RegistryError};
use crate::serving::{
    CacheStats, EngineConfig, PredictedProfile, PredictionEngine, PredictionRequest, ServeError,
};
use crate::sim::{
    build_templates, cronos_job_set, execute_job, generate_stream, ligen_job_set, DecisionRecord,
    FallbackReason, GovernorConfig, Job, JobTemplate, ModelFaults, ModelLoader, GOVERNOR_SEED,
};

/// The pinned fleet seed — shared with the single-device experiments so
/// the pinned fleet run replays the exact job stream the single-device
/// baseline sees.
pub const FLEET_SEED: u64 = GOVERNOR_SEED;

/// Purpose discriminator for per-device fault-plan splitting. Purpose 0
/// keeps device 0 on the parent seed (see [`gpu_sim::substream_seed`]),
/// so a single-device fleet replays the un-split plan bit-for-bit.
const PURPOSE_DEVICE_FAULTS: u64 = 0;

/// One device in the fleet.
#[derive(Debug, Clone)]
pub struct FleetDevice {
    /// Unique display name (e.g. `"v100-0"`).
    pub name: String,
    /// The simulated hardware; devices sharing `spec.name` form a class.
    pub spec: DeviceSpec,
    /// Per-device fault override. `None` splits the run's shared
    /// [`FleetConfig::device_faults`] plan by device index; chaos tests
    /// use `Some` to aim deterministic failures at specific devices.
    pub faults: Option<FaultPlan>,
}

impl FleetDevice {
    /// A device drawing its faults from the shared split plan.
    pub fn new(name: &str, spec: DeviceSpec) -> Self {
        FleetDevice {
            name: name.to_string(),
            spec,
            faults: None,
        }
    }
}

/// How jobs are assigned to devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Placement {
    /// Cycle over healthy devices; never consult a model (every job runs
    /// at the default clock). The fleet baseline.
    RoundRobin,
    /// Predict every job on every device class, then place it on the
    /// class with the cheapest feasible predicted energy (fastest class
    /// when nothing is feasible), least-loaded device within the class.
    MinPredictedEnergy,
}

impl Placement {
    /// Stable CLI / report name.
    pub fn name(&self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::MinPredictedEnergy => "min-predicted-energy",
        }
    }
}

/// Whether idle devices may steal queued work, and from whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StealPolicy {
    /// Never steal (the single-device differential configuration).
    Disabled,
    /// Steal only from devices of the same class: the stolen job's clock
    /// decision stays valid, so stealing never costs prediction fidelity.
    WithinClass,
    /// Steal from any device; cross-class steals are re-priced through
    /// the thief class's model (or affinity-degraded if it has none).
    Anywhere,
}

impl StealPolicy {
    /// Stable CLI / report name.
    pub fn name(&self) -> &'static str {
        match self {
            StealPolicy::Disabled => "disabled",
            StealPolicy::WithinClass => "within-class",
            StealPolicy::Anywhere => "anywhere",
        }
    }
}

/// Configuration of one fleet run.
#[derive(Clone)]
pub struct FleetConfig {
    /// The devices; `devices[0]`'s class anchors job deadlines.
    pub devices: Vec<FleetDevice>,
    /// Clock-selection policy applied on the placed class's prediction.
    pub policy: Policy,
    /// Device-assignment policy.
    pub placement: Placement,
    /// Work-stealing policy.
    pub steal: StealPolicy,
    /// Number of jobs in the arrival stream.
    pub n_jobs: usize,
    /// Seed of the arrival stream, slack draws, and fault splitting.
    pub seed: u64,
    /// Per-job deadline slack range (anchored on `devices[0]`'s class
    /// default-clock time, exactly as the single-device stream).
    pub slack: (f64, f64),
    /// Safety factor applied to the deadline the policy plans against.
    pub deadline_safety: f64,
    /// Admission queue capacity of each class's serving engine.
    pub queue_capacity: usize,
    /// Maximum requests served per drain call.
    pub max_batch: usize,
    /// Stride thinning the serving-time frequency sweep.
    pub freq_stride: usize,
    /// Stride thinning the training characterization sweep.
    pub train_stride: usize,
    /// Circuit-breaker thresholds (shared by every device slot).
    pub breaker: BreakerConfig,
    /// Execution attempts per job before it is recorded as failed.
    pub max_attempts: u32,
    /// Shared device fault plan, split per device by hashed sub-streams.
    pub device_faults: FaultPlan,
    /// Model-path fault injection (per class loader).
    pub model_faults: ModelFaults,
    /// Optional metrics sink; arming it must not change any result.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl FleetConfig {
    /// The pinned heterogeneous fleet the regression guard runs: two
    /// V100s + two MI100s against the exact pinned single-device stream
    /// (same seed, 40 jobs, same slack and safety), min-energy placement
    /// with class-affine stealing, no faults.
    pub fn pinned() -> Self {
        FleetConfig {
            devices: vec![
                FleetDevice::new("v100-0", DeviceSpec::v100()),
                FleetDevice::new("v100-1", DeviceSpec::v100()),
                FleetDevice::new("mi100-0", DeviceSpec::mi100()),
                FleetDevice::new("mi100-1", DeviceSpec::mi100()),
            ],
            policy: Policy::MinEnergyUnderDeadline,
            placement: Placement::MinPredictedEnergy,
            steal: StealPolicy::WithinClass,
            n_jobs: 40,
            seed: FLEET_SEED,
            slack: (1.15, 1.6),
            deadline_safety: 0.92,
            queue_capacity: 8,
            max_batch: 4,
            freq_stride: 2,
            train_stride: 2,
            breaker: BreakerConfig::default(),
            max_attempts: 5,
            device_faults: FaultPlan::none(),
            model_faults: ModelFaults::none(),
            telemetry: None,
        }
    }

    /// The pinned fleet under the round-robin-at-default-clock baseline.
    pub fn pinned_round_robin() -> Self {
        let mut cfg = FleetConfig::pinned();
        cfg.policy = Policy::DefaultClock;
        cfg.placement = Placement::RoundRobin;
        cfg.steal = StealPolicy::Disabled;
        cfg
    }

    /// A fleet of exactly one device with stealing disabled — the
    /// configuration the differential golden test compares bit-for-bit
    /// against [`crate::sim::run_governor`].
    pub fn single(spec: DeviceSpec, policy: Policy) -> Self {
        let mut cfg = FleetConfig::pinned();
        cfg.devices = vec![FleetDevice::new("solo-0", spec)];
        cfg.policy = policy;
        cfg.placement = Placement::MinPredictedEnergy;
        cfg.steal = StealPolicy::Disabled;
        cfg
    }

    /// The [`GovernorConfig`] a single-device run of `class` under this
    /// fleet configuration corresponds to (the differential counterpart).
    pub fn governor_equivalent(&self, spec: DeviceSpec) -> GovernorConfig {
        let mut gov = GovernorConfig::pinned(self.policy);
        gov.spec = spec;
        gov.n_jobs = self.n_jobs;
        gov.seed = self.seed;
        gov.slack = self.slack;
        gov.deadline_safety = self.deadline_safety;
        gov.queue_capacity = self.queue_capacity;
        gov.max_batch = self.max_batch;
        gov.freq_stride = self.freq_stride;
        gov.train_stride = self.train_stride;
        gov.device_faults = self.device_faults.clone();
        gov.model_faults = self.model_faults.clone();
        gov
    }
}

/// Registry slug of a device class: lowercase, non-alphanumerics folded
/// to `-` (e.g. `"NVIDIA V100"` → `"nvidia-v100"`).
pub fn class_slug(class: &str) -> String {
    class
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Registry artifact name of `app`'s model for `class`.
pub fn fleet_model_name(app: &str, class: &str) -> String {
    format!("{app}--{}", class_slug(class))
}

fn class_fingerprint(cfg: &FleetConfig, spec: &DeviceSpec) -> u64 {
    let train_freqs = experiment_frequencies(spec, cfg.train_stride);
    training_fingerprint(&spec.name, spec.default_core_mhz, &train_freqs, cfg.seed)
}

/// The distinct device classes of a fleet, in first-appearance order.
/// `classes[0]` is the reference class that anchors job deadlines.
fn distinct_classes(devices: &[FleetDevice]) -> Vec<DeviceSpec> {
    let mut classes: Vec<DeviceSpec> = Vec::new();
    for d in devices {
        if !classes.iter().any(|c| c.name == d.spec.name) {
            classes.push(d.spec.clone());
        }
    }
    classes
}

/// Characterizes and trains one Cronos + one LiGen model *per device
/// class* in `cfg.devices` and publishes each under
/// `"<app>--<class-slug>"` with its class's training fingerprint.
/// Returns the fingerprint per class name.
pub fn train_and_publish_fleet(
    cfg: &FleetConfig,
    registry: &ModelRegistry,
) -> Result<BTreeMap<String, u64>, RegistryError> {
    let mut fingerprints = BTreeMap::new();
    for spec in distinct_classes(&cfg.devices) {
        let freqs = experiment_frequencies(&spec, cfg.train_stride);
        let fingerprint = class_fingerprint(cfg, &spec);

        let cronos_chars = characterize_cronos(&spec, &cronos_job_set(), &freqs, 1, None);
        let cronos_model = DomainSpecificModel::train(
            &training_set(&cronos_chars),
            spec.default_core_mhz,
            cfg.seed,
        );
        registry.publish(
            &fleet_model_name("cronos", &spec.name),
            &cronos_model,
            fingerprint,
        )?;

        let ligen_chars = characterize_ligen(&spec, &ligen_job_set(), &freqs, 1, None);
        let ligen_model = DomainSpecificModel::train(
            &training_set(&ligen_chars),
            spec.default_core_mhz,
            cfg.seed,
        );
        registry.publish(
            &fleet_model_name("ligen", &spec.name),
            &ligen_model,
            fingerprint,
        )?;

        fingerprints.insert(spec.name.clone(), fingerprint);
    }
    Ok(fingerprints)
}

/// One scheduling event in the fleet journal. Everything the metrics
/// claim (steals, trips, evictions, reschedules, affinity degradations)
/// reconciles against these records.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FleetEvent {
    /// An idle device stole the tail of another device's queue.
    Stolen {
        /// Dispatch round of the steal.
        tick: u64,
        /// The stolen job.
        job_id: u64,
        /// Victim device index.
        from: usize,
        /// Thief device index.
        to: usize,
    },
    /// A breaker tripped; `evicted` marks the permanent case.
    Tripped {
        /// Dispatch round of the trip.
        tick: u64,
        /// Device whose breaker tripped.
        device: usize,
        /// Whether the trip was the device's permanent eviction.
        evicted: bool,
    },
    /// A job moved to another device after a failure or an eviction.
    Rescheduled {
        /// Dispatch round of the reschedule.
        tick: u64,
        /// The moved job.
        job_id: u64,
        /// Device the job left.
        from: usize,
        /// Device the job joined.
        to: usize,
    },
    /// A job ran on a class with no matching model artifact and was
    /// degraded to the default clock (device affinity enforced).
    AffinityDegraded {
        /// Dispatch round of the degradation.
        tick: u64,
        /// The degraded job.
        job_id: u64,
        /// Device (of the artifact-less class) that ran the job.
        device: usize,
    },
}

/// One job's fleet decision: the single-device [`DecisionRecord`] plus
/// where (and how) it ran.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetDecision {
    /// Index of the device that executed the job.
    pub device_index: usize,
    /// Name of the device that executed the job.
    pub device: String,
    /// Device class (spec name) the job executed on.
    pub class: String,
    /// Whether the job was stolen at least once.
    pub stolen: bool,
    /// Execution attempts consumed (1 = succeeded first try).
    pub attempts: u32,
    /// The single-device-shaped decision trail (bit-comparable with
    /// [`crate::sim::GovernorReport::decisions`]).
    pub record: DecisionRecord,
}

/// Per-device totals of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceReport {
    /// Device name.
    pub name: String,
    /// Device class (spec name).
    pub class: String,
    /// Jobs this device completed or permanently failed.
    pub jobs_run: usize,
    /// Sum of measured wall time on this device (s).
    pub busy_time_s: f64,
    /// Sum of measured energy on this device (J).
    pub energy_j: f64,
    /// Jobs this device stole from others.
    pub stolen_in: u64,
    /// Breaker trips (including the evicting one).
    pub trips: u32,
    /// Whether the device ended the run evicted.
    pub evicted: bool,
}

/// The result of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Clock policy the run executed.
    pub policy: Policy,
    /// Placement policy the run executed.
    pub placement: Placement,
    /// Steal policy the run executed.
    pub steal: StealPolicy,
    /// Stream seed.
    pub seed: u64,
    /// Jobs processed (every submitted job appears exactly once).
    pub n_jobs: usize,
    /// Per-device totals, in fleet order.
    pub devices: Vec<DeviceReport>,
    /// Total measured wall time across devices (s).
    pub total_time_s: f64,
    /// Total measured energy across devices (J).
    pub total_energy_j: f64,
    /// Largest per-device busy time (s) — the fleet makespan proxy.
    pub makespan_s: f64,
    /// Jobs that missed their deadline (incl. failed jobs).
    pub deadline_misses: usize,
    /// `deadline_misses / n_jobs`.
    pub miss_rate: f64,
    /// Jobs that fell back to the default clock (or failed).
    pub fallbacks: usize,
    /// Jobs rejected at every class's admission queue.
    pub admission_rejected: usize,
    /// Jobs stolen by idle devices.
    pub jobs_stolen: u64,
    /// Jobs moved to another device after failures or evictions.
    pub items_rescheduled: u64,
    /// Devices permanently evicted by their breakers.
    pub devices_evicted: u64,
    /// Jobs degraded to the default clock because their executing class
    /// had no matching model artifact.
    pub affinity_fallbacks: u64,
    /// Prediction memo-cache counters, summed over class engines.
    pub cache: CacheStats,
    /// Device degradation counters merged across queues, with the
    /// fleet-level reschedule/eviction/affinity counters folded in.
    pub degradation: DegradationMetrics,
    /// Per-job decision trail, sorted by job id.
    pub decisions: Vec<FleetDecision>,
    /// Scheduling journal, in event order.
    pub journal: Vec<FleetEvent>,
}

/// One per-class serving stack: templates recorded on that class's
/// hardware, its admission-controlled engine, and its lazy model loader.
struct ClassRuntime {
    spec: DeviceSpec,
    templates: Vec<JobTemplate>,
    engine: PredictionEngine,
    loader: ModelLoader,
}

/// A job parked in a device's FIFO ready queue, carrying the clock
/// decision of the class it was priced for.
struct ReadyJob {
    job: Job,
    /// Class whose model produced `requested_mhz`.
    decided_class: usize,
    requested_mhz: Option<f64>,
    predicted_time_s: Option<f64>,
    fallback: Option<FallbackReason>,
    attempts: u32,
    stolen: bool,
}

struct DeviceRuntime {
    name: String,
    class: usize,
    queue: SynergyQueue,
    ready: VecDeque<ReadyJob>,
    slot: SlotState,
    jobs_run: usize,
    busy_time_s: f64,
    energy_j: f64,
    stolen_in: u64,
}

impl DeviceRuntime {
    fn evicted(&self) -> bool {
        self.slot.breaker == BreakerState::Evicted
    }
}

/// The in-flight state of one fleet run.
struct FleetRun<'a> {
    cfg: &'a FleetConfig,
    classes: Vec<ClassRuntime>,
    devices: Vec<DeviceRuntime>,
    tick: u64,
    rr_cursor: usize,
    decisions: Vec<FleetDecision>,
    journal: Vec<FleetEvent>,
    admission_rejected: usize,
    jobs_stolen: u64,
    items_rescheduled: u64,
    devices_evicted: u64,
    affinity_fallbacks: u64,
}

impl FleetRun<'_> {
    /// Whether device `i` may execute a job this round. An open breaker
    /// becomes eligible once its cooldown has elapsed (the next job it
    /// runs is the half-open probe).
    fn available(&self, i: usize) -> bool {
        match self.devices[i].slot.breaker {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { since_tick } => {
                self.tick >= since_tick + self.cfg.breaker.cooldown_ticks
            }
            BreakerState::Evicted => false,
        }
    }

    fn any_survivor(&self) -> bool {
        self.devices.iter().any(|d| !d.evicted())
    }

    /// Next healthy device in round-robin order, preferring available
    /// ones; falls back to any non-evicted (cooling) device.
    fn next_rr_device(&mut self) -> Option<usize> {
        let n = self.devices.len();
        for pass in 0..2 {
            for step in 0..n {
                let i = (self.rr_cursor + step) % n;
                let ok = if pass == 0 {
                    self.available(i)
                } else {
                    !self.devices[i].evicted()
                };
                if ok {
                    self.rr_cursor = (i + 1) % n;
                    return Some(i);
                }
            }
        }
        None
    }

    /// Least-loaded non-evicted device, preferring `class` (when given)
    /// and avoiding `exclude` when any alternative exists. Deterministic:
    /// ties break on the lower device index.
    fn least_loaded(&self, class: Option<usize>, exclude: Option<usize>) -> Option<usize> {
        let candidates = |want_class: Option<usize>, excluded: Option<usize>| {
            self.devices
                .iter()
                .enumerate()
                .filter(|(i, d)| {
                    !d.evicted() && want_class.is_none_or(|c| d.class == c) && excluded != Some(*i)
                })
                .min_by_key(|(i, d)| (d.ready.len(), *i))
                .map(|(i, _)| i)
        };
        candidates(class, exclude)
            .or_else(|| candidates(class, None))
            .or_else(|| candidates(None, exclude))
            .or_else(|| candidates(None, None))
    }

    /// Records a job that can never run (no devices left): conservation
    /// demands a failed decision, not a silent drop.
    fn record_unrunnable(&mut self, rj: ReadyJob, device_index: usize) {
        let class = rj.decided_class.min(self.classes.len() - 1);
        let template = &self.classes[class].templates[rj.job.template];
        self.decisions.push(FleetDecision {
            device_index,
            device: self
                .devices
                .get(device_index)
                .map(|d| d.name.clone())
                .unwrap_or_default(),
            class: self.classes[class].spec.name.clone(),
            stolen: rj.stolen,
            attempts: rj.attempts,
            record: DecisionRecord {
                job_id: rj.job.id,
                app: template.app.to_string(),
                label: template.label.clone(),
                requested_mhz: None,
                fallback: Some(FallbackReason::LaunchFailed),
                deadline_s: rj.job.deadline_s,
                predicted_time_s: rj.predicted_time_s,
                measured_time_s: 0.0,
                measured_energy_j: 0.0,
                completed: false,
                met_deadline: false,
            },
        });
    }

    /// Applies one failure to device `i`'s breaker; on eviction, drains
    /// its remaining queue onto the survivors.
    fn on_device_failure(&mut self, i: usize) {
        let threshold = self.cfg.breaker.failure_threshold;
        let (tripped, failures) = match self.devices[i].slot.breaker {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                let f = consecutive_failures + 1;
                (f >= threshold, f)
            }
            // A failed half-open probe trips immediately.
            BreakerState::HalfOpen => (true, threshold),
            // Unreachable: only executing devices fail, and executing
            // promotes Open to HalfOpen first.
            BreakerState::Open { .. } | BreakerState::Evicted => (true, threshold),
        };
        if !tripped {
            self.devices[i].slot.breaker = BreakerState::Closed {
                consecutive_failures: failures,
            };
            return;
        }
        self.devices[i].slot.trips += 1;
        let evicted = self.devices[i].slot.trips >= self.cfg.breaker.max_trips;
        self.journal.push(FleetEvent::Tripped {
            tick: self.tick,
            device: i,
            evicted,
        });
        if evicted {
            self.devices[i].slot.breaker = BreakerState::Evicted;
            self.devices_evicted += 1;
            self.drain_evicted(i);
        } else {
            self.devices[i].slot.breaker = BreakerState::Open {
                since_tick: self.tick,
            };
        }
    }

    /// Moves an evicted device's queued jobs onto the survivors (or
    /// records them as failed when no survivor remains).
    fn drain_evicted(&mut self, i: usize) {
        while let Some(rj) = self.devices[i].ready.pop_front() {
            match self.least_loaded(None, Some(i)) {
                Some(target) => {
                    self.items_rescheduled += 1;
                    self.journal.push(FleetEvent::Rescheduled {
                        tick: self.tick,
                        job_id: rj.job.id,
                        from: i,
                        to: target,
                    });
                    self.devices[target].ready.push_back(rj);
                }
                None => self.record_unrunnable(rj, i),
            }
        }
    }

    /// Work stealing: each idle available device takes the tail of the
    /// deepest eligible queue. Device order, then victim by (depth,
    /// index), keeps the round deterministic.
    fn steal_round(&mut self) {
        for thief in 0..self.devices.len() {
            if !self.available(thief) || !self.devices[thief].ready.is_empty() {
                continue;
            }
            let thief_class = self.devices[thief].class;
            let victim = self
                .devices
                .iter()
                .enumerate()
                .filter(|(j, d)| {
                    *j != thief
                        && !d.evicted()
                        && match self.cfg.steal {
                            StealPolicy::Disabled => false,
                            StealPolicy::WithinClass => d.class == thief_class,
                            StealPolicy::Anywhere => true,
                        }
                        // An available victim runs its head this round;
                        // only a surplus is worth stealing. A cooling
                        // victim's whole queue is stalled — steal from 1.
                        && d.ready.len() >= if self.available_flag(*j) { 2 } else { 1 }
                })
                .max_by_key(|(j, d)| (d.ready.len(), usize::MAX - *j))
                .map(|(j, _)| j);
            let Some(victim) = victim else { continue };
            let Some(mut rj) = self.devices[victim].ready.pop_back() else {
                continue;
            };
            rj.stolen = true;
            self.jobs_stolen += 1;
            self.devices[thief].stolen_in += 1;
            self.journal.push(FleetEvent::Stolen {
                tick: self.tick,
                job_id: rj.job.id,
                from: victim,
                to: thief,
            });
            self.devices[thief].ready.push_back(rj);
        }
    }

    // `available` borrowed immutably inside iterator chains above.
    fn available_flag(&self, i: usize) -> bool {
        self.available(i)
    }

    /// Executes one ready job on device `i`, enforcing device affinity,
    /// updating the breaker, and either recording the decision or
    /// rescheduling the job after a permanent launch failure.
    fn execute_on(&mut self, i: usize, mut rj: ReadyJob) {
        // Promote a cooled-down open breaker: this execution is a probe.
        if let BreakerState::Open { .. } = self.devices[i].slot.breaker {
            self.devices[i].slot.breaker = BreakerState::HalfOpen;
        }

        let class_i = self.devices[i].class;
        if self.cfg.placement != Placement::RoundRobin {
            let app = self.classes[0].templates[rj.job.template].app;
            if !self.classes[class_i].engine.has_model(app) {
                // Device affinity: no artifact for this class — default
                // clock, with the placement-time failure reason kept
                // when one exists (a stolen/rescheduled clock decision
                // becomes an explicit affinity degradation).
                self.affinity_fallbacks += 1;
                self.journal.push(FleetEvent::AffinityDegraded {
                    tick: self.tick,
                    job_id: rj.job.id,
                    device: i,
                });
                rj.requested_mhz = None;
                rj.predicted_time_s = None;
                rj.fallback = Some(rj.fallback.unwrap_or(FallbackReason::AffinityDegraded));
                rj.decided_class = class_i;
            } else if (rj.fallback.is_none()
                && rj.requested_mhz.is_some()
                && rj.decided_class != class_i)
                || rj.fallback == Some(FallbackReason::AffinityDegraded)
            {
                // Cross-class arrival with a foreign clock decision:
                // re-price through the executing class's model so the
                // requested clock is always device-faithful. A job that
                // was affinity-degraded on a bare class recovers here —
                // this class has an artifact, so price it properly.
                let request = PredictionRequest {
                    job_id: rj.job.id,
                    app: app.to_string(),
                    features: self.classes[0].templates[rj.job.template].features.clone(),
                };
                match self.classes[class_i].engine.serve_one(&request) {
                    Ok(profile) => {
                        let planned = rj.job.deadline_s * self.cfg.deadline_safety;
                        let clock = resolve_clock(self.cfg.policy, &profile, planned);
                        rj.requested_mhz = clock.freq_mhz;
                        rj.predicted_time_s = Some(clock.time_s);
                        rj.fallback = None;
                        rj.decided_class = class_i;
                    }
                    Err(_) => {
                        self.affinity_fallbacks += 1;
                        self.journal.push(FleetEvent::AffinityDegraded {
                            tick: self.tick,
                            job_id: rj.job.id,
                            device: i,
                        });
                        rj.requested_mhz = None;
                        rj.predicted_time_s = None;
                        rj.fallback = Some(FallbackReason::AffinityDegraded);
                        rj.decided_class = class_i;
                    }
                }
            }
        }

        let record = execute_job(
            &self.classes[class_i].templates[rj.job.template],
            &rj.job,
            rj.requested_mhz,
            rj.predicted_time_s,
            rj.fallback,
            &mut self.devices[i].queue,
        );

        if record.completed {
            self.devices[i].slot.breaker = BreakerState::Closed {
                consecutive_failures: 0,
            };
            let d = &mut self.devices[i];
            d.jobs_run += 1;
            d.busy_time_s += record.measured_time_s;
            d.energy_j += record.measured_energy_j;
            self.decisions.push(FleetDecision {
                device_index: i,
                device: self.devices[i].name.clone(),
                class: self.classes[class_i].spec.name.clone(),
                stolen: rj.stolen,
                attempts: rj.attempts + 1,
                record,
            });
            return;
        }

        // Permanent launch failure: count it against the breaker, then
        // retry the job elsewhere while attempts and devices remain.
        self.on_device_failure(i);
        rj.attempts += 1;
        if rj.attempts < self.cfg.max_attempts {
            if let Some(target) = self.least_loaded(None, Some(i)) {
                self.items_rescheduled += 1;
                self.journal.push(FleetEvent::Rescheduled {
                    tick: self.tick,
                    job_id: rj.job.id,
                    from: i,
                    to: target,
                });
                self.devices[target].ready.push_back(rj);
                return;
            }
        }
        self.devices[i].jobs_run += 1;
        self.decisions.push(FleetDecision {
            device_index: i,
            device: self.devices[i].name.clone(),
            class: self.classes[class_i].spec.name.clone(),
            stolen: rj.stolen,
            attempts: rj.attempts,
            record,
        });
    }

    /// Runs dispatch rounds until every ready queue is empty. Each round
    /// is one breaker tick: steals first, then one job per available
    /// device in index order.
    fn dispatch_until_drained(&mut self) {
        loop {
            self.tick += 1;
            if self.cfg.steal != StealPolicy::Disabled {
                self.steal_round();
            }
            let mut executed = false;
            for i in 0..self.devices.len() {
                if !self.available(i) {
                    continue;
                }
                let Some(rj) = self.devices[i].ready.pop_front() else {
                    continue;
                };
                self.execute_on(i, rj);
                executed = true;
            }
            if executed {
                continue;
            }
            if self.devices.iter().all(|d| d.ready.is_empty()) {
                return;
            }
            if !self.any_survivor() {
                // Jobs remain but every device is gone: record them all.
                for i in 0..self.devices.len() {
                    while let Some(rj) = self.devices[i].ready.pop_front() {
                        self.record_unrunnable(rj, i);
                    }
                }
                return;
            }
            // Otherwise queued work waits on a cooling breaker; the tick
            // advance at the top of the loop runs the cooldown forward.
        }
    }
}

/// One class's view of a job at placement time.
enum ClassCandidate {
    /// The class served a prediction.
    Predicted {
        requested_mhz: Option<f64>,
        predicted_time_s: f64,
        predicted_energy_j: f64,
        feasible: bool,
    },
    /// The class could not serve (no artifact, load fault, …).
    Unserved { reason: FallbackReason },
}

/// Runs the fleet closed loop against a registry populated by
/// [`train_and_publish_fleet`] (or deliberately under-populated, to
/// exercise affinity fallbacks). Infallible by design: every failure
/// mode becomes a recorded fallback or a failed decision, never an
/// error or a wedge.
pub fn run_fleet(cfg: &FleetConfig, registry: &ModelRegistry) -> FleetReport {
    let class_specs = distinct_classes(&cfg.devices);
    if cfg.devices.is_empty() || class_specs.is_empty() {
        return empty_report(cfg);
    }

    let classes: Vec<ClassRuntime> = class_specs
        .iter()
        .map(|spec| ClassRuntime {
            spec: spec.clone(),
            templates: build_templates(spec),
            engine: PredictionEngine::new(EngineConfig {
                freqs: experiment_frequencies(spec, cfg.freq_stride),
                queue_capacity: cfg.queue_capacity,
                max_batch: cfg.max_batch,
            }),
            loader: ModelLoader::new(class_fingerprint(cfg, spec)),
        })
        .collect();
    let class_index: BTreeMap<String, usize> = class_specs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.clone(), i))
        .collect();

    let devices: Vec<DeviceRuntime> = cfg
        .devices
        .iter()
        .enumerate()
        .map(|(i, fd)| {
            let faults = fd.faults.clone().unwrap_or_else(|| {
                cfg.device_faults
                    .split_for_device(i as u64, PURPOSE_DEVICE_FAULTS)
            });
            let mut device = Device::with_faults(fd.spec.clone(), faults);
            device.set_trace_capacity(Some(0));
            DeviceRuntime {
                name: fd.name.clone(),
                class: *class_index.get(&fd.spec.name).unwrap_or(&0),
                queue: SynergyQueue::for_device(device),
                ready: VecDeque::new(),
                slot: SlotState {
                    breaker: BreakerState::Closed {
                        consecutive_failures: 0,
                    },
                    trips: 0,
                },
                jobs_run: 0,
                busy_time_s: 0.0,
                energy_j: 0.0,
                stolen_in: 0,
            }
        })
        .collect();

    // The arrival stream: identical to the single-device stream on the
    // reference class (deadlines anchor on `classes[0]` default times).
    let bursts = generate_stream(cfg.seed, cfg.n_jobs, cfg.slack, &classes[0].templates);

    let mut run = FleetRun {
        cfg,
        classes,
        devices,
        tick: 0,
        rr_cursor: 0,
        decisions: Vec::with_capacity(cfg.n_jobs),
        journal: Vec::new(),
        admission_rejected: 0,
        jobs_stolen: 0,
        items_rescheduled: 0,
        devices_evicted: 0,
        affinity_fallbacks: 0,
    };

    for burst in &bursts {
        if !run.any_survivor() {
            for job in burst {
                run.record_unrunnable(
                    ReadyJob {
                        job: *job,
                        decided_class: 0,
                        requested_mhz: None,
                        predicted_time_s: None,
                        fallback: Some(FallbackReason::LaunchFailed),
                        attempts: 0,
                        stolen: false,
                    },
                    0,
                );
            }
            continue;
        }
        match cfg.placement {
            Placement::RoundRobin => place_round_robin(&mut run, burst),
            Placement::MinPredictedEnergy => place_min_energy(&mut run, registry, burst),
        }
        run.dispatch_until_drained();
    }

    run.decisions.sort_by_key(|d| d.record.job_id);
    finish_report(cfg, run)
}

/// Round-robin placement: no prediction, default clock everywhere.
fn place_round_robin(run: &mut FleetRun<'_>, burst: &[Job]) {
    for job in burst {
        let rj = ReadyJob {
            job: *job,
            decided_class: 0,
            requested_mhz: None,
            predicted_time_s: None,
            fallback: None,
            attempts: 0,
            stolen: false,
        };
        match run.next_rr_device() {
            Some(i) => {
                let rj = ReadyJob {
                    decided_class: run.devices[i].class,
                    ..rj
                };
                run.devices[i].ready.push_back(rj);
            }
            None => run.record_unrunnable(rj, 0),
        }
    }
}

/// Min-predicted-energy placement: every admitted job is predicted on
/// every class; the cheapest feasible class wins (fastest class when
/// nothing is feasible), least-loaded device within it.
fn place_min_energy(run: &mut FleetRun<'_>, registry: &ModelRegistry, burst: &[Job]) {
    let cfg = run.cfg;
    // Admission: the whole burst hits every class queue before any
    // draining — exactly the single-device shape, per class.
    let mut admitted: Vec<Vec<usize>> = vec![Vec::new(); burst.len()];
    for (b, job) in burst.iter().enumerate() {
        let app = run.classes[0].templates[job.template].app;
        let features = run.classes[0].templates[job.template].features.clone();
        for c in 0..run.classes.len() {
            let class = &mut run.classes[c];
            let registry_name = fleet_model_name(app, &class.spec.name);
            class.loader.ensure_named(
                app,
                &registry_name,
                &cfg.model_faults,
                registry,
                &mut class.engine,
            );
            let request = PredictionRequest {
                job_id: job.id,
                app: app.to_string(),
                features: features.clone(),
            };
            if class.engine.try_enqueue(request).is_ok() {
                admitted[b].push(c);
            }
        }
    }

    // Jobs every class rejected still run — at the default clock on the
    // next round-robin device, recorded as admission fallbacks.
    for (b, job) in burst.iter().enumerate() {
        if !admitted[b].is_empty() {
            continue;
        }
        run.admission_rejected += 1;
        let rj = ReadyJob {
            job: *job,
            decided_class: 0,
            requested_mhz: None,
            predicted_time_s: None,
            fallback: Some(FallbackReason::AdmissionRejected),
            attempts: 0,
            stolen: false,
        };
        match run.next_rr_device() {
            Some(i) => {
                let rj = ReadyJob {
                    decided_class: run.devices[i].class,
                    ..rj
                };
                run.execute_on(i, rj);
            }
            None => run.record_unrunnable(rj, 0),
        }
    }

    // Serve every class queue to empty, batch by batch, and collect the
    // per-(job, class) profiles.
    let mut served: BTreeMap<(u64, usize), Result<Arc<PredictedProfile>, ServeError>> =
        BTreeMap::new();
    for c in 0..run.classes.len() {
        while run.classes[c].engine.queue_len() > 0 {
            for (request, result) in run.classes[c].engine.drain_batch() {
                served.insert((request.job_id, c), result);
            }
        }
    }

    // Decide (class, clock) per job in arrival order and park it on the
    // least-loaded device of the winning class.
    for (b, job) in burst.iter().enumerate() {
        if admitted[b].is_empty() {
            continue;
        }
        let planned = job.deadline_s * cfg.deadline_safety;
        let candidates: Vec<(usize, ClassCandidate)> = admitted[b]
            .iter()
            .map(|&c| {
                let candidate = match served.get(&(job.id, c)) {
                    Some(Ok(profile)) => {
                        let clock = resolve_clock(cfg.policy, profile, planned);
                        ClassCandidate::Predicted {
                            requested_mhz: clock.freq_mhz,
                            predicted_time_s: clock.time_s,
                            predicted_energy_j: clock.energy_j,
                            feasible: clock.time_s <= planned,
                        }
                    }
                    Some(Err(ServeError::ModelUnavailable { app })) => ClassCandidate::Unserved {
                        reason: run.classes[c].loader.failure_for(app),
                    },
                    Some(Err(ServeError::FeatureWidth { .. } | ServeError::ConfigWidth { .. })) => {
                        ClassCandidate::Unserved {
                            reason: FallbackReason::StaleArtifact,
                        }
                    }
                    None => ClassCandidate::Unserved {
                        reason: FallbackReason::ModelMissing,
                    },
                };
                (c, candidate)
            })
            .collect();

        // Cheapest feasible predicted class; fastest predicted class
        // when nothing is feasible; placement fallback when no class
        // served at all. Ties break on the lower class index.
        let predicted: Vec<(usize, &ClassCandidate)> = candidates
            .iter()
            .filter(|(_, c)| matches!(c, ClassCandidate::Predicted { .. }))
            .map(|(i, c)| (*i, c))
            .collect();
        let choice = {
            let feasible: Vec<&(usize, &ClassCandidate)> = predicted
                .iter()
                .filter(|(_, c)| matches!(c, ClassCandidate::Predicted { feasible: true, .. }))
                .collect();
            let pool: Vec<&(usize, &ClassCandidate)> = if feasible.is_empty() {
                predicted.iter().collect()
            } else {
                feasible
            };
            if feasible_pool_is_energy_ranked(&pool) {
                pool.into_iter()
                    .min_by(|(_, a), (_, b)| {
                        candidate_energy(a)
                            .total_cmp(&candidate_energy(b))
                            .then(std::cmp::Ordering::Equal)
                    })
                    .map(|(c, cand)| (*c, *cand))
            } else {
                pool.into_iter()
                    .min_by(|(_, a), (_, b)| candidate_time(a).total_cmp(&candidate_time(b)))
                    .map(|(c, cand)| (*c, *cand))
            }
        };

        let rj = match choice {
            Some((
                class,
                ClassCandidate::Predicted {
                    requested_mhz,
                    predicted_time_s,
                    ..
                },
            )) => ReadyJob {
                job: *job,
                decided_class: class,
                requested_mhz: *requested_mhz,
                predicted_time_s: Some(*predicted_time_s),
                fallback: None,
                attempts: 0,
                stolen: false,
            },
            // No class served: default clock with the first class's
            // recorded failure reason.
            _ => {
                let reason = candidates
                    .first()
                    .map(|(_, c)| match c {
                        ClassCandidate::Unserved { reason } => *reason,
                        ClassCandidate::Predicted { .. } => FallbackReason::ModelMissing,
                    })
                    .unwrap_or(FallbackReason::ModelMissing);
                ReadyJob {
                    job: *job,
                    decided_class: 0,
                    requested_mhz: None,
                    predicted_time_s: None,
                    fallback: Some(reason),
                    attempts: 0,
                    stolen: false,
                }
            }
        };
        let target = run
            .least_loaded(Some(rj.decided_class), None)
            .or_else(|| run.least_loaded(None, None));
        match target {
            Some(i) => run.devices[i].ready.push_back(rj),
            None => run.record_unrunnable(rj, 0),
        }
    }
}

fn candidate_energy(c: &ClassCandidate) -> f64 {
    match c {
        ClassCandidate::Predicted {
            predicted_energy_j, ..
        } => *predicted_energy_j,
        ClassCandidate::Unserved { .. } => f64::INFINITY,
    }
}

fn candidate_time(c: &ClassCandidate) -> f64 {
    match c {
        ClassCandidate::Predicted {
            predicted_time_s, ..
        } => *predicted_time_s,
        ClassCandidate::Unserved { .. } => f64::INFINITY,
    }
}

/// Whether the selection pool should rank by energy (any feasible
/// candidate exists) or by speed (deadline already lost everywhere).
fn feasible_pool_is_energy_ranked(pool: &[&(usize, &ClassCandidate)]) -> bool {
    pool.iter()
        .any(|(_, c)| matches!(c, ClassCandidate::Predicted { feasible: true, .. }))
}

fn empty_report(cfg: &FleetConfig) -> FleetReport {
    FleetReport {
        policy: cfg.policy,
        placement: cfg.placement,
        steal: cfg.steal,
        seed: cfg.seed,
        n_jobs: 0,
        devices: Vec::new(),
        total_time_s: 0.0,
        total_energy_j: 0.0,
        makespan_s: 0.0,
        deadline_misses: 0,
        miss_rate: 0.0,
        fallbacks: 0,
        admission_rejected: 0,
        jobs_stolen: 0,
        items_rescheduled: 0,
        devices_evicted: 0,
        affinity_fallbacks: 0,
        cache: CacheStats::default(),
        degradation: DegradationMetrics::default(),
        decisions: Vec::new(),
        journal: Vec::new(),
    }
}

fn finish_report(cfg: &FleetConfig, run: FleetRun<'_>) -> FleetReport {
    let FleetRun {
        classes,
        devices,
        decisions,
        journal,
        admission_rejected,
        jobs_stolen,
        items_rescheduled,
        devices_evicted,
        affinity_fallbacks,
        ..
    } = run;

    let deadline_misses = decisions.iter().filter(|d| !d.record.met_deadline).count();
    let fallbacks = decisions
        .iter()
        .filter(|d| d.record.fallback.is_some())
        .count();

    let mut cache = CacheStats::default();
    for class in &classes {
        cache.accumulate(class.engine.cache_stats());
    }
    let mut degradation = DegradationMetrics::default();
    for d in &devices {
        degradation.merge(&d.queue.degradation());
    }
    degradation.items_rescheduled += items_rescheduled;
    degradation.devices_evicted += devices_evicted;
    degradation.affinity_fallbacks += affinity_fallbacks;

    let device_reports: Vec<DeviceReport> = devices
        .iter()
        .map(|d| DeviceReport {
            name: d.name.clone(),
            class: classes[d.class].spec.name.clone(),
            jobs_run: d.jobs_run,
            busy_time_s: d.busy_time_s,
            energy_j: d.energy_j,
            stolen_in: d.stolen_in,
            trips: d.slot.trips,
            evicted: d.evicted(),
        })
        .collect();

    let report = FleetReport {
        policy: cfg.policy,
        placement: cfg.placement,
        steal: cfg.steal,
        seed: cfg.seed,
        n_jobs: decisions.len(),
        total_time_s: decisions.iter().map(|d| d.record.measured_time_s).sum(),
        total_energy_j: decisions.iter().map(|d| d.record.measured_energy_j).sum(),
        makespan_s: device_reports
            .iter()
            .map(|d| d.busy_time_s)
            .fold(0.0, f64::max),
        deadline_misses,
        miss_rate: if decisions.is_empty() {
            0.0
        } else {
            deadline_misses as f64 / decisions.len() as f64
        },
        fallbacks,
        admission_rejected,
        jobs_stolen,
        items_rescheduled,
        devices_evicted,
        affinity_fallbacks,
        cache,
        degradation,
        devices: device_reports,
        decisions,
        journal,
    };

    // Telemetry is observation-only: armed or not, the report above is
    // already complete and bit-identical.
    if let Some(telemetry) = &cfg.telemetry {
        let registry = telemetry.registry();
        registry
            .counter("fleet.jobs_total")
            .add(report.n_jobs as u64);
        registry
            .counter("fleet.deadline_misses")
            .add(report.deadline_misses as u64);
        registry
            .counter("fleet.fallbacks")
            .add(report.fallbacks as u64);
        registry
            .counter("fleet.jobs_stolen")
            .add(report.jobs_stolen);
        registry
            .counter("fleet.items_rescheduled")
            .add(report.items_rescheduled);
        registry
            .counter("fleet.devices_evicted")
            .add(report.devices_evicted);
        registry
            .counter("fleet.affinity_fallbacks")
            .add(report.affinity_fallbacks);
        registry
            .gauge("fleet.total_energy_j")
            .set(report.total_energy_j);
        registry.gauge("fleet.makespan_s").set(report.makespan_s);
        registry.gauge("fleet.miss_rate").set(report.miss_rate);
    }

    report
}
