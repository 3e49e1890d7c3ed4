//! The sampling front-end for always-on profiling.
//!
//! A full object-relative trace cannot ship in production: translating
//! and compressing every access dilates the program by integer factors
//! (DESIGN.md §14). The [`Sampler`] sits between probe-event
//! translation and collection and decides, per successfully translated
//! access, whether the tuple is *collected* at all. Everything
//! downstream — time-stamping, sinks, grammars, LEAP streams,
//! checkpoints — sees only the admitted accesses, so every consumer
//! works unchanged on sampled input.
//!
//! # Policies
//!
//! * [`SamplingPolicy::Off`] — admit everything (one branch on the hot
//!   path, no per-key state).
//! * [`SamplingPolicy::Periodic`] — keep 1-in-N per *sampling key*
//!   (instruction × group, the vertical-decomposition unit whose
//!   regularity the paper exposes). Periodic selection preserves
//!   strides and recurrence structure far better than uniform random
//!   selection at the same rate, and it is deterministic: no RNG, so a
//!   sampled run is exactly reproducible.
//! * [`SamplingPolicy::Reservoir`] — bounded growth per key, in the
//!   spirit of otterlang's `MemoryProfiler` (periodic admission into a
//!   bounded buffer). A streaming profiler cannot evict what a sink
//!   already consumed, so instead of draining the oldest samples the
//!   per-key period *doubles* each time `capacity` samples were kept at
//!   the current period: per-key volume grows logarithmically in the
//!   stream length while early and late phases both stay represented.
//!
//! Dropped accesses do **not** advance the CDC time-stamp counter, so
//! collected tuples keep dense consecutive time-stamps. That keeps the
//! sharded merge's structure-exploiting path intact, and makes sampled
//! profiles byte-identical across the inline, sharded and
//! checkpoint/resume collection paths (the sampler itself is
//! checkpointed in the `SMPK` chunk).
//!
//! # Scaled counts
//!
//! Every admitted access carries an implicit *weight* — the period in
//! force when it was kept — and the sampler accumulates the weighted
//! total in [`SampleStats::weighted`]. `weighted` is the inverse-rate
//! estimate of the full access count: at rate 1 it equals the exact
//! count, and consumers that need magnitudes (dependence frequencies,
//! access totals) scale by `weighted / kept`. Structural consumers
//! (grammars, stride detection, layout advice) use the tuples directly.
//!
//! # The adaptive rate controller
//!
//! [`RateController`] closes the loop for `--sample budget=P%`: at
//! phase boundaries ([`RateController::CONTROL_INTERVAL`] events) it
//! compares measured per-event cost against a native baseline and
//! multiplicatively adjusts the periodic rate to hold the overhead
//! budget, publishing its rate trajectory through `sample.*` metrics.
//! It is session state ([`Session::with_budget`](crate::Session::with_budget)):
//! the session that owns the sampler runs the control step, on whichever
//! thread feeds it, and checkpoints the controller with the sampler.

use std::io::{self, Read, Write};

use orp_format::{read_u64_le, read_varint, write_u64_le, write_varint};
use orp_obs::Recorder;

use crate::omc::FastU64Map;

/// How the sampling front-end selects accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingPolicy {
    /// Admit every access (the default; zero per-key state).
    Off,
    /// Keep 1-in-`rate` accesses per (instruction, group) key,
    /// deterministically: the 1st, `rate+1`th, `2*rate+1`th … access of
    /// each key. `rate = 1` keeps everything.
    Periodic {
        /// The sampling period (≥ 1).
        rate: u64,
    },
    /// Bounded per-key growth: admission starts at period 1 and the
    /// period doubles each time `capacity` samples were kept at the
    /// current period, so a key's sample volume is
    /// `O(capacity · log(stream length))`.
    Reservoir {
        /// Samples kept per key before the period doubles (≥ 1).
        capacity: u64,
    },
}

/// Admission totals across all keys: plain integers bumped on the
/// event path, published at phase boundaries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SampleStats {
    /// Translated accesses offered to the sampler.
    pub considered: u64,
    /// Accesses admitted to collection.
    pub kept: u64,
    /// Accesses dropped by the policy.
    pub dropped: u64,
    /// Inverse-rate weighted total (the scaled estimate of the full
    /// access count; equals `kept` at rate 1).
    pub weighted: u64,
}

/// Per-key admission state.
#[derive(Debug, Clone, Copy)]
struct KeyState {
    /// Accesses of this key offered so far.
    seen: u64,
    /// Samples kept at the current period (reservoir only).
    kept_in_period: u64,
    /// Current admission period for this key.
    period: u64,
}

/// The sampling front-end: per-key deterministic admission plus the
/// aggregate stats.
///
/// Lives inside [`Cdc`](crate::Cdc) (and the sharded translator), is
/// consulted after address translation succeeds and before the tuple
/// is time-stamped, and serializes into the checkpoint `SMPK` chunk so
/// resumed runs continue the exact admission sequence.
#[derive(Debug, Clone)]
pub struct Sampler {
    policy: SamplingPolicy,
    keys: FastU64Map<KeyState>,
    stats: SampleStats,
}

impl Default for Sampler {
    fn default() -> Self {
        Sampler::off()
    }
}

impl Sampler {
    /// The pass-through sampler (policy [`SamplingPolicy::Off`]).
    #[must_use]
    pub fn off() -> Self {
        Sampler::new(SamplingPolicy::Off)
    }

    /// A periodic 1-in-`rate` sampler (`rate` is clamped to ≥ 1).
    #[must_use]
    pub fn periodic(rate: u64) -> Self {
        Sampler::new(SamplingPolicy::Periodic { rate: rate.max(1) })
    }

    /// A bounded-reservoir sampler (`capacity` is clamped to ≥ 1).
    #[must_use]
    pub fn reservoir(capacity: u64) -> Self {
        Sampler::new(SamplingPolicy::Reservoir {
            capacity: capacity.max(1),
        })
    }

    /// A sampler with the given policy and no admission history.
    #[must_use]
    pub fn new(policy: SamplingPolicy) -> Self {
        Sampler {
            policy,
            keys: FastU64Map::default(),
            stats: SampleStats::default(),
        }
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> SamplingPolicy {
        self.policy
    }

    /// True for the pass-through sampler — the hot path's one branch.
    #[inline]
    #[must_use]
    pub fn is_off(&self) -> bool {
        matches!(self.policy, SamplingPolicy::Off)
    }

    /// The current periodic rate (1 when off, the *initial* period for
    /// reservoir mode).
    #[must_use]
    pub fn current_rate(&self) -> u64 {
        match self.policy {
            SamplingPolicy::Off => 1,
            SamplingPolicy::Periodic { rate } => rate,
            SamplingPolicy::Reservoir { .. } => 1,
        }
    }

    /// Retargets the periodic rate (the controller's knob). A no-op for
    /// the off and reservoir policies; `rate` is clamped to ≥ 1.
    /// In-flight per-key phases continue, so a rate change never
    /// re-admits or retro-drops past accesses.
    pub fn set_rate(&mut self, rate: u64) {
        if let SamplingPolicy::Periodic { rate: r } = &mut self.policy {
            *r = rate.max(1);
        }
    }

    /// Decides whether the access with sampling key `key` is collected.
    ///
    /// Deterministic in the sequence of calls: the same event stream
    /// always yields the same admissions, which is what makes sampled
    /// runs byte-identical across collection paths.
    #[inline]
    pub fn admit(&mut self, key: u64) -> bool {
        let (rate, bounded_capacity) = match self.policy {
            SamplingPolicy::Off => return true,
            SamplingPolicy::Periodic { rate } => (rate, None),
            SamplingPolicy::Reservoir { capacity } => (1, Some(capacity)),
        };
        self.stats.considered += 1;
        let state = self.keys.entry(key).or_insert(KeyState {
            seen: 0,
            kept_in_period: 0,
            period: rate,
        });
        let phase = state.seen % state.period;
        state.seen += 1;
        if phase != 0 {
            self.stats.dropped += 1;
            return false;
        }
        self.stats.kept += 1;
        self.stats.weighted = self.stats.weighted.saturating_add(state.period);
        if let Some(capacity) = bounded_capacity {
            state.kept_in_period += 1;
            if state.kept_in_period >= capacity {
                state.period = state.period.saturating_mul(2);
                state.kept_in_period = 0;
                // Start the doubled period fresh: the triggering access
                // becomes the first of the new phase, so the next
                // admission comes a full (doubled) period later.
                state.seen = 1;
            }
        } else if state.period != rate {
            // The controller retargeted the rate since this key's last
            // admission; pick the new period up at the phase boundary.
            state.period = rate;
            state.seen = 1;
        }
        true
    }

    /// Admission totals so far.
    #[must_use]
    pub fn stats(&self) -> SampleStats {
        self.stats
    }

    /// Sampling keys with admission state.
    #[must_use]
    pub fn tracked_keys(&self) -> usize {
        self.keys.len()
    }

    /// Publishes `sample.*` totals onto `rec`. Emits nothing for the
    /// pass-through sampler, so unsampled reports carry no sample keys.
    pub fn record_metrics(&self, rec: &mut dyn Recorder) {
        if self.is_off() {
            return;
        }
        rec.counter("sample.kept", self.stats.kept);
        rec.counter("sample.dropped", self.stats.dropped);
        rec.counter("sample.scaled_accesses", self.stats.weighted);
        if let SamplingPolicy::Periodic { rate } = self.policy {
            rec.counter("sample.rate", rate);
        }
    }

    /// Serializes the complete sampler state (policy, totals, per-key
    /// admission state in key order — deterministic, so
    /// save → restore → save is byte-identical).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save_state(&self, w: &mut impl Write) -> io::Result<()> {
        let (tag, param) = match self.policy {
            SamplingPolicy::Off => (0u64, 0u64),
            SamplingPolicy::Periodic { rate } => (1, rate),
            SamplingPolicy::Reservoir { capacity } => (2, capacity),
        };
        write_varint(w, tag)?;
        write_varint(w, param)?;
        write_varint(w, self.stats.considered)?;
        write_varint(w, self.stats.kept)?;
        write_varint(w, self.stats.dropped)?;
        write_varint(w, self.stats.weighted)?;
        let mut keys: Vec<u64> = self.keys.keys().copied().collect();
        keys.sort_unstable();
        write_varint(w, keys.len() as u64)?;
        for key in keys {
            let state = self.keys[&key];
            write_varint(w, key)?;
            write_varint(w, state.seen)?;
            write_varint(w, state.kept_in_period)?;
            write_varint(w, state.period)?;
        }
        Ok(())
    }

    /// Rebuilds a sampler from [`Sampler::save_state`] bytes.
    ///
    /// # Errors
    ///
    /// Propagates reader errors; rejects unknown policy tags, zero
    /// rates/periods, and duplicate keys.
    pub fn restore_state(r: &mut impl Read) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
        let tag = read_varint(r)?;
        let param = read_varint(r)?;
        let policy = match tag {
            0 => SamplingPolicy::Off,
            1 if param >= 1 => SamplingPolicy::Periodic { rate: param },
            2 if param >= 1 => SamplingPolicy::Reservoir { capacity: param },
            1 | 2 => return Err(bad("sampler state has a zero rate")),
            _ => return Err(bad("unknown sampling policy tag")),
        };
        let stats = SampleStats {
            considered: read_varint(r)?,
            kept: read_varint(r)?,
            dropped: read_varint(r)?,
            weighted: read_varint(r)?,
        };
        let count = read_varint(r)?;
        let mut keys = FastU64Map::default();
        for _ in 0..count {
            let key = read_varint(r)?;
            let state = KeyState {
                seen: read_varint(r)?,
                kept_in_period: read_varint(r)?,
                period: read_varint(r)?,
            };
            if state.period == 0 {
                return Err(bad("sampler key state has a zero period"));
            }
            if keys.insert(key, state).is_some() {
                return Err(bad("duplicate key in sampler state"));
            }
        }
        Ok(Sampler {
            policy,
            keys,
            stats,
        })
    }
}

/// Closed-loop overhead control for `--sample budget=P%`.
///
/// The controller treats the sampling rate as its actuator and the
/// measured profiling overhead — instrumented wall time relative to a
/// native (no-profiling) baseline of the same event stream — as its
/// plant output. At every phase boundary it computes
///
/// ```text
/// overhead = (elapsed − events · native_per_event) / (events · native_per_event)
/// ```
///
/// and adjusts the rate multiplicatively toward the budget: collection
/// cost is roughly proportional to admitted volume, so doubling the
/// period roughly halves the marginal overhead. Adjustments are
/// clamped (×8 per step, rate ≤ 2²⁰) to keep the loop stable against
/// noisy wall-clock samples.
#[derive(Debug, Clone)]
pub struct RateController {
    /// The overhead budget as a fraction (e.g. 0.25 for `budget=25%`).
    budget: f64,
    /// Native cost per probe event, in nanoseconds.
    baseline_event_nanos: f64,
    /// Next event count at which to run the control step.
    next_check: u64,
    adjustments: u64,
    trajectory: Vec<u64>,
    last_overhead: f64,
}

impl RateController {
    /// Events between control decisions.
    pub const CONTROL_INTERVAL: u64 = 65_536;
    /// Highest periodic rate the controller will set.
    pub const MAX_RATE: u64 = 1 << 20;
    /// Largest multiplicative step per decision.
    const MAX_STEP: u64 = 8;

    /// A controller holding overhead at `budget_percent`, against a
    /// native baseline of `baseline_event_nanos` per probe event.
    #[must_use]
    pub fn new(budget_percent: f64, baseline_event_nanos: f64) -> Self {
        RateController {
            budget: (budget_percent / 100.0).max(0.0),
            baseline_event_nanos: baseline_event_nanos.max(0.0),
            next_check: Self::CONTROL_INTERVAL,
            adjustments: 0,
            trajectory: Vec::new(),
            last_overhead: 0.0,
        }
    }

    /// The event count at which the next control step is due.
    pub(crate) fn next_check(&self) -> u64 {
        self.next_check
    }

    /// Runs one control step: measures overhead from `elapsed_nanos`
    /// over `events`, and returns the new rate when `current_rate`
    /// should change.
    pub(crate) fn control(
        &mut self,
        events: u64,
        elapsed_nanos: u64,
        current_rate: u64,
    ) -> Option<u64> {
        self.next_check = events.saturating_add(Self::CONTROL_INTERVAL);
        let baseline = events as f64 * self.baseline_event_nanos;
        if baseline <= 0.0 {
            return None;
        }
        let overhead = ((elapsed_nanos as f64 - baseline) / baseline).max(0.0);
        self.last_overhead = overhead;
        let new_rate = if self.budget > 0.0 && overhead > self.budget * 1.25 {
            // Over budget: grow the period proportionally to the
            // excess, clamped to one bounded step.
            let factor = (overhead / self.budget).ceil().min(Self::MAX_STEP as f64);
            current_rate
                .saturating_mul(factor as u64)
                .min(Self::MAX_RATE)
        } else if overhead < self.budget * 0.5 && current_rate > 1 {
            // Comfortably under budget: claw back fidelity gently.
            (current_rate / 2).max(1)
        } else {
            current_rate
        };
        if new_rate == current_rate {
            return None;
        }
        self.adjustments += 1;
        self.trajectory.push(new_rate);
        Some(new_rate)
    }

    /// The overhead measured at the most recent control step.
    #[must_use]
    pub fn last_overhead(&self) -> f64 {
        self.last_overhead
    }

    /// Rate changes applied so far.
    #[must_use]
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// The sequence of rates the controller set.
    #[must_use]
    pub fn trajectory(&self) -> &[u64] {
        &self.trajectory
    }

    /// Publishes the controller's totals and rate trajectory.
    pub fn record_metrics(&self, rec: &mut dyn Recorder) {
        rec.counter("sample.adjustments", self.adjustments);
        for &rate in &self.trajectory {
            rec.observe("sample.rate_trajectory", rate);
        }
    }

    /// Serializes the complete controller state — calibration (budget,
    /// native baseline) plus the loop state (next check point,
    /// adjustment history) — so a budget run can checkpoint and the
    /// resumed process continues against the same calibration instead
    /// of refusing or re-measuring. Deterministic:
    /// save → restore → save is byte-identical.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save_state(&self, w: &mut impl Write) -> io::Result<()> {
        write_u64_le(w, self.budget.to_bits())?;
        write_u64_le(w, self.baseline_event_nanos.to_bits())?;
        write_varint(w, self.next_check)?;
        write_varint(w, self.adjustments)?;
        write_varint(w, self.trajectory.len() as u64)?;
        for &rate in &self.trajectory {
            write_varint(w, rate)?;
        }
        write_u64_le(w, self.last_overhead.to_bits())?;
        Ok(())
    }

    /// Rebuilds a controller from [`RateController::save_state`] bytes.
    ///
    /// # Errors
    ///
    /// Propagates reader errors; rejects non-finite or negative budgets
    /// and baselines (the calibration must be a real measurement).
    pub fn restore_state(r: &mut impl Read) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
        let budget = f64::from_bits(read_u64_le(r)?);
        let baseline_event_nanos = f64::from_bits(read_u64_le(r)?);
        if !budget.is_finite() || budget < 0.0 {
            return Err(bad("controller state has a malformed budget"));
        }
        if !baseline_event_nanos.is_finite() || baseline_event_nanos < 0.0 {
            return Err(bad("controller state has a malformed baseline"));
        }
        let next_check = read_varint(r)?;
        let adjustments = read_varint(r)?;
        let count = read_varint(r)?;
        let mut trajectory = Vec::new();
        for _ in 0..count {
            trajectory.push(read_varint(r)?);
        }
        let last_overhead = f64::from_bits(read_u64_le(r)?);
        if !last_overhead.is_finite() {
            return Err(bad("controller state has a malformed overhead"));
        }
        Ok(RateController {
            budget,
            baseline_event_nanos,
            next_check,
            adjustments,
            trajectory,
            last_overhead,
        })
    }

    /// Re-anchors the next control step relative to `events` already
    /// fed. A resumed process restarts its wall clock at zero while the
    /// session's event count carries over, so the first post-resume
    /// control step must wait a full interval of *fresh* events before
    /// trusting a fresh elapsed measurement.
    pub(crate) fn rebase(&mut self, events: u64) {
        self.next_check = events.saturating_add(Self::CONTROL_INTERVAL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_sampler_admits_everything_without_state() {
        let mut s = Sampler::off();
        assert!(s.is_off());
        for k in 0..100 {
            assert!(s.admit(k));
        }
        assert_eq!(s.stats(), SampleStats::default());
        assert_eq!(s.tracked_keys(), 0);
    }

    #[test]
    fn periodic_keeps_one_in_rate_per_key() {
        let mut s = Sampler::periodic(4);
        let kept: Vec<bool> = (0..12).map(|_| s.admit(7)).collect();
        assert_eq!(
            kept,
            [true, false, false, false, true, false, false, false, true, false, false, false]
        );
        // An independent key starts its own phase.
        assert!(s.admit(9));
        let stats = s.stats();
        assert_eq!(stats.considered, 13);
        assert_eq!(stats.kept, 4);
        assert_eq!(stats.dropped, 9);
        assert_eq!(stats.weighted, 16, "4 kept × rate 4");
    }

    #[test]
    fn rate_one_is_lossless() {
        let mut s = Sampler::periodic(1);
        for k in 0..50 {
            assert!(s.admit(k % 3));
        }
        let stats = s.stats();
        assert_eq!(stats.kept, 50);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.weighted, stats.kept, "scaled == full at rate 1");
    }

    #[test]
    fn reservoir_doubles_the_period_at_capacity() {
        let mut s = Sampler::reservoir(2);
        // Period 1: first two admitted, then the period doubles; the
        // doubled periods admit sparser and sparser.
        let kept: Vec<usize> = (0..32).filter(|_| s.admit(1)).collect();
        assert!(kept.len() < 12, "bounded growth, got {}", kept.len());
        assert!(s.stats().weighted >= s.stats().kept);
    }

    #[test]
    fn set_rate_retargets_only_periodic() {
        let mut s = Sampler::periodic(2);
        s.set_rate(8);
        assert_eq!(s.current_rate(), 8);
        s.set_rate(0);
        assert_eq!(s.current_rate(), 1, "rate clamps to 1");
        let mut off = Sampler::off();
        off.set_rate(16);
        assert!(off.is_off());
    }

    #[test]
    fn rate_change_applies_at_the_next_phase_boundary() {
        let mut s = Sampler::periodic(2);
        assert!(s.admit(1)); // phase 0: kept
        s.set_rate(4);
        // The in-flight phase of rate 2 finishes, then rate 4 governs.
        assert!(!s.admit(1));
        assert!(s.admit(1)); // new phase, rate 4
        assert!(!s.admit(1));
        assert!(!s.admit(1));
        assert!(!s.admit(1));
        assert!(s.admit(1));
    }

    #[test]
    fn state_roundtrips_byte_identically() {
        let mut s = Sampler::periodic(3);
        for k in 0..200u64 {
            s.admit(k % 5);
        }
        let mut bytes = Vec::new();
        s.save_state(&mut bytes).unwrap();
        let restored = Sampler::restore_state(&mut bytes.as_slice()).unwrap();
        assert_eq!(restored.policy(), s.policy());
        assert_eq!(restored.stats(), s.stats());
        let mut again = Vec::new();
        restored.save_state(&mut again).unwrap();
        assert_eq!(again, bytes, "save → restore → save is byte-identical");

        // The restored sampler continues the admission sequence exactly.
        let mut a = s.clone();
        let mut b = restored;
        for k in 0..100u64 {
            assert_eq!(a.admit(k % 5), b.admit(k % 5), "access {k}");
        }
    }

    #[test]
    fn corrupted_state_is_rejected_not_panicked() {
        // Unknown policy tag.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 9u64).unwrap();
        assert!(Sampler::restore_state(&mut bytes.as_slice()).is_err());
        // Zero rate.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 1u64).unwrap();
        write_varint(&mut bytes, 0u64).unwrap();
        assert!(Sampler::restore_state(&mut bytes.as_slice()).is_err());
        // Truncation at every prefix of a valid state.
        let mut s = Sampler::reservoir(4);
        for k in 0..50u64 {
            s.admit(k % 3);
        }
        let mut full = Vec::new();
        s.save_state(&mut full).unwrap();
        for cut in 0..full.len() {
            assert!(
                Sampler::restore_state(&mut &full[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn controller_raises_rate_over_budget_and_lowers_it_under() {
        // Baseline 100 ns/event, budget 25%.
        let mut c = RateController::new(25.0, 100.0);
        let events = RateController::CONTROL_INTERVAL;
        assert_eq!(c.next_check(), events);
        // Measured 2x native → 100% overhead → grow.
        let raised = c
            .control(events, events * 200, 1)
            .expect("over budget must adjust");
        assert!(raised > 1, "{raised}");
        assert!((c.last_overhead() - 1.0).abs() < 1e-9);
        // Well under budget → shrink back toward full fidelity.
        let events = events * 2;
        let lowered = c
            .control(events, events * 100, raised)
            .expect("under budget must adjust");
        assert!(lowered < raised);
        // Within the deadband → hold.
        let events = events * 2;
        assert_eq!(c.control(events, events * 125, lowered), None);
        assert_eq!(c.adjustments(), 2);
        assert_eq!(c.trajectory(), [raised, lowered]);
    }

    #[test]
    fn controller_state_roundtrips_byte_identically() {
        let mut c = RateController::new(25.0, 100.0);
        let events = RateController::CONTROL_INTERVAL;
        c.control(events, events * 200, 1).expect("adjust");
        c.control(events * 2, events * 2 * 100, 8);
        let mut bytes = Vec::new();
        c.save_state(&mut bytes).unwrap();
        let restored = RateController::restore_state(&mut bytes.as_slice()).unwrap();
        assert_eq!(restored.adjustments(), c.adjustments());
        assert_eq!(restored.trajectory(), c.trajectory());
        assert!((restored.last_overhead() - c.last_overhead()).abs() < 1e-12);
        let mut again = Vec::new();
        restored.save_state(&mut again).unwrap();
        assert_eq!(again, bytes, "save → restore → save is byte-identical");

        // The restored controller makes the same decision the original
        // would: same calibration, same deadband, same step clamp.
        let mut a = c.clone();
        let mut b = restored;
        let events = events * 4;
        assert_eq!(
            a.control(events, events * 300, 4),
            b.control(events, events * 300, 4)
        );
    }

    #[test]
    fn corrupted_controller_state_is_rejected_not_panicked() {
        // Non-finite budget.
        let mut bytes = Vec::new();
        write_u64_le(&mut bytes, f64::NAN.to_bits()).unwrap();
        write_u64_le(&mut bytes, 100.0f64.to_bits()).unwrap();
        assert!(RateController::restore_state(&mut bytes.as_slice()).is_err());
        // Negative baseline.
        let mut bytes = Vec::new();
        write_u64_le(&mut bytes, 0.25f64.to_bits()).unwrap();
        write_u64_le(&mut bytes, (-1.0f64).to_bits()).unwrap();
        assert!(RateController::restore_state(&mut bytes.as_slice()).is_err());
        // Truncation at every prefix of a valid state.
        let mut c = RateController::new(10.0, 50.0);
        let events = RateController::CONTROL_INTERVAL;
        c.control(events, events * 500, 1);
        let mut full = Vec::new();
        c.save_state(&mut full).unwrap();
        for cut in 0..full.len() {
            assert!(
                RateController::restore_state(&mut &full[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn rebase_defers_the_first_post_resume_control_step() {
        let mut c = RateController::new(25.0, 100.0);
        let resumed = 10 * RateController::CONTROL_INTERVAL;
        assert!(
            c.next_check() <= resumed,
            "stale next_check fires immediately"
        );
        c.rebase(resumed);
        assert_eq!(c.next_check(), resumed + RateController::CONTROL_INTERVAL);
    }

    #[test]
    fn controller_is_inert_without_a_baseline() {
        let mut c = RateController::new(10.0, 0.0);
        assert_eq!(c.control(1_000_000, u64::MAX, 4), None);
        assert_eq!(c.adjustments(), 0);
    }

    #[test]
    fn sample_metrics_are_emitted_only_when_sampling() {
        let mut rec = orp_obs::StatsRecorder::default();
        Sampler::off().record_metrics(&mut rec);
        assert!(rec.counters().is_empty());

        let mut s = Sampler::periodic(2);
        for k in 0..10 {
            s.admit(k % 2);
        }
        s.record_metrics(&mut rec);
        assert_eq!(rec.counter_value("sample.kept"), s.stats().kept);
        assert_eq!(rec.counter_value("sample.dropped"), s.stats().dropped);
        assert_eq!(rec.counter_value("sample.rate"), 2);
        assert_eq!(
            rec.counter_value("sample.scaled_accesses"),
            s.stats().weighted
        );
    }
}
