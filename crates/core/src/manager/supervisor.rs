//! Degraded-mode supervision of the CoolAir control loop.
//!
//! CoolAir's optimizer is only as good as its inputs: a stuck sensor feeds
//! the Cooling Predictor fiction, a jammed damper makes its predictions
//! wrong, and a dead forecast mis-centres the band for a whole day. The
//! [`SupervisedCoolAir`] wrapper keeps the loop safe under such faults:
//!
//! 1. **Validation** — every pod-inlet reading is checked for physical
//!    range, staleness (an exact-equality streak: real air always jitters),
//!    and cross-pod consistency against the median of its peers.
//! 2. **Imputation** — a distrusted pod inlet is replaced by the median of
//!    the surviving pods, so the optimizer keeps working on plausible data.
//! 3. **Online model-error tracking** — each decision's predicted end-state
//!    is compared against the next validated observation; an EWMA of the
//!    error says how much the learned model can currently be trusted.
//! 4. **A fallback ladder** — `Normal` (the unmodified CoolAir decision) →
//!    `Conservative` (tightened temperature band plus a reactive guard) →
//!    `ReactiveFallback` (the embedded TKS policy, no learned model at
//!    all), with escalation immediate and de-escalation only after a run of
//!    healthy windows.
//! 5. **A hard overtemp failsafe** — above `max_temp + failsafe_margin_c`
//!    (or when *no* sensor is trustworthy) the AC is force-engaged
//!    regardless of what the energy optimizer would prefer, released with
//!    hysteresis.
//!
//! With healthy sensors and an accurate model the wrapper is
//! behaviour-identical to the wrapped [`CoolAir`]: validation passes every
//! reading through untouched, the mode stays `Normal`, and the failsafe
//! never arms.

use coolair_telemetry::{Event, Telemetry, ERROR_BOUNDS_C};
use coolair_thermal::{CoolingRegime, RegimeClass, SensorReadings, TksConfig, TksController};
use coolair_units::{Celsius, FanSpeed, SimTime, TempDelta};
use coolair_workload::Job;
use serde::{Deserialize, Serialize};

use crate::coolair::CoolAir;
use crate::manager::band::TempBand;

/// Thresholds and time constants of the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Lowest physically plausible inlet reading, °C.
    pub min_valid_c: f64,
    /// Highest physically plausible inlet reading, °C.
    pub max_valid_c: f64,
    /// Consecutive bit-identical observations after which a sensor is
    /// considered stale (dropped out or stuck; real air always jitters).
    pub staleness_limit: u32,
    /// Maximum tolerated deviation from the median of the other healthy
    /// pods, °C.
    pub cross_pod_limit_c: f64,
    /// EWMA smoothing factor for the online model error.
    pub model_error_alpha: f64,
    /// Model error above which the supervisor goes `Conservative`, °C.
    pub conservative_error_c: f64,
    /// Model error above which the supervisor abandons the model, °C.
    pub fallback_error_c: f64,
    /// Distrusted sensors for `Conservative` mode.
    pub conservative_sensors: usize,
    /// Distrusted sensors for `ReactiveFallback` mode.
    pub fallback_sensors: usize,
    /// Consecutive healthy control windows required before stepping back
    /// down the ladder.
    pub recovery_windows: u32,
    /// How far below `max_temp` the conservative band's upper edge sits,
    /// °C.
    pub conservative_margin_c: f64,
    /// Degrees above `max_temp` at which the hard failsafe force-engages
    /// the AC.
    pub failsafe_margin_c: f64,
    /// Degrees below `max_temp` at which the failsafe releases
    /// (hysteresis).
    pub failsafe_release_c: f64,
    /// Tolerated difference between the commanded and the sensed actuator
    /// drive (fan fraction / compressor fraction) one control period after
    /// the command. Both infrastructures converge on the command well
    /// within a period, so any persistent gap means a faulty actuator.
    pub actuator_tolerance: f64,
    /// Consecutive mismatched control windows before the actuators are
    /// declared faulty (one window can be an artefact of a command issued
    /// mid-transition).
    pub actuator_windows: u32,
    /// Control windows to skip model-error scoring after a gap in the
    /// observation stream (a restarted loop sees transients that say
    /// nothing about the model).
    pub gap_settle_windows: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            min_valid_c: -40.0,
            max_valid_c: 60.0,
            staleness_limit: 5,
            cross_pod_limit_c: 10.0,
            model_error_alpha: 0.2,
            conservative_error_c: 2.5,
            fallback_error_c: 4.0,
            conservative_sensors: 1,
            fallback_sensors: 2,
            recovery_windows: 6,
            conservative_margin_c: 2.0,
            failsafe_margin_c: 2.0,
            failsafe_release_c: 1.0,
            actuator_tolerance: 0.05,
            actuator_windows: 2,
            gap_settle_windows: 2,
        }
    }
}

impl SupervisorConfig {
    /// Checks the invariants the ladder logic relies on. The tuner explores
    /// this space programmatically, so the checks are a runtime gate rather
    /// than a type-level one: every violation is reported in one message.
    ///
    /// # Errors
    ///
    /// Returns a semicolon-joined list of every violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut problems: Vec<String> = Vec::new();
        let mut check = |ok: bool, msg: &str| {
            if !ok {
                problems.push(msg.to_string());
            }
        };
        check(
            self.min_valid_c.is_finite()
                && self.max_valid_c.is_finite()
                && self.min_valid_c < self.max_valid_c,
            "min_valid_c must be below max_valid_c",
        );
        check(self.staleness_limit >= 1, "staleness_limit must be >= 1");
        check(
            self.cross_pod_limit_c.is_finite() && self.cross_pod_limit_c > 0.0,
            "cross_pod_limit_c must be > 0",
        );
        check(
            self.model_error_alpha > 0.0 && self.model_error_alpha <= 1.0,
            "model_error_alpha must be in (0, 1]",
        );
        check(
            self.conservative_error_c.is_finite() && self.conservative_error_c > 0.0,
            "conservative_error_c must be > 0",
        );
        check(
            self.fallback_error_c.is_finite()
                && self.fallback_error_c > self.conservative_error_c,
            "fallback_error_c must exceed conservative_error_c",
        );
        check(self.conservative_sensors >= 1, "conservative_sensors must be >= 1");
        check(
            self.fallback_sensors >= self.conservative_sensors,
            "fallback_sensors must be >= conservative_sensors",
        );
        check(self.recovery_windows >= 1, "recovery_windows must be >= 1");
        check(
            self.conservative_margin_c.is_finite() && self.conservative_margin_c >= 0.0,
            "conservative_margin_c must be >= 0",
        );
        check(
            self.failsafe_margin_c.is_finite() && self.failsafe_margin_c >= 0.0,
            "failsafe_margin_c must be >= 0",
        );
        check(
            self.failsafe_release_c.is_finite() && self.failsafe_release_c >= 0.0,
            "failsafe_release_c must be >= 0",
        );
        check(
            self.actuator_tolerance > 0.0 && self.actuator_tolerance < 1.0,
            "actuator_tolerance must be in (0, 1)",
        );
        check(self.actuator_windows >= 1, "actuator_windows must be >= 1");
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

/// Where the supervisor currently sits on the fallback ladder. Ordered by
/// severity: `Normal < Conservative < ReactiveFallback`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SupervisorMode {
    /// Healthy: decisions pass through CoolAir unmodified.
    Normal,
    /// Degraded: CoolAir still decides, but against a tightened band and
    /// lower-bounded by a reactive conservative-setpoint controller.
    Conservative,
    /// The learned model is not trusted: the reactive TKS policy decides.
    ReactiveFallback,
}

impl SupervisorMode {
    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SupervisorMode::Normal => "normal",
            SupervisorMode::Conservative => "conservative",
            SupervisorMode::ReactiveFallback => "fallback",
        }
    }
}

/// Monotonic counters the supervisor accumulates; simulations diff them per
/// day (the same pattern the engine uses for power cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorTelemetry {
    /// Minutes spent outside `Normal` mode.
    pub degraded_minutes: u64,
    /// Minutes with the hard failsafe (or blind-AC) engaged.
    pub failsafe_minutes: u64,
    /// Ladder transitions plus failsafe engagements.
    pub fallback_transitions: u64,
    /// Pod-inlet readings replaced by imputation.
    pub imputed_readings: u64,
}

#[derive(Debug)]
struct PendingPrediction {
    due: SimTime,
    /// Regime class the prediction assumed; scoring is skipped if the
    /// plant is no longer in it when the prediction comes due.
    class: RegimeClass,
    temps: Vec<f64>,
}

/// [`CoolAir`] wrapped in sensor validation, degraded-mode fallbacks and a
/// hard overtemp failsafe. Drive it exactly like `CoolAir` (observe /
/// decide_cooling / decide_compute / schedule_job).
#[derive(Debug)]
pub struct SupervisedCoolAir {
    inner: CoolAir,
    cfg: SupervisorConfig,
    tks: TksController,
    tks_conservative: TksController,
    mode: SupervisorMode,
    failsafe: bool,
    last_vals: Vec<f64>,
    streaks: Vec<u32>,
    trusted: Vec<bool>,
    last_update: Option<SimTime>,
    ewma_error: Option<f64>,
    pending: Option<PendingPrediction>,
    healthy_streak: u32,
    peak_error: f64,
    last_commanded: Option<CoolingRegime>,
    actuator_streak: u32,
    ac_impaired: bool,
    fc_impaired: bool,
    settle_windows: u32,
    telemetry: SupervisorTelemetry,
    bus: Telemetry,
}

impl SupervisedCoolAir {
    /// Wraps a CoolAir instance. Both the reactive fallback and the
    /// conservative guard are the §5.1 baseline TKS law re-anchored at
    /// `max_temp - conservative_margin_c`: a reactive law acting *at* the
    /// limit overshoots past it while the cooling spools up, and degraded
    /// modes exist to buy safety margin, not energy.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` violates [`SupervisorConfig::validate`] — a bad
    /// threshold set would silently disable the ladder, which is worse
    /// than refusing to start.
    #[must_use]
    pub fn new(inner: CoolAir, cfg: SupervisorConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SupervisorConfig: {e}");
        }
        let pods = inner.model().pods();
        let max_temp = inner.config().max_temp;
        let conservative_sp = max_temp - TempDelta::new(cfg.conservative_margin_c);
        SupervisedCoolAir {
            tks: TksController::new(TksConfig::baseline_with_setpoint(conservative_sp)),
            tks_conservative: TksController::new(TksConfig::baseline_with_setpoint(
                conservative_sp,
            )),
            inner,
            cfg,
            mode: SupervisorMode::Normal,
            failsafe: false,
            last_vals: vec![f64::NAN; pods],
            streaks: vec![0; pods],
            trusted: vec![true; pods],
            last_update: None,
            ewma_error: None,
            pending: None,
            healthy_streak: 0,
            peak_error: 0.0,
            last_commanded: None,
            actuator_streak: 0,
            ac_impaired: false,
            fc_impaired: false,
            settle_windows: 0,
            telemetry: SupervisorTelemetry::default(),
            bus: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry bus (propagated into the wrapped instance).
    /// Ladder transitions, failsafe flips and model-error scores are
    /// published as first-class events; the [`SupervisorTelemetry`]
    /// counters keep working regardless, so per-day diffing by the engine
    /// is unaffected.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.set_telemetry(telemetry.clone());
        self.bus = telemetry;
    }

    /// The wrapped instance.
    #[must_use]
    pub fn inner(&self) -> &CoolAir {
        &self.inner
    }

    /// The supervisor configuration.
    #[must_use]
    pub fn supervisor_config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Current ladder position.
    #[must_use]
    pub fn mode(&self) -> SupervisorMode {
        self.mode
    }

    /// `true` while the hard failsafe (or blind-AC) is engaged.
    #[must_use]
    pub fn failsafe_engaged(&self) -> bool {
        self.failsafe
    }

    /// Current EWMA of the Cooling Predictor's observed error, °C (None
    /// until the first prediction has been scored).
    #[must_use]
    pub fn model_error(&self) -> Option<f64> {
        self.ewma_error
    }

    /// Largest EWMA model error seen so far, °C (for threshold
    /// calibration).
    #[must_use]
    pub fn peak_model_error(&self) -> f64 {
        self.peak_error
    }

    /// Which pods' sensors are currently trusted.
    #[must_use]
    pub fn trusted(&self) -> &[bool] {
        &self.trusted
    }

    /// Accumulated telemetry (monotonic).
    #[must_use]
    pub fn telemetry(&self) -> SupervisorTelemetry {
        self.telemetry
    }

    /// The current day's temperature band (from the wrapped instance).
    #[must_use]
    pub fn band(&self) -> Option<TempBand> {
        self.inner.band()
    }

    /// Records a sensor snapshot: validates and imputes it, scores any due
    /// prediction against it, and forwards the sanitized snapshot to the
    /// wrapped instance.
    pub fn observe(&mut self, readings: SensorReadings) {
        let sanitized = self.sanitize(&readings);
        self.score_pending(&sanitized);
        self.inner.observe(sanitized);
    }

    /// Selects the cooling regime for the next control period, applying
    /// the fallback ladder and the hard failsafe.
    pub fn decide_cooling(&mut self, readings: &SensorReadings, now: SimTime) -> CoolingRegime {
        let sanitized = self.sanitize(readings);
        let n = self.trusted.len();
        let untrusted = self.trusted.iter().filter(|t| !**t).count();
        let blind = untrusted == n && n > 0;
        let max_temp = self.inner.config().max_temp;

        // Best estimate of the hottest inlet, from trusted sensors only.
        let est_max = sanitized
            .pod_inlets
            .iter()
            .zip(self.trusted.iter())
            .filter(|(_, ok)| **ok)
            .map(|(c, _)| c.value())
            .fold(f64::NEG_INFINITY, f64::max);

        // Hard failsafe: force the AC on over-temperature or total sensor
        // blindness, release with hysteresis once verifiably cool again.
        let engage = blind
            || (est_max.is_finite() && est_max > max_temp.value() + self.cfg.failsafe_margin_c);
        let release = !blind
            && est_max.is_finite()
            && est_max < max_temp.value() - self.cfg.failsafe_release_c;
        if !self.failsafe && engage {
            self.failsafe = true;
            self.telemetry.fallback_transitions += 1;
            self.bus.emit_with(|| Event::FailsafeEngaged {
                time: now,
                // Fall back to the raw reading when every sensor is
                // distrusted, so the event always carries a finite value.
                max_inlet: if est_max.is_finite() {
                    est_max
                } else {
                    sanitized.max_inlet().value()
                },
            });
        } else if self.failsafe && release {
            self.failsafe = false;
            self.bus.emit_with(|| Event::FailsafeReleased { time: now });
        }

        // Commanded-vs-applied actuator check: both infrastructures settle
        // on a (feasibility-sanitized) command well within one control
        // period, so by the next decision the sensed regime must match it.
        // A persistent gap means a stuck fan, locked-out compressor or
        // jammed damper — no model can be trusted to act through broken
        // actuators.
        if let Some(cmd) = self.last_commanded {
            let expected = self.inner.infrastructure().sanitize(cmd);
            let diverged = regimes_diverge(expected, sanitized.regime, self.cfg.actuator_tolerance);
            if diverged {
                self.actuator_streak = self.actuator_streak.saturating_add(1);
            } else {
                self.actuator_streak = 0;
            }
            // Diagnose *which* cooling path is broken so the fallback can
            // route around it; a matching window verifies that path again.
            match expected.class() {
                RegimeClass::AcCompressorOn => self.ac_impaired = diverged,
                RegimeClass::FreeCooling => self.fc_impaired = diverged,
                RegimeClass::Closed | RegimeClass::AcFanOnly => {}
            }
        }

        self.update_mode(untrusted, now);

        let regime = if self.failsafe {
            // The forced AC invalidates whatever end-state the last
            // decision predicted.
            self.pending = None;
            self.route_around_faults(CoolingRegime::ac_on(), sanitized.outside_temp)
        } else {
            match self.mode {
                SupervisorMode::Normal => {
                    match self.inner.decide_cooling(&sanitized, now) {
                        Ok(d) => {
                            self.track_prediction(now, &d, sanitized.regime.class());
                            d.regime
                        }
                        // The optimizer cannot produce a decision (no
                        // candidate regimes); fall back to the reactive
                        // controller rather than panicking mid-loop.
                        Err(_) => {
                            self.pending = None;
                            let fallback = self.tks.decide(&sanitized);
                            self.route_around_faults(fallback, sanitized.outside_temp)
                        }
                    }
                }
                SupervisorMode::Conservative => {
                    // Tighten (never widen) the daily band: cap its top at
                    // `max_temp - margin`, keeping the forecast-selected
                    // band when it is already stricter.
                    self.inner.ensure_band(now);
                    let mut hi = max_temp - TempDelta::new(self.cfg.conservative_margin_c);
                    let mut lo = (hi - self.inner.config().width).max(self.inner.config().min_temp);
                    if let Some(daily) = self.inner.band() {
                        hi = hi.min(daily.hi());
                        lo = lo.min(daily.lo()).min(hi);
                    }
                    let band = TempBand::new(lo, hi);
                    match self.inner.decide_cooling_with_band(&sanitized, now, Some(band)) {
                        Ok(d) => {
                            // Reactive guard: the model's choice never cools
                            // less than a conservative-setpoint TKS would
                            // while we are warmer than the conservative
                            // ceiling.
                            let guard = self.tks_conservative.decide(&sanitized);
                            if est_max.is_finite()
                                && est_max > hi.value()
                                && cooling_rank(guard) > cooling_rank(d.regime)
                            {
                                // The guard overrode the model's command, so
                                // its end-state prediction no longer applies.
                                self.pending = None;
                                guard
                            } else {
                                self.track_prediction(now, &d, sanitized.regime.class());
                                d.regime
                            }
                        }
                        Err(_) => {
                            self.pending = None;
                            let fallback = self.tks_conservative.decide(&sanitized);
                            self.route_around_faults(fallback, sanitized.outside_temp)
                        }
                    }
                }
                SupervisorMode::ReactiveFallback => {
                    // No predictions are made here, so the model-error EWMA
                    // would freeze; age it instead so a transient cause
                    // (e.g. a cleared actuator fault) can be forgiven.
                    if let Some(e) = self.ewma_error {
                        self.ewma_error = Some(e * (1.0 - self.cfg.model_error_alpha));
                    }
                    self.pending = None;
                    let d = self.tks.decide(&sanitized);
                    self.route_around_faults(d, sanitized.outside_temp)
                }
            }
        };

        // Time accounting, in control-period minutes.
        let mins = self.inner.config().control_period.as_secs() / 60;
        if self.mode != SupervisorMode::Normal {
            self.telemetry.degraded_minutes += mins;
        }
        if self.failsafe {
            self.telemetry.failsafe_minutes += mins;
        }
        self.last_commanded = Some(regime);
        regime
    }

    /// Sizes the active server set (delegates; compute management does not
    /// depend on the thermal sensors).
    pub fn decide_compute(&mut self, demand: usize, covering: usize) -> usize {
        self.inner.decide_compute(demand, covering)
    }

    /// Earliest start time for an arriving job (delegates).
    pub fn schedule_job(&mut self, job: &Job, now: SimTime) -> SimTime {
        self.inner.schedule_job(job, now)
    }

    /// Validates one snapshot against range, staleness and cross-pod
    /// consistency, updating per-sensor health state (once per distinct
    /// timestamp) and imputing distrusted inlets from the healthy median.
    fn sanitize(&mut self, readings: &SensorReadings) -> SensorReadings {
        let mut r = readings.clone();
        let n = r.pod_inlets.len();
        if self.last_vals.len() != n {
            self.last_vals = vec![f64::NAN; n];
            self.streaks = vec![0; n];
            self.trusted = vec![true; n];
        }
        let fresh = self.last_update != Some(r.time);
        if fresh {
            if let Some(prev) = self.last_update {
                if r.time > prev + self.inner.config().control_period {
                    // The observation stream jumped (e.g. a simulation
                    // sampling non-consecutive days): whatever transient
                    // the restart brings says nothing about the model.
                    self.pending = None;
                    self.settle_windows = self.cfg.gap_settle_windows;
                }
            }
        }
        let mut ok = vec![true; n];
        for (p, flag) in ok.iter_mut().enumerate() {
            let v = r.pod_inlets[p].value();
            if fresh {
                #[allow(clippy::float_cmp)] // exact repetition IS the signal
                if v == self.last_vals[p] {
                    self.streaks[p] = self.streaks[p].saturating_add(1);
                } else {
                    self.streaks[p] = 0;
                    self.last_vals[p] = v;
                }
            }
            if !v.is_finite() || v < self.cfg.min_valid_c || v > self.cfg.max_valid_c {
                *flag = false;
            }
            if self.streaks[p] >= self.cfg.staleness_limit {
                *flag = false;
            }
        }
        // Cross-pod consistency among the sensors that passed so far.
        let mut healthy: Vec<f64> =
            (0..n).filter(|&p| ok[p]).map(|p| r.pod_inlets[p].value()).collect();
        if healthy.len() >= 3 {
            let med = median(&mut healthy);
            for (p, flag) in ok.iter_mut().enumerate() {
                if *flag && (r.pod_inlets[p].value() - med).abs() > self.cfg.cross_pod_limit_c {
                    *flag = false;
                }
            }
        }
        // Imputation from the surviving pods.
        let mut survivors: Vec<f64> =
            (0..n).filter(|&p| ok[p]).map(|p| r.pod_inlets[p].value()).collect();
        if !survivors.is_empty() && survivors.len() < n {
            let med = median(&mut survivors);
            for (p, flag) in ok.iter().enumerate() {
                if !flag {
                    r.pod_inlets[p] = Celsius::new(med);
                    if fresh {
                        self.telemetry.imputed_readings += 1;
                        self.bus.counter_add("supervisor.imputed_readings", 1);
                    }
                }
            }
        }
        if fresh {
            self.last_update = Some(r.time);
        }
        self.trusted = ok;
        r
    }

    /// Scores a due prediction against a validated observation and folds
    /// the error into the EWMA.
    fn score_pending(&mut self, sanitized: &SensorReadings) {
        let Some(p) = &self.pending else { return };
        if sanitized.time < p.due {
            return;
        }
        if sanitized.time > p.due + self.inner.config().control_period {
            // The observation stream jumped past the due time (e.g. a
            // simulation sampling non-consecutive days): the prediction is
            // stale, not wrong.
            self.pending = None;
            return;
        }
        if sanitized.regime.class() != p.class {
            // The plant is no longer running the regime the prediction
            // assumed (an actuator fault, the failsafe, or a mid-window
            // regime change): the comparison would say nothing about the
            // model.
            self.pending = None;
            return;
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        for (i, predicted) in p.temps.iter().enumerate() {
            if self.trusted.get(i).copied().unwrap_or(false) {
                if let Some(actual) = sanitized.pod_inlets.get(i) {
                    sum += (actual.value() - predicted).abs();
                    count += 1;
                }
            }
        }
        self.pending = None;
        if count == 0 {
            return;
        }
        let err = sum / count as f64;
        let a = self.cfg.model_error_alpha;
        let ewma = match self.ewma_error {
            Some(prev) => a * err + (1.0 - a) * prev,
            None => err,
        };
        self.ewma_error = Some(ewma);
        self.peak_error = self.peak_error.max(ewma);
        self.bus.observe("model_error_c", err, &ERROR_BOUNDS_C);
        self.bus.emit_with(|| Event::ModelErrorScored {
            time: sanitized.time,
            error_c: err,
            ewma_c: ewma,
        });
    }

    /// Stores a decision's end-state prediction for later scoring — but
    /// only over *steady* windows, where the commanded regime class equals
    /// the class the plant is already applying. A transition window's
    /// error reflects actuator slew dynamics, not model quality, and in
    /// benign operation those windows alone push the EWMA past any useful
    /// threshold.
    fn track_prediction(
        &mut self,
        now: SimTime,
        decision: &crate::manager::optimizer::Decision,
        sensed: RegimeClass,
    ) {
        if self.settle_windows > 0 {
            self.settle_windows -= 1;
            self.pending = None;
            return;
        }
        if decision.regime.class() != sensed {
            self.pending = None;
            return;
        }
        self.pending = Some(PendingPrediction {
            due: now + self.inner.config().control_period,
            class: sensed,
            temps: decision.prediction.final_temps.iter().map(|c| c.value()).collect(),
        });
    }

    /// Substitutes the working cooling path for a diagnosed-broken one: a
    /// locked-out compressor makes AC commands fan-only theatre (full free
    /// cooling moves heat as long as outside air is below the limit), and
    /// a jammed damper turns free-cooling commands into a sealed box (the
    /// AC still works). With both paths broken, or outside air too hot to
    /// substitute, the command stands — there is nothing better to try.
    fn route_around_faults(&self, regime: CoolingRegime, outside: Celsius) -> CoolingRegime {
        match regime {
            CoolingRegime::Ac { compressor }
                if compressor > 0.0
                    && self.ac_impaired
                    && !self.fc_impaired
                    && outside < self.inner.config().max_temp =>
            {
                CoolingRegime::free_cooling(FanSpeed::saturating(1.0))
            }
            CoolingRegime::FreeCooling { .. } if self.fc_impaired && !self.ac_impaired => {
                CoolingRegime::ac_on()
            }
            _ => regime,
        }
    }

    /// Moves along the ladder: escalation is immediate, de-escalation
    /// requires `recovery_windows` consecutive healthier assessments.
    fn update_mode(&mut self, untrusted: usize, now: SimTime) {
        let err = self.ewma_error.unwrap_or(0.0);
        let desired = if untrusted >= self.cfg.fallback_sensors
            || err >= self.cfg.fallback_error_c
            || self.actuator_streak >= self.cfg.actuator_windows
        {
            SupervisorMode::ReactiveFallback
        } else if untrusted >= self.cfg.conservative_sensors
            || err >= self.cfg.conservative_error_c
        {
            SupervisorMode::Conservative
        } else {
            SupervisorMode::Normal
        };
        let prev = self.mode;
        if desired > self.mode {
            self.mode = desired;
            self.healthy_streak = 0;
            self.telemetry.fallback_transitions += 1;
        } else if desired < self.mode {
            self.healthy_streak += 1;
            if self.healthy_streak >= self.cfg.recovery_windows {
                self.mode = desired;
                self.healthy_streak = 0;
                self.telemetry.fallback_transitions += 1;
            }
        } else {
            self.healthy_streak = 0;
        }
        if self.mode != prev {
            self.bus.emit_with(|| Event::SupervisorTransition {
                time: now,
                from: prev.name().into(),
                to: self.mode.name().into(),
            });
        }
    }
}

/// Whether the sensed regime disagrees with what was commanded: a class
/// mismatch, or a same-class drive gap beyond `tol`.
fn regimes_diverge(expected: CoolingRegime, actual: CoolingRegime, tol: f64) -> bool {
    if expected.class() != actual.class() {
        return true;
    }
    match (expected, actual) {
        (CoolingRegime::FreeCooling { fan: a }, CoolingRegime::FreeCooling { fan: b }) => {
            (a.fraction() - b.fraction()).abs() > tol
        }
        (CoolingRegime::Ac { compressor: a }, CoolingRegime::Ac { compressor: b }) => {
            (a - b).abs() > tol
        }
        _ => false,
    }
}

/// Coarse "how much cooling does this command" ordering used by the
/// conservative guard.
fn cooling_rank(regime: CoolingRegime) -> f64 {
    match regime {
        CoolingRegime::Closed => 0.0,
        CoolingRegime::FreeCooling { fan } => 1.0 + fan.fraction(),
        CoolingRegime::Ac { compressor } => 2.5 + compressor,
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("validated finite values"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoolAirConfig, Version};
    use crate::modeler::{train_cooling_model, TrainingConfig};
    use coolair_thermal::Infrastructure;
    use coolair_units::{psychro, RelativeHumidity, SimDuration, Watts};
    use coolair_weather::{Forecaster, Location, TmySeries};

    fn build() -> SupervisedCoolAir {
        let tmy = TmySeries::generate(&Location::newark(), 11);
        let model = train_cooling_model(&tmy, &TrainingConfig::quick());
        let inner = CoolAir::new(
            Version::AllNd,
            CoolAirConfig::default(),
            model,
            Forecaster::perfect(tmy),
            Infrastructure::Parasol,
        );
        SupervisedCoolAir::new(inner, SupervisorConfig::default())
    }

    fn readings(inlets: &[f64], outside: f64, t: SimTime) -> SensorReadings {
        readings_with(inlets, outside, t, CoolingRegime::Closed)
    }

    fn readings_with(
        inlets: &[f64],
        outside: f64,
        t: SimTime,
        regime: CoolingRegime,
    ) -> SensorReadings {
        let out = Celsius::new(outside);
        let mean = inlets.iter().sum::<f64>() / inlets.len() as f64;
        SensorReadings {
            time: t,
            outside_temp: out,
            outside_rh: RelativeHumidity::new(60.0),
            outside_abs: psychro::absolute_humidity(out, RelativeHumidity::new(60.0)),
            pod_inlets: inlets.iter().map(|&v| Celsius::new(v)).collect(),
            cold_aisle_rh: RelativeHumidity::new(45.0),
            cold_aisle_abs: psychro::absolute_humidity(
                Celsius::new(mean),
                RelativeHumidity::new(45.0),
            ),
            hot_aisle: Celsius::new(mean + 6.0),
            disk_temps: inlets.iter().map(|&v| Celsius::new(v + 10.0)).collect(),
            regime,
            cooling_power: Watts::ZERO,
            it_power: Watts::new(500.0),
            active_fraction: 0.3,
        }
    }

    #[test]
    fn healthy_readings_pass_untouched_and_stay_normal() {
        let mut sv = build();
        let now = SimTime::from_days(20);
        let r = readings(&[24.0, 24.3, 23.8, 24.1], 12.0, now);
        let s = sv.sanitize(&r);
        assert_eq!(s, r, "validation must not alter healthy data");
        assert!(sv.trusted().iter().all(|&t| t));
        let _ = sv.decide_cooling(&r, now);
        assert_eq!(sv.mode(), SupervisorMode::Normal);
        assert!(!sv.failsafe_engaged());
        assert_eq!(sv.telemetry().degraded_minutes, 0);
    }

    #[test]
    fn out_of_range_reading_is_imputed() {
        let mut sv = build();
        let now = SimTime::from_days(20);
        let r = readings(&[24.0, 120.0, 23.8, 24.2], 12.0, now);
        let s = sv.sanitize(&r);
        assert!(!sv.trusted()[1]);
        assert!((s.pod_inlets[1].value() - 24.0).abs() < 0.5, "imputed near the healthy median");
        assert_eq!(sv.telemetry().imputed_readings, 1);
    }

    #[test]
    fn cross_pod_outlier_is_caught() {
        let mut sv = build();
        let now = SimTime::from_days(20);
        // 45 °C is inside the physical range but 20 °C from its peers.
        let s = sv.sanitize(&readings(&[24.0, 45.0, 23.8, 24.2], 12.0, now));
        assert!(!sv.trusted()[1]);
        assert!(s.pod_inlets[1].value() < 30.0);
    }

    #[test]
    fn stale_sensor_distrusted_after_streak() {
        let mut sv = build();
        let limit = sv.supervisor_config().staleness_limit;
        let mut t = SimTime::from_days(20);
        for i in 0..=limit {
            // Pod 0 frozen at 24.0 exactly; others jitter.
            let x = 0.01 * f64::from(i);
            let _ = sv.sanitize(&readings(&[24.0, 24.3 + x, 23.8 - x, 24.1 + x], 12.0, t));
            t += SimDuration::from_minutes(2);
        }
        assert!(!sv.trusted()[0], "frozen sensor must lose trust");
        assert!(sv.trusted()[1] && sv.trusted()[2] && sv.trusted()[3]);
    }

    #[test]
    fn one_bad_sensor_goes_conservative_two_go_fallback() {
        let mut sv = build();
        let now = SimTime::from_days(20);
        let _ = sv.decide_cooling(&readings(&[24.0, 120.0, 23.8, 24.2], 12.0, now), now);
        assert_eq!(sv.mode(), SupervisorMode::Conservative);
        let later = now + SimDuration::from_minutes(10);
        let _ = sv.decide_cooling(&readings(&[24.0, 120.0, -80.0, 24.2], 12.0, later), later);
        assert_eq!(sv.mode(), SupervisorMode::ReactiveFallback);
        assert!(sv.telemetry().degraded_minutes >= 20);
        assert!(sv.telemetry().fallback_transitions >= 2);
    }

    #[test]
    fn overtemp_failsafe_forces_ac_and_releases_with_hysteresis() {
        let mut sv = build();
        let mut t = SimTime::from_days(20);
        let hot = readings(&[33.0, 33.2, 32.8, 33.1], 25.0, t);
        let r1 = sv.decide_cooling(&hot, t);
        assert_eq!(r1, CoolingRegime::ac_on());
        assert!(sv.failsafe_engaged());
        // Slightly cooler but still above the release point: stays engaged.
        t += SimDuration::from_minutes(10);
        let warm = readings_with(&[29.5, 29.6, 29.4, 29.5], 25.0, t, r1);
        let r2 = sv.decide_cooling(&warm, t);
        assert_eq!(r2, CoolingRegime::ac_on());
        // Verifiably cool: releases.
        t += SimDuration::from_minutes(10);
        let cool = readings_with(&[27.0, 27.1, 26.9, 27.0], 25.0, t, r2);
        let _ = sv.decide_cooling(&cool, t);
        assert!(!sv.failsafe_engaged());
        assert!(sv.telemetry().failsafe_minutes >= 20);
    }

    #[test]
    fn total_blindness_forces_ac() {
        let mut sv = build();
        let mut t = SimTime::from_days(20);
        // Freeze all four sensors until every streak passes the limit.
        for _ in 0..=sv.supervisor_config().staleness_limit {
            let _ = sv.sanitize(&readings(&[24.0, 24.3, 23.8, 24.1], 12.0, t));
            t += SimDuration::from_minutes(2);
        }
        let r = readings(&[24.0, 24.3, 23.8, 24.1], 12.0, t);
        assert_eq!(sv.decide_cooling(&r, t), CoolingRegime::ac_on(), "blind-AC");
        assert!(sv.failsafe_engaged());
    }

    #[test]
    fn recovery_needs_consecutive_healthy_windows() {
        let mut sv = build();
        let mut t = SimTime::from_days(20);
        let mut regime = sv.decide_cooling(&readings(&[24.0, 120.0, 23.8, 24.2], 12.0, t), t);
        assert_eq!(sv.mode(), SupervisorMode::Conservative);
        let windows = sv.supervisor_config().recovery_windows;
        for i in 0..windows {
            t += SimDuration::from_minutes(10);
            let x = 0.01 * f64::from(i);
            // Feed the commanded regime back, as healthy actuators would.
            let r = readings_with(&[24.0 + x, 24.3 + x, 23.8 + x, 24.2 + x], 12.0, t, regime);
            regime = sv.decide_cooling(&r, t);
        }
        assert_eq!(sv.mode(), SupervisorMode::Normal, "recovered after {windows} healthy windows");
    }

    #[test]
    fn model_error_ewma_tracks_bad_predictions() {
        let mut sv = build();
        let mut t = SimTime::from_days(20);
        // Settle the loop with the commanded regime fed back: once the
        // command repeats its class, a steady-window prediction is stored.
        let mut regime = CoolingRegime::Closed;
        for i in 0..3u32 {
            let x = 0.01 * f64::from(i);
            let r = readings_with(&[24.0 + x, 24.3 + x, 23.8 + x, 24.1 + x], 12.0, t, regime);
            sv.observe(r.clone());
            regime = sv.decide_cooling(&r, t);
            t += SimDuration::from_minutes(10);
        }
        // A wildly different observation at the due time — still under the
        // commanded regime, so it is scored against the prediction.
        sv.observe(readings_with(&[50.0, 50.3, 49.8, 50.1], 12.0, t, regime));
        let err = sv.model_error().expect("scored");
        assert!(err > 2.0, "a >15 °C miss must register, got {err}");
    }

    #[test]
    fn persistent_actuator_mismatch_forces_reactive_fallback() {
        let mut sv = build();
        let mut t = SimTime::from_days(20);
        let windows = sv.supervisor_config().actuator_windows;
        // Whatever the supervisor commands, the plant reports Closed — a
        // jammed damper. After `actuator_windows` mismatched control
        // windows the model is abandoned for the reactive fallback.
        let first = sv.decide_cooling(
            &readings_with(&[26.0, 26.3, 25.8, 26.1], 10.0, t, CoolingRegime::Closed),
            t,
        );
        assert!(
            first.class() != RegimeClass::Closed,
            "a 26 °C room over a 10 °C outside must command some cooling"
        );
        for i in 0..windows {
            t += SimDuration::from_minutes(10);
            let x = 0.01 * f64::from(i);
            let r = readings_with(
                &[26.0 + x, 26.3 + x, 25.8 + x, 26.1 + x],
                10.0,
                t,
                CoolingRegime::Closed,
            );
            let _ = sv.decide_cooling(&r, t);
        }
        assert_eq!(sv.mode(), SupervisorMode::ReactiveFallback);
    }

    #[test]
    fn default_config_validates() {
        SupervisorConfig::default().validate().expect("defaults must be valid");
    }

    #[test]
    fn validate_rejects_inverted_ladder_and_bad_alpha() {
        let mut cfg = SupervisorConfig::default();
        cfg.fallback_error_c = cfg.conservative_error_c; // not strictly above
        cfg.model_error_alpha = 0.0;
        cfg.fallback_sensors = 0;
        let msg = cfg.validate().unwrap_err();
        assert!(msg.contains("fallback_error_c"), "got: {msg}");
        assert!(msg.contains("model_error_alpha"), "got: {msg}");
        assert!(msg.contains("fallback_sensors"), "got: {msg}");
    }

    #[test]
    #[should_panic(expected = "invalid SupervisorConfig")]
    fn constructor_rejects_invalid_config() {
        let tmy = TmySeries::generate(&Location::newark(), 11);
        let model = train_cooling_model(&tmy, &TrainingConfig::quick());
        let inner = CoolAir::new(
            Version::AllNd,
            CoolAirConfig::default(),
            model,
            Forecaster::perfect(tmy),
            Infrastructure::Parasol,
        );
        let cfg = SupervisorConfig { model_error_alpha: 2.0, ..SupervisorConfig::default() };
        let _ = SupervisedCoolAir::new(inner, cfg);
    }
}
