//! Typical-meteorological-year synthesis.

use std::f64::consts::PI;

use coolair_units::{AbsoluteHumidity, Celsius, RelativeHumidity, SimTime, psychro};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::location::Location;

/// Hours in the synthetic year (365 days).
pub const HOURS_PER_YEAR: usize = 365 * 24;

/// A deterministic hourly year of outside temperature and relative humidity
/// for one location — our stand-in for the US DOE TMY archive (§5.1).
///
/// Sub-hourly queries interpolate linearly, so the plant physics sees a
/// smooth outside signal. Generation is fully determined by the location and
/// a seed: two calls with the same inputs produce identical years, which is
/// what makes the paper's paired comparisons ("the same weather never repeats
/// in real life") possible.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TmySeries {
    temps: Vec<f64>,
    rhs: Vec<f64>,
    location_name: String,
}

impl TmySeries {
    /// Synthesizes a typical meteorological year for `location`.
    ///
    /// The `seed` selects the realisation of the synoptic and noise
    /// processes; the climate statistics come from the location.
    #[must_use]
    pub fn generate(location: &Location, seed: u64) -> Self {
        let c = location.climate();
        assert!(c.is_valid(), "invalid climate parameters for {}", location.name());
        let mut rng = StdRng::seed_from_u64(seed ^ location.seed_salt());

        let mut temps = Vec::with_capacity(HOURS_PER_YEAR);
        let mut rhs = Vec::with_capacity(HOURS_PER_YEAR);

        // AR(1) synoptic process, one innovation per day.
        let mut synoptic = 0.0_f64;
        // Day-scale humidity anomaly, also AR(1).
        let mut rh_anomaly = 0.0_f64;
        let stationary = (1.0 - c.synoptic_persistence * c.synoptic_persistence).sqrt();
        // Both diurnal terms follow one cosine of the hour; every day
        // shares its 24 values.
        let hour_cos: [f64; 24] =
            std::array::from_fn(|hour| (2.0 * PI * (hour as f64 - 14.5) / 24.0).cos());

        for day in 0..365 {
            synoptic = c.synoptic_persistence * synoptic
                + stationary * c.synoptic_std * gaussian(&mut rng);
            rh_anomaly = 0.7 * rh_anomaly + 0.71 * c.rh_noise_std * gaussian(&mut rng);
            // Daily modulation of the diurnal swing (overcast days swing less).
            let diurnal_scale = 0.6 + 0.4 * rng.gen::<f64>();
            let base = c.seasonal_mean(day as f64);

            for cos in hour_cos {
                let diurnal = -c.diurnal_amplitude * diurnal_scale * cos;
                // The paper's diurnal term peaks mid-afternoon; cos(0)=1 at
                // 14.5h, and the leading minus flips the cosine so 14.5h is
                // the warmest hour.
                let noise = c.hourly_noise_std * gaussian(&mut rng);
                let t = base + synoptic - diurnal + noise;

                // RH swings opposite the diurnal temperature term.
                let rh_diurnal = c.diurnal_rh_amplitude * cos;
                let rh = (c.mean_rh + rh_anomaly + rh_diurnal).clamp(3.0, 100.0);

                temps.push(t);
                rhs.push(rh);
            }
        }

        TmySeries { temps, rhs, location_name: location.name().to_string() }
    }

    /// Name of the location this year was generated for.
    #[must_use]
    pub fn location_name(&self) -> &str {
        &self.location_name
    }

    /// Outside air temperature at simulation time `t` (hours beyond the year
    /// wrap around).
    #[must_use]
    pub fn temperature_at(&self, t: SimTime) -> Celsius {
        Celsius::new(self.interp(&self.temps, t))
    }

    /// Outside relative humidity at simulation time `t`.
    #[must_use]
    pub fn humidity_at(&self, t: SimTime) -> RelativeHumidity {
        RelativeHumidity::new(self.interp(&self.rhs, t))
    }

    /// Outside absolute humidity (mixing ratio) at simulation time `t`.
    #[must_use]
    pub fn absolute_humidity_at(&self, t: SimTime) -> AbsoluteHumidity {
        self.outside_at(t).1
    }

    /// Outside temperature and absolute humidity at `t` — the values of
    /// [`TmySeries::temperature_at`] and [`TmySeries::absolute_humidity_at`]
    /// from one interpolation, for a caller that needs both.
    #[must_use]
    pub fn outside_at(&self, t: SimTime) -> (Celsius, AbsoluteHumidity) {
        let (i0, i1, frac) = self.interp_weights(t);
        let lerp = |series: &[f64]| series[i0] * (1.0 - frac) + series[i1] * frac;
        let temperature = Celsius::new(lerp(&self.temps));
        let rh = RelativeHumidity::new(lerp(&self.rhs));
        (temperature, psychro::absolute_humidity(temperature, rh))
    }

    /// The true hourly temperatures for day `day` (0-based, wrapped into the
    /// year) — what a perfectly accurate forecast service would return.
    #[must_use]
    pub fn hourly_temps_for_day(&self, day: u64) -> Vec<Celsius> {
        let d = (day % 365) as usize;
        (0..24).map(|h| Celsius::new(self.temps[d * 24 + h])).collect()
    }

    /// Mean outside temperature over day `day`.
    #[must_use]
    pub fn daily_mean(&self, day: u64) -> Celsius {
        let d = (day % 365) as usize;
        let sum: f64 = self.temps[d * 24..(d + 1) * 24].iter().sum();
        Celsius::new(sum / 24.0)
    }

    /// Min and max outside temperature over day `day`.
    #[must_use]
    pub fn daily_extremes(&self, day: u64) -> (Celsius, Celsius) {
        let d = (day % 365) as usize;
        let slice = &self.temps[d * 24..(d + 1) * 24];
        let lo = slice.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = slice.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (Celsius::new(lo), Celsius::new(hi))
    }

    /// Annual mean temperature of this realisation.
    #[must_use]
    pub fn annual_mean(&self) -> Celsius {
        Celsius::new(self.temps.iter().sum::<f64>() / self.temps.len() as f64)
    }

    fn interp(&self, series: &[f64], t: SimTime) -> f64 {
        let (i0, i1, frac) = self.interp_weights(t);
        series[i0] * (1.0 - frac) + series[i1] * frac
    }

    /// The two hourly indices around `t` and the weight of the later one.
    /// Both series share the year's length.
    fn interp_weights(&self, t: SimTime) -> (usize, usize, f64) {
        let hours = t.as_hours_f64();
        let len = self.temps.len();
        let i0 = hours.floor() as usize % len;
        (i0, (i0 + 1) % len, hours.fract())
    }
}

/// Standard normal sample via Box–Muller (avoids a rand_distr dependency).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::Location;
    use coolair_units::{SimDuration, SECS_PER_HOUR};

    #[test]
    fn deterministic_for_same_seed() {
        let loc = Location::newark();
        let a = TmySeries::generate(&loc, 7);
        let b = TmySeries::generate(&loc, 7);
        assert_eq!(a.temps, b.temps);
        assert_eq!(a.rhs, b.rhs);
    }

    #[test]
    fn different_seeds_differ() {
        let loc = Location::newark();
        let a = TmySeries::generate(&loc, 7);
        let b = TmySeries::generate(&loc, 8);
        assert_ne!(a.temps, b.temps);
    }

    #[test]
    fn annual_mean_close_to_climate_mean() {
        for loc in [Location::newark(), Location::singapore(), Location::iceland()] {
            let tmy = TmySeries::generate(&loc, 1);
            let diff = (tmy.annual_mean().value() - loc.climate().mean_temp).abs();
            assert!(diff < 2.0, "{}: annual mean off by {diff}", loc.name());
        }
    }

    #[test]
    fn seasonal_cycle_visible_in_newark() {
        let tmy = TmySeries::generate(&Location::newark(), 3);
        // Mean of January vs July.
        let jan: f64 = (0..31).map(|d| tmy.daily_mean(d).value()).sum::<f64>() / 31.0;
        let jul: f64 = (181..212).map(|d| tmy.daily_mean(d).value()).sum::<f64>() / 31.0;
        assert!(jul - jan > 12.0, "seasonal swing too small: jan={jan:.1} jul={jul:.1}");
    }

    #[test]
    fn singapore_has_tiny_seasonal_cycle() {
        let tmy = TmySeries::generate(&Location::singapore(), 3);
        let jan: f64 = (0..31).map(|d| tmy.daily_mean(d).value()).sum::<f64>() / 31.0;
        let jul: f64 = (181..212).map(|d| tmy.daily_mean(d).value()).sum::<f64>() / 31.0;
        assert!((jul - jan).abs() < 4.0);
    }

    #[test]
    fn afternoon_warmer_than_night() {
        let tmy = TmySeries::generate(&Location::chad(), 5);
        let mut afternoon = 0.0;
        let mut night = 0.0;
        for d in 0..365u64 {
            let temps = tmy.hourly_temps_for_day(d);
            afternoon += temps[14].value();
            night += temps[4].value();
        }
        assert!(
            afternoon > night + 365.0 * 3.0,
            "diurnal cycle missing: afternoon-night mean diff {}",
            (afternoon - night) / 365.0
        );
    }

    #[test]
    fn interpolation_is_continuous() {
        let tmy = TmySeries::generate(&Location::santiago(), 11);
        let t0 = SimTime::from_secs(10 * SECS_PER_HOUR);
        let mut prev = tmy.temperature_at(t0).value();
        for step in 1..=60 {
            let t = t0 + SimDuration::from_minutes(step);
            let cur = tmy.temperature_at(t).value();
            assert!((cur - prev).abs() < 1.0, "jump at minute {step}");
            prev = cur;
        }
    }

    #[test]
    fn year_wraps_around() {
        let tmy = TmySeries::generate(&Location::newark(), 2);
        let last = SimTime::from_secs((HOURS_PER_YEAR as u64) * SECS_PER_HOUR);
        // One full year later must equal hour zero.
        assert!((tmy.temperature_at(last).value() - tmy.temps[0]).abs() < 1e-9);
    }

    #[test]
    fn humidity_in_range_all_year() {
        for loc in [Location::singapore(), Location::chad(), Location::iceland()] {
            let tmy = TmySeries::generate(&loc, 9);
            for &rh in &tmy.rhs {
                assert!((3.0..=100.0).contains(&rh), "{}: rh {rh}", loc.name());
            }
        }
    }

    #[test]
    fn daily_extremes_bracket_mean() {
        let tmy = TmySeries::generate(&Location::newark(), 4);
        for d in [0, 100, 200, 300] {
            let (lo, hi) = tmy.daily_extremes(d);
            let mean = tmy.daily_mean(d);
            assert!(lo <= mean && mean <= hi);
        }
    }
}
