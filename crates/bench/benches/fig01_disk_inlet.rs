//! Figure 1: disk, inlet, and outside temperatures under free cooling.
//!
//! The paper plots "the lowest and highest disk temperatures on July 6th and
//! 7th 2013, when we ran a workload that constantly left the disk 50 %
//! utilized", showing a strong correlation between outside, inlet, and disk
//! temperatures. We reproduce the 48-hour run on the plant physics with a
//! constant 50 %-utilisation load and the container held in free cooling
//! (with the factory TKS modulating fan speed).

use coolair_thermal::{
    ItLoad, OutsideConditions, Plant, PlantConfig, TksConfig, TksController, SERVERS_PER_POD,
};
use coolair_units::{SimDuration, SimTime, Watts};
use coolair_weather::{Location, TmySeries};

fn main() {
    let location = Location::newark();
    let tmy = TmySeries::generate(&location, 42);
    let mut plant = Plant::new(PlantConfig::parasol());
    // Keep the container in free-cooling operation, as in the figure: the
    // factory 25 °C setpoint would flip to AC on warm July afternoons, so
    // run the TKS at the paper's 30 °C baseline setpoint.
    let mut tks = TksController::new(TksConfig::baseline_with_setpoint(
        coolair_units::Celsius::new(30.0),
    ));

    // July 6 ≈ day 186.
    let start = SimTime::from_days(186);
    let end = start + SimDuration::from_days(2);
    let dt = SimDuration::from_secs(15);
    let it = ItLoad::uniform(4, Watts::new(0.5 * SERVERS_PER_POD as f64 * 30.0), 1.0);

    println!("=== Figure 1: disk, inlet, and outside temps under free cooling (48h) ===");
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "hour", "outside", "inlet_lo", "inlet_hi", "disk_lo", "disk_hi"
    );
    let mut t = start;
    let mut regime = coolair_thermal::CoolingRegime::Closed;
    let mut corr_in = Corr::default();
    let mut corr_disk = Corr::default();
    while t < end {
        if (t % SimDuration::from_minutes(10)).is_zero() {
            regime = tks.decide(&plant.readings(t));
        }
        if (t % SimDuration::from_hours(1)).is_zero() {
            let r = plant.readings(t);
            let disk_lo = r.disk_temps.iter().cloned().fold(f64::INFINITY, |a, b| a.min(b.value()));
            let disk_hi =
                r.disk_temps.iter().cloned().fold(f64::NEG_INFINITY, |a, b| a.max(b.value()));
            println!(
                "{:>5} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                (t - start).as_hours_f64() as u64,
                r.outside_temp.value(),
                r.min_inlet().value(),
                r.max_inlet().value(),
                disk_lo,
                disk_hi
            );
            corr_in.push(r.outside_temp.value(), r.mean_inlet().value());
            corr_disk.push(r.outside_temp.value(), disk_hi);
        }
        let (temperature, abs_humidity) = tmy.outside_at(t);
        let outside = OutsideConditions { temperature, abs_humidity };
        plant.step(dt, outside, &it, regime);
        t += dt;
    }

    let (ri, rd) = (corr_in.r(), corr_disk.r());
    println!("\nPaper claim: strong correlation between outside, inlet, and disk temperatures.");
    println!("Measured: corr(outside, inlet) = {ri:.2}; corr(outside, disk) = {rd:.2}");
    println!("Offset illustrated in Figure 1 ≈ 2.5°C (outside→inlet under free cooling).");
    assert!(ri > 0.7, "inlet should track outside under free cooling");
    assert!(rd > 0.5, "disk should track outside under free cooling");
}

#[derive(Default)]
struct Corr {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Corr {
    fn push(&mut self, x: f64, y: f64) {
        self.xs.push(x);
        self.ys.push(y);
    }
    fn r(&self) -> f64 {
        let n = self.xs.len() as f64;
        let mx = self.xs.iter().sum::<f64>() / n;
        let my = self.ys.iter().sum::<f64>() / n;
        let cov: f64 =
            self.xs.iter().zip(&self.ys).map(|(x, y)| (x - mx) * (y - my)).sum::<f64>();
        let vx: f64 = self.xs.iter().map(|x| (x - mx).powi(2)).sum();
        let vy: f64 = self.ys.iter().map(|y| (y - my).powi(2)).sum();
        cov / (vx.sqrt() * vy.sqrt())
    }
}
