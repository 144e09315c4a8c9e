//! `paper_year`: the paper's §5.1 evaluation — the Figures 8–10 grid of
//! six systems × five climates, Facebook trace, Smooth infrastructure,
//! one sampled day every [`STRIDE`] days — run on a single thread through
//! the public `coolair-sim` API.
//!
//! Set-up is TMY generation plus one Cooling Model training per location,
//! run before the timed phase and again after each round (`setup_s` is the
//! median). The timed phase repeats whole grid rounds (`round_s` is the
//! median round's wall time); the seed only permutes the
//! order of the 30 annual runs in each round, so the simulated inputs are
//! the paper's (weather seed 42, trace seed 1) and the outcome metrics are
//! the same for every seed.

use std::time::Instant;

use coolair::{train_cooling_model, CoolingModel, Version};
use coolair_sim::{run_annual_traced, AnnualConfig, AnnualSummary, SystemSpec};
use coolair_telemetry::Telemetry;
use coolair_weather::{Location, TmySeries};
use coolair_workload::TraceKind;

use crate::layers::{self, Layers};
use crate::report::{EndToEnd, Report};
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::RunArgs;

/// One sampled day every `STRIDE` calendar days (13 days per year).
pub const STRIDE: u64 = 30;

/// The six systems of the grid, in figure order.
fn systems() -> Vec<SystemSpec> {
    vec![
        SystemSpec::Baseline,
        SystemSpec::CoolAir(Version::Temperature),
        SystemSpec::CoolAir(Version::Energy),
        SystemSpec::CoolAir(Version::Variation),
        SystemSpec::CoolAir(Version::AllNd),
        SystemSpec::Supervised(Version::AllNd),
    ]
}

fn config() -> AnnualConfig {
    AnnualConfig {
        stride: STRIDE,
        ..AnnualConfig::default()
    }
}

/// One grid cell's outcome: what Figures 8–10 plot, plus the totals the
/// end-to-end outcome metrics aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// System display name (`Baseline`, `Variation`, …).
    pub system: String,
    /// Location display name (`Newark`, …).
    pub location: String,
    /// Average inlet violation above 30 °C per reading (Fig 8).
    pub avg_violation: f64,
    /// Mean worst-sensor daily range, °C (Fig 9).
    pub avg_range: f64,
    /// Yearly PUE (Fig 10).
    pub pue: f64,
    /// Sampled days simulated.
    pub days: usize,
    /// IT energy, kWh.
    pub it_kwh: f64,
    /// Cooling energy, kWh.
    pub cooling_kwh: f64,
    /// Total inlet degree-minutes above 30 °C.
    pub violation_cmin: f64,
}

impl Cell {
    fn new(system: &SystemSpec, location: &Location, s: &AnnualSummary) -> Cell {
        Cell {
            system: system.name(),
            location: location.name().to_string(),
            avg_violation: s.avg_violation(),
            avg_range: s.avg_worst_range(),
            pue: s.pue(),
            days: s.len(),
            it_kwh: s.it_kwh(),
            cooling_kwh: s.cooling_kwh(),
            violation_cmin: s.total_violation(),
        }
    }
}

/// TMY generation plus one training per location.
fn set_up(
    locations: &[Location],
    cfg: &AnnualConfig,
    tracer: &Tracer,
    parent: u64,
) -> Vec<CoolingModel> {
    locations
        .iter()
        .map(|loc| {
            let tmy = tracer.span("weather.tmy", parent, || {
                TmySeries::generate(loc, cfg.weather_seed)
            });
            tracer.span("modeler.train", parent, || {
                train_cooling_model(&tmy, &cfg.training)
            })
        })
        .collect()
}

/// One grid round in `order`; returns the cells in canonical (system,
/// location) order.
fn round(
    order: &[(usize, usize)],
    systems: &[SystemSpec],
    locations: &[Location],
    models: &[CoolingModel],
    telemetry: &Telemetry,
    tracer: &Tracer,
    parent: u64,
) -> Vec<Cell> {
    let cfg = config();
    let mut cells: Vec<Option<Cell>> = vec![None; systems.len() * locations.len()];
    for &(si, li) in order {
        let system = &systems[si];
        let model = (!matches!(system, SystemSpec::Baseline)).then(|| models[li].clone());
        let summary = tracer.span("sim.annual", parent, || {
            run_annual_traced(
                system,
                &locations[li],
                TraceKind::Facebook,
                &cfg,
                model,
                telemetry.clone(),
            )
        });
        cells[si * locations.len() + li] = Some(Cell::new(system, &locations[li], &summary));
    }
    cells
        .into_iter()
        .map(|c| c.expect("every cell ran"))
        .collect()
}

/// Runs the workload. Untraced, set-up runs before the timed phase and
/// again after each round; traced, it runs once inside a `setup` span and
/// each traced round follows an untraced reference round of the same
/// operations, the baseline of `trace.overhead_pct`.
pub fn run(args: &RunArgs) -> Report {
    let systems = systems();
    let locations = Location::paper_five();
    let cfg = config();
    let mut order: Vec<(usize, usize)> = (0..systems.len())
        .flat_map(|s| (0..locations.len()).map(move |l| (s, l)))
        .collect();
    Rng::new(args.seed, 1).shuffle(&mut order);
    let (tracer, telemetry) = if args.trace {
        (Tracer::enabled(), Telemetry::discard())
    } else {
        (Tracer::disabled(), Telemetry::disabled())
    };

    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut set_up_timed = |report: &mut Report| {
        let span = tracer.begin("setup", 0, 0);
        let t = Instant::now();
        let models = set_up(&locations, &cfg, &tracer, span.map_or(0, |s| s.id()));
        setups.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        report.ok(locations.len() as u64);
        models
    };
    let models = set_up_timed(&mut report);
    let mut first: Option<Vec<Cell>> = None;
    let mut check_round = |cells: Vec<Cell>, report: &mut Report| {
        report.ok(cells.len() as u64);
        let first = first.get_or_insert_with(|| cells.clone());
        report.check("rounds_repeat_exactly", check_round_repeats(first, &cells));
    };
    let (mut reference_s, mut round_s) = (0.0, Vec::new());
    loop {
        if args.trace {
            let t = Instant::now();
            let plain = round(
                &order,
                &systems,
                &locations,
                &models,
                &Telemetry::disabled(),
                &Tracer::disabled(),
                0,
            );
            reference_s += t.elapsed().as_secs_f64();
            check_round(plain, &mut report);
        }
        let span = tracer.begin("round", 0, 0);
        let t = Instant::now();
        let cells = round(
            &order,
            &systems,
            &locations,
            &models,
            &telemetry,
            &tracer,
            span.map_or(0, |s| s.id()),
        );
        round_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        check_round(cells, &mut report);
        if !args.trace {
            let _ = set_up_timed(&mut report);
        }
        if reference_s + round_s.iter().sum::<f64>() >= args.seconds {
            break;
        }
    }
    let first = first.expect("at least one round ran");
    for (name, result) in check_grid(&first) {
        report.check(name, result);
    }
    if args.trace {
        traced_layers(
            args,
            &tracer,
            &telemetry,
            &round_s,
            reference_s,
            &mut report,
        );
        return report;
    }

    let totals = outcomes(&first);
    report.end_to_end(&EndToEnd {
        setup_s: median(&setups).unwrap_or(f64::NAN),
        round_s: median(&round_s).unwrap_or(f64::NAN),
        violation_cmin: totals.violation_cmin,
        energy_kwh: totals.energy_kwh,
    });
    let days: usize = first.iter().map(|c| c.days).sum();
    eprintln!(
        "paper_year: {} rounds of {} annual runs ({days} days each), round s {round_s:.3?}; \
         set-ups s {setups:.3?}; grid PUE {:.4}, mean worst-sensor range {:.3} C",
        round_s.len(),
        first.len(),
        totals.pue,
        totals.range_c,
    );
    report
}

/// The grid's totals: what Figures 8–10 plot, over every simulated
/// container-day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Totals {
    /// Energy-weighted PUE.
    pub pue: f64,
    /// Mean worst-sensor daily range, °C.
    pub range_c: f64,
    /// Total inlet degree-minutes above 30 °C.
    pub violation_cmin: f64,
    /// Cooling plus IT energy, kWh.
    pub energy_kwh: f64,
}

/// Energy-weighted PUE over every simulated container-day, mean
/// worst-sensor daily range over every day, total violation and energy.
#[must_use]
pub fn outcomes(cells: &[Cell]) -> Totals {
    let it: f64 = cells.iter().map(|c| c.it_kwh).sum();
    let cooling: f64 = cells.iter().map(|c| c.cooling_kwh).sum();
    let days: usize = cells.iter().map(|c| c.days).sum();
    Totals {
        pue: (it + cooling) / it + coolair_sim::POWER_DELIVERY_PUE,
        range_c: cells
            .iter()
            .map(|c| c.avg_range * c.days as f64)
            .sum::<f64>()
            / days as f64,
        violation_cmin: cells.iter().map(|c| c.violation_cmin).sum(),
        energy_kwh: it + cooling,
    }
}

fn cell<'a>(cells: &'a [Cell], system: &str, location: &str) -> Result<&'a Cell, String> {
    cells
        .iter()
        .find(|c| c.system == system && c.location == location)
        .ok_or_else(|| format!("grid has no cell {system} @ {location}"))
}

/// `a < b`, false when either is NaN, so a NaN outcome fails its check.
fn below(a: f64, b: f64) -> bool {
    a.partial_cmp(&b) == Some(std::cmp::Ordering::Less)
}

const COOL_SITES: [&str; 3] = ["Newark", "Santiago", "Iceland"];
const WARM_SITES: [&str; 2] = ["Chad", "Singapore"];

/// The Figure 8–10 orderings EXPERIMENTS.md marks reproduced, checked on
/// the benchmark's own grid.
#[must_use]
pub fn check_grid(cells: &[Cell]) -> Vec<(&'static str, Result<(), String>)> {
    let coolair_below_half = || -> Result<(), String> {
        for c in cells.iter().filter(|c| c.system != "Baseline") {
            if !below(c.avg_violation, 0.5) {
                return Err(format!(
                    "{} @ {} averages {:.3} °C",
                    c.system, c.location, c.avg_violation
                ));
            }
        }
        Ok(())
    };
    let baseline_fails_only_warm = || -> Result<(), String> {
        let mut cool_worst = f64::NEG_INFINITY;
        for l in COOL_SITES {
            cool_worst = cool_worst.max(cell(cells, "Baseline", l)?.avg_violation);
        }
        for l in WARM_SITES {
            let v = cell(cells, "Baseline", l)?.avg_violation;
            if !below(cool_worst, v) {
                return Err(format!(
                    "Baseline @ {l} {v:.3} not above cool sites' {cool_worst:.3}"
                ));
            }
        }
        Ok(())
    };
    let variation_cuts_range = || -> Result<(), String> {
        for system in ["Variation", "All-ND"] {
            for l in COOL_SITES {
                let (ours, base) = (
                    cell(cells, system, l)?.avg_range,
                    cell(cells, "Baseline", l)?.avg_range,
                );
                if !below(ours, base) {
                    return Err(format!(
                        "{system} @ {l} range {ours:.2} not below Baseline {base:.2}"
                    ));
                }
            }
        }
        Ok(())
    };
    let variation_costs_energy = || -> Result<(), String> {
        for l in COOL_SITES.iter().chain(WARM_SITES.iter()) {
            let (var, energy) = (
                cell(cells, "Variation", l)?.pue,
                cell(cells, "Energy", l)?.pue,
            );
            if !below(energy, var) {
                return Err(format!(
                    "Variation PUE {var:.3} not above Energy {energy:.3} @ {l}"
                ));
            }
        }
        Ok(())
    };
    let energy_saves_warm = || -> Result<(), String> {
        for l in WARM_SITES {
            let (energy, base) = (
                cell(cells, "Energy", l)?.pue,
                cell(cells, "Baseline", l)?.pue,
            );
            if !below(energy, base) {
                return Err(format!(
                    "Energy PUE {energy:.3} not below Baseline {base:.3} @ {l}"
                ));
            }
        }
        Ok(())
    };
    vec![
        ("fig8_coolair_below_half_degree", coolair_below_half()),
        (
            "fig8_baseline_fails_at_warm_sites",
            baseline_fails_only_warm(),
        ),
        ("fig9_variation_allnd_cut_range", variation_cuts_range()),
        ("fig10_variation_pue_above_energy", variation_costs_energy()),
        ("fig10_energy_pue_below_baseline_warm", energy_saves_warm()),
    ]
}

/// Every round is a pure function of the same inputs, traced or not, so
/// every round must reproduce the first bit for bit.
pub fn check_round_repeats(first: &[Cell], cells: &[Cell]) -> Result<(), String> {
    match first.iter().zip(cells).position(|(a, b)| a != b) {
        None if first.len() == cells.len() => Ok(()),
        None => Err(format!(
            "{} cells against the first round's {}",
            cells.len(),
            first.len()
        )),
        Some(i) => Err(format!("cell {i} differs from the first round's")),
    }
}

/// The traced pass's per-layer metrics, from the spans and the
/// program's own profiler scopes and counters: `round_s` holds the traced
/// rounds' times, `reference_s` the untraced reference rounds' total.
fn traced_layers(
    args: &RunArgs,
    tracer: &Tracer,
    telemetry: &Telemetry,
    round_s: &[f64],
    reference_s: f64,
    report: &mut Report,
) {
    let rounds = round_s.len();
    let spans = tracer.spans();
    crate::write_spans("paper_year", args.seed, &spans);
    let profile = telemetry.profile();
    let metrics = telemetry.metrics();
    let mut l = Layers::new(&spans);
    let scope = |name: &str| profile.scopes.get(name).cloned().unwrap_or_default();
    let (day, decide, select, predict, plant) = (
        scope("engine.run_day"),
        scope("controller.decide"),
        scope("optimizer.select"),
        scope("model.predict_regime"),
        scope("plant.step"),
    );
    let per_round = |n: u64| n as f64 / rounds as f64;
    l.set("weather.tmy_ms", l.mean_ms("weather.tmy"));
    l.set("modeler.train_ms", l.mean_ms("modeler.train"));
    l.set("model.predict_ns", predict.mean_ns() as f64);
    l.set("model.predict_calls", per_round(predict.calls));
    l.set("optimizer.select_us", select.mean_ns() as f64 / 1e3);
    l.set("optimizer.select_calls", per_round(select.calls));
    let (hit, miss) = (
        metrics.counter("optimizer.memo_hit"),
        metrics.counter("optimizer.memo_miss"),
    );
    l.set("optimizer.memo_hit_ratio", layers::ratio(hit, hit + miss));
    l.set("controller.decide_us", decide.mean_ns() as f64 / 1e3);
    l.set("controller.decide_calls", per_round(decide.calls));
    l.set("engine.day_us", day.mean_ns() as f64 / 1e3);
    let engine_self = day
        .total_ns
        .saturating_sub(decide.total_ns + plant.total_ns);
    l.set(
        "engine.self_us",
        layers::ratio(engine_self, day.calls) / 1e3,
    );
    l.set("plant.step_ns", plant.mean_ns() as f64);
    l.set("plant.step_calls", per_round(plant.calls));

    // Top-level self times: the spans the benchmark opened, split further
    // by the program's own profiler scopes nested inside `sim.annual`.
    l.share("self.weather_pct", l.total_ns("weather.tmy"));
    l.share("self.modeler_pct", l.total_ns("modeler.train"));
    l.share(
        "self.annual_pct",
        l.total_ns("sim.annual").saturating_sub(day.total_ns),
    );
    l.share("self.engine_pct", engine_self);
    l.share(
        "self.manager_pct",
        decide.total_ns.saturating_sub(predict.total_ns),
    );
    l.share("self.ml_pct", predict.total_ns);
    l.share("self.thermal_pct", plant.total_ns);
    let traced_s: f64 = round_s.iter().sum();
    l.finish(report, reference_s, traced_s);
    eprintln!(
        "paper_year traced: {rounds} round pairs, untraced {reference_s:.2} s, traced {traced_s:.2} s"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figures 8–10 as EXPERIMENTS.md records them (violation, range, PUE).
    fn paper_grid() -> Vec<Cell> {
        type Row = (&'static str, [(f64, f64, f64); 5]);
        let table: [Row; 6] = [
            (
                "Baseline",
                [
                    (0.030, 12.1, 1.129),
                    (0.388, 11.2, 1.471),
                    (0.0, 11.9, 1.103),
                    (0.0, 14.3, 1.081),
                    (0.352, 7.7, 1.414),
                ],
            ),
            (
                "Temperature",
                [
                    (0.002, 11.7, 1.115),
                    (0.133, 8.3, 1.398),
                    (0.0, 11.7, 1.084),
                    (0.0, 14.8, 1.081),
                    (0.152, 7.8, 1.331),
                ],
            ),
            (
                "Energy",
                [
                    (0.015, 12.2, 1.102),
                    (0.307, 8.3, 1.362),
                    (0.0, 12.2, 1.082),
                    (0.0, 15.4, 1.081),
                    (0.227, 6.7, 1.256),
                ],
            ),
            (
                "Variation",
                [
                    (0.048, 4.5, 1.197),
                    (0.170, 7.7, 1.398),
                    (0.004, 5.5, 1.199),
                    (0.0, 4.5, 1.249),
                    (0.165, 6.5, 1.288),
                ],
            ),
            (
                "All-ND",
                [
                    (0.048, 4.7, 1.136),
                    (0.260, 8.0, 1.382),
                    (0.001, 4.8, 1.112),
                    (0.0, 4.8, 1.138),
                    (0.228, 6.3, 1.271),
                ],
            ),
            (
                "All-ND+SV",
                [
                    (0.048, 4.7, 1.136),
                    (0.260, 8.0, 1.382),
                    (0.001, 4.8, 1.112),
                    (0.0, 4.8, 1.138),
                    (0.228, 6.3, 1.271),
                ],
            ),
        ];
        let locations = ["Newark", "Chad", "Santiago", "Iceland", "Singapore"];
        table
            .iter()
            .flat_map(|(system, row)| {
                row.iter().zip(locations).map(|(&(v, r, p), l)| Cell {
                    system: (*system).to_string(),
                    location: l.to_string(),
                    avg_violation: v,
                    avg_range: r,
                    pue: p,
                    days: 13,
                    it_kwh: 100.0,
                    cooling_kwh: (p - 1.08) * 100.0,
                    violation_cmin: v * 13.0 * 1440.0,
                })
            })
            .collect()
    }

    fn set(cells: &mut [Cell], system: &str, location: &str, f: impl Fn(&mut Cell)) {
        f(cells
            .iter_mut()
            .find(|c| c.system == system && c.location == location)
            .unwrap());
    }

    fn failing(cells: &[Cell]) -> Vec<&'static str> {
        check_grid(cells)
            .into_iter()
            .filter(|(_, r)| r.is_err())
            .map(|(n, _)| n)
            .collect()
    }

    #[test]
    fn the_papers_own_grid_passes_every_check() {
        assert!(
            failing(&paper_grid()).is_empty(),
            "{:?}",
            failing(&paper_grid())
        );
    }

    #[test]
    fn each_check_rejects_a_corrupted_grid() {
        type Case = (&'static str, &'static str, &'static str, fn(&mut Cell));
        let cases: [Case; 5] = [
            ("fig8_coolair_below_half_degree", "Energy", "Chad", |c| {
                c.avg_violation = 0.6
            }),
            (
                "fig8_baseline_fails_at_warm_sites",
                "Baseline",
                "Newark",
                |c| c.avg_violation = 0.4,
            ),
            ("fig9_variation_allnd_cut_range", "All-ND", "Iceland", |c| {
                c.avg_range = 15.0
            }),
            (
                "fig10_variation_pue_above_energy",
                "Variation",
                "Chad",
                |c| c.pue = 1.30,
            ),
            (
                "fig10_energy_pue_below_baseline_warm",
                "Baseline",
                "Singapore",
                |c| c.pue = 1.20,
            ),
        ];
        for (check, system, location, corrupt) in cases {
            let mut grid = paper_grid();
            set(&mut grid, system, location, corrupt);
            assert_eq!(
                failing(&grid),
                vec![check],
                "corrupting {system} @ {location}"
            );
        }
        let missing: Vec<Cell> = paper_grid()
            .into_iter()
            .filter(|c| c.location != "Chad")
            .collect();
        assert!(failing(&missing).len() >= 3);
    }

    #[test]
    fn round_repeat_check_rejects_a_drifted_round() {
        let a = paper_grid();
        let mut b = a.clone();
        assert!(check_round_repeats(&a, &b).is_ok());
        b[7].pue += 1e-12;
        assert!(check_round_repeats(&a, &b).is_err());
        assert!(check_round_repeats(&a, &a[1..]).is_err());
    }

    #[test]
    fn outcomes_weight_by_energy_and_days() {
        let grid = paper_grid();
        let totals = outcomes(&grid);
        let mean_pue = grid.iter().map(|c| c.pue).sum::<f64>() / grid.len() as f64;
        assert!(
            (totals.pue - mean_pue).abs() < 1e-9,
            "equal IT energy → plain mean: {} vs {mean_pue}",
            totals.pue
        );
        let mean_range = grid.iter().map(|c| c.avg_range).sum::<f64>() / grid.len() as f64;
        assert!((totals.range_c - mean_range).abs() < 1e-9);
        assert!(totals.violation_cmin > 0.0);
        let energy: f64 = grid.iter().map(|c| c.it_kwh + c.cooling_kwh).sum();
        assert!((totals.energy_kwh - energy).abs() < 1e-9);
    }
}
