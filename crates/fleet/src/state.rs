//! The fleet's structure-of-arrays container state.
//!
//! [`FleetState`] keeps one contiguous array per attribute (site, load
//! flag, accumulated energy/violation) instead of a `Vec<Container>` of
//! structs, mirroring the `PlantBank` lane layout one level down. The
//! batched stepping path groups containers into **lanes** — (site, loaded)
//! classes whose members are bit-identical — so a 512-container fleet over
//! 4 sites costs at most 8 lane evaluations per epoch, not 512.

use coolair_runner::SplitMix64;
use serde::{Deserialize, Serialize};

use crate::jobs::LaneEval;
use crate::spec::FleetSpec;

/// One batch-load migration the global manager committed at an epoch
/// boundary (aggregated per site pair).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// Decision epoch (0-based; epoch 0 never migrates — it runs the
    /// initial placement).
    pub epoch: u64,
    /// Source site index into [`FleetSpec::sites`].
    pub from: usize,
    /// Destination site index.
    pub to: usize,
    /// Containers whose deferrable load moved.
    pub containers: u64,
    /// Migrated deferrable energy in MWh (containers × deferrable power ×
    /// epoch length).
    pub mwh: f64,
}

/// Structure-of-arrays state for every container in the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetState {
    /// Site index per container (parallel arrays throughout).
    site: Vec<u16>,
    /// Whether the container currently carries deferrable batch load.
    loaded: Vec<bool>,
    /// Accumulated thermal violation, °C·min.
    violation: Vec<f64>,
    /// Accumulated cooling energy, kWh.
    cooling_kwh: Vec<f64>,
    /// Accumulated IT energy, kWh.
    it_kwh: Vec<f64>,
    /// Accumulated completed trace jobs.
    jobs: Vec<u64>,
}

impl FleetState {
    /// Builds the initial placement for a spec: container `i` lives at site
    /// `i % sites`, and a seeded partial shuffle picks which containers
    /// start loaded (so the loaded set is deterministic in `spec.seed` but
    /// not just "the first k").
    #[must_use]
    pub fn initial(spec: &FleetSpec) -> Self {
        let n = spec.containers;
        let sites = spec.sites.len().max(1);
        let site = (0..n).map(|i| (i % sites) as u16).collect();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SplitMix64::new(spec.seed);
        // Partial Fisher-Yates: only the prefix we take needs shuffling.
        let k = spec.loaded_total();
        for i in 0..k.min(n.saturating_sub(1)) {
            let j = i + rng.below(n - i);
            order.swap(i, j);
        }
        let mut loaded = vec![false; n];
        for &i in order.iter().take(k) {
            loaded[i] = true;
        }
        FleetState {
            site,
            loaded,
            violation: vec![0.0; n],
            cooling_kwh: vec![0.0; n],
            it_kwh: vec![0.0; n],
            jobs: vec![0; n],
        }
    }

    /// Containers in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.site.len()
    }

    /// `true` when the fleet has no containers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.site.is_empty()
    }

    /// Site index of container `i`.
    #[must_use]
    pub fn site(&self, i: usize) -> usize {
        self.site[i] as usize
    }

    /// Whether container `i` currently carries batch load.
    #[must_use]
    pub fn loaded(&self, i: usize) -> bool {
        self.loaded[i]
    }

    /// Total loaded containers (the conserved quantity under migration).
    #[must_use]
    pub fn loaded_count(&self) -> usize {
        self.loaded.iter().filter(|&&l| l).count()
    }

    /// Loaded containers per site.
    #[must_use]
    pub fn loaded_per_site(&self, sites: usize) -> Vec<usize> {
        let mut counts = vec![0usize; sites];
        for (s, &l) in self.site.iter().zip(&self.loaded) {
            if l {
                counts[*s as usize] += 1;
            }
        }
        counts
    }

    /// Containers per site (loaded or not).
    #[must_use]
    pub fn containers_per_site(&self, sites: usize) -> Vec<usize> {
        let mut counts = vec![0usize; sites];
        for &s in &self.site {
            counts[s as usize] += 1;
        }
        counts
    }

    /// Lane census: how many containers occupy each (site, loaded) class.
    /// Entry `[2 * s]` counts light containers at site `s`, `[2 * s + 1]`
    /// loaded ones. This is the batching map: one evaluation per non-empty
    /// lane covers the whole fleet.
    #[must_use]
    pub fn lane_census(&self, sites: usize) -> Vec<usize> {
        let mut counts = vec![0usize; 2 * sites];
        for (s, &l) in self.site.iter().zip(&self.loaded) {
            counts[2 * (*s as usize) + usize::from(l)] += 1;
        }
        counts
    }

    /// Moves one container's batch load from `from_site` to `to_site`:
    /// clears the lowest-index loaded container at the source and sets the
    /// lowest-index light container at the destination. Returns `false`
    /// (and changes nothing) if either side has no candidate.
    pub fn apply_move(&mut self, from_site: usize, to_site: usize) -> bool {
        let src = self
            .site
            .iter()
            .zip(&self.loaded)
            .position(|(&s, &l)| s as usize == from_site && l);
        let dst = self
            .site
            .iter()
            .zip(&self.loaded)
            .position(|(&s, &l)| s as usize == to_site && !l);
        match (src, dst) {
            (Some(src), Some(dst)) => {
                self.loaded[src] = false;
                self.loaded[dst] = true;
                true
            }
            _ => false,
        }
    }

    /// Folds one lane evaluation into every container currently in that
    /// lane (same site, same load class).
    pub fn absorb_lane(&mut self, lane_site: usize, lane_loaded: bool, eval: &LaneEval) {
        for i in 0..self.site.len() {
            if self.site[i] as usize == lane_site && self.loaded[i] == lane_loaded {
                self.violation[i] += eval.violation_cmin;
                self.cooling_kwh[i] += eval.cooling_kwh;
                self.it_kwh[i] += eval.it_kwh;
                self.jobs[i] += eval.jobs_completed;
            }
        }
    }

    /// Per-site accumulated totals: `(violation °C·min, cooling kWh, IT
    /// kWh, jobs)` summed over each site's containers.
    #[must_use]
    pub fn site_totals(&self, sites: usize) -> Vec<(f64, f64, f64, u64)> {
        let mut totals = vec![(0.0, 0.0, 0.0, 0u64); sites];
        for i in 0..self.site.len() {
            let t = &mut totals[self.site[i] as usize];
            t.0 += self.violation[i];
            t.1 += self.cooling_kwh[i];
            t.2 += self.it_kwh[i];
            t.3 += self.jobs[i];
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(v: f64, c: f64, it: f64, j: u64) -> LaneEval {
        LaneEval { days: 1, violation_cmin: v, cooling_kwh: c, it_kwh: it, jobs_completed: j }
    }

    #[test]
    fn initial_placement_is_seeded_and_balanced() {
        let spec = FleetSpec::smoke(9);
        let a = FleetState::initial(&spec);
        let b = FleetState::initial(&spec);
        assert_eq!(a, b, "same seed, same placement");
        assert_eq!(a.len(), spec.containers);
        assert_eq!(a.loaded_count(), spec.loaded_total());
        assert_eq!(a.containers_per_site(spec.sites.len()), vec![2, 2]);
        // A different seed is allowed to pick a different loaded subset;
        // over many seeds at least one must differ from seed 9's.
        let moved = (0..32).any(|s| {
            let mut other = spec.clone();
            other.seed = 1000 + s;
            FleetState::initial(&other).loaded != a.loaded
        });
        assert!(moved, "placement never varied with the seed");
    }

    #[test]
    fn moves_conserve_load_and_respect_candidates() {
        let spec = FleetSpec::smoke(9);
        let mut state = FleetState::initial(&spec);
        let before = state.loaded_count();
        let from = state
            .loaded_per_site(2)
            .iter()
            .position(|&c| c > 0)
            .expect("some site holds load");
        let to = 1 - from;
        if state.loaded_per_site(2)[to] < state.containers_per_site(2)[to] {
            assert!(state.apply_move(from, to));
        }
        assert_eq!(state.loaded_count(), before, "moves conserve loaded count");
        // Draining the source makes further moves from it fail.
        while state.apply_move(from, to) {}
        assert_eq!(state.loaded_per_site(2)[from], 0);
        assert!(!state.apply_move(from, to));
        assert_eq!(state.loaded_count(), before);
    }

    #[test]
    fn lane_census_covers_every_container() {
        let spec = FleetSpec::smoke(9);
        let state = FleetState::initial(&spec);
        let census = state.lane_census(2);
        assert_eq!(census.iter().sum::<usize>(), state.len());
        let loaded: usize = census.iter().skip(1).step_by(2).sum();
        assert_eq!(loaded, state.loaded_count());
    }

    #[test]
    fn absorb_lane_targets_only_the_lane() {
        let spec = FleetSpec::smoke(9);
        let mut state = FleetState::initial(&spec);
        let census = state.lane_census(2);
        state.absorb_lane(0, true, &eval(1.0, 10.0, 20.0, 3));
        let totals = state.site_totals(2);
        let loaded_at_0 = census[1] as f64;
        assert!((totals[0].1 - 10.0 * loaded_at_0).abs() < 1e-12);
        assert_eq!(totals[1].1, 0.0, "site 1 untouched");
    }
}
