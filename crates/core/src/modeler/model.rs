//! The learned Cooling Model.

use coolair_ml::{LinearModel, ModelTree, Regressor};
use coolair_thermal::{ModelKey, PodId, RegimeClass};
use serde::{Deserialize, Serialize};

use super::features;

/// Cooling-power model: piecewise-linear where power varies with speed,
/// constant otherwise ("we model it as a constant amount drawn in each
/// regime … per each fan speed", §3.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PowerModel {
    /// An M5P model tree over `[fan, compressor]`.
    Tree(ModelTree),
    /// A constant draw in watts.
    Constant(f64),
}

impl PowerModel {
    /// Predicted cooling power, W.
    #[must_use]
    pub fn predict(&self, fan: f64, compressor: f64) -> f64 {
        match self {
            PowerModel::Tree(t) => t.predict(&features::power_features(fan, compressor)).max(0.0),
            PowerModel::Constant(w) => *w,
        }
    }
}

/// All models for one [`ModelKey`] (regime or transition).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegimeModels {
    /// Temperature model per pod sensor.
    pub pod_temp: Vec<LinearModel>,
    /// Absolute-humidity model for the cold-aisle sensor.
    pub humidity: LinearModel,
    /// Cooling-power model.
    pub power: PowerModel,
    /// Training rows behind these models (for diagnostics).
    pub samples: usize,
}

/// Regime classes, and so steady keys.
const CLASSES: usize = RegimeClass::ALL.len();

/// Entries of the dense model table: the steady keys, then one transition
/// per ordered pair of classes.
const KEY_SLOTS: usize = CLASSES + CLASSES * CLASSES;

/// Where `key`'s models live in the dense table: the steady keys first, in
/// [`RegimeClass::ALL`] order, then the transitions row-major by
/// `(from, to)`.
fn slot(key: ModelKey) -> usize {
    match key {
        ModelKey::Steady(class) => class as usize,
        ModelKey::Transition(from, to) => CLASSES + from as usize * CLASSES + to as usize,
    }
}

/// The key stored at table entry `slot` (the inverse of [`slot`]).
fn key_at(slot: usize) -> ModelKey {
    if slot < CLASSES {
        ModelKey::Steady(RegimeClass::ALL[slot])
    } else {
        let pair = slot - CLASSES;
        ModelKey::Transition(RegimeClass::ALL[pair / CLASSES], RegimeClass::ALL[pair % CLASSES])
    }
}

/// The complete learned Cooling Model: per-regime and per-transition
/// temperature/humidity/power models plus the recirculation ranking.
///
/// The models sit in a dense table indexed by [`ModelKey`] (one entry per
/// possible key, empty where training produced none), so a prediction
/// resolves its models with an index, not a hash lookup.
///
/// Serialises through a pair-list representation so the model can be saved
/// as JSON (JSON object keys must be strings, which [`ModelKey`] is not).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(from = "CoolingModelRepr", into = "CoolingModelRepr")]
pub struct CoolingModel {
    /// `KEY_SLOTS` entries, indexed by [`slot`].
    models: Vec<Option<RegimeModels>>,
    recirc_ranking: Vec<PodId>,
    pods: usize,
}

/// On-disk representation of [`CoolingModel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CoolingModelRepr {
    models: Vec<(ModelKey, RegimeModels)>,
    recirc_ranking: Vec<PodId>,
    pods: usize,
}

impl From<CoolingModel> for CoolingModelRepr {
    fn from(m: CoolingModel) -> Self {
        let mut models: Vec<(ModelKey, RegimeModels)> = m
            .models
            .into_iter()
            .enumerate()
            .filter_map(|(slot, models)| Some((key_at(slot), models?)))
            .collect();
        models.sort_by_key(|(k, _)| format!("{k}"));
        CoolingModelRepr { models, recirc_ranking: m.recirc_ranking, pods: m.pods }
    }
}

impl From<CoolingModelRepr> for CoolingModel {
    fn from(r: CoolingModelRepr) -> Self {
        CoolingModel {
            models: table(r.models),
            recirc_ranking: r.recirc_ranking,
            pods: r.pods,
        }
    }
}

/// The dense table holding `models`; a key listed twice keeps its last
/// entry.
fn table(models: impl IntoIterator<Item = (ModelKey, RegimeModels)>) -> Vec<Option<RegimeModels>> {
    let mut table = vec![None; KEY_SLOTS];
    for (key, m) in models {
        table[slot(key)] = Some(m);
    }
    table
}

impl CoolingModel {
    /// Assembles a model from fitted parts.
    ///
    /// # Panics
    ///
    /// Panics if no steady-state model is present, if the ranking length
    /// disagrees with the pod count, or any entry has the wrong number of
    /// pod models.
    #[must_use]
    pub fn new(
        models: impl IntoIterator<Item = (ModelKey, RegimeModels)>,
        recirc_ranking: Vec<PodId>,
        pods: usize,
    ) -> Self {
        let model = CoolingModel { models: table(models), recirc_ranking, pods };
        assert!(
            model.keys().any(|k| matches!(k, ModelKey::Steady(_))),
            "need at least one steady-state model"
        );
        assert_eq!(model.recirc_ranking.len(), pods, "ranking must cover all pods");
        for k in model.keys() {
            let m = model.models_for(k).expect("listed key");
            assert_eq!(m.pod_temp.len(), pods, "model {k} has wrong pod arity");
        }
        model
    }

    /// Number of pod sensors the model covers.
    #[must_use]
    pub fn pods(&self) -> usize {
        self.pods
    }

    /// Pods ranked by descending heat-recirculation potential — the ranking
    /// the Compute Optimizer uses for spatial placement (§3.3).
    #[must_use]
    pub fn recirc_ranking(&self) -> &[PodId] {
        &self.recirc_ranking
    }

    /// Keys with fitted models, steady keys first.
    pub fn keys(&self) -> impl Iterator<Item = ModelKey> + '_ {
        self.models.iter().enumerate().filter(|(_, m)| m.is_some()).map(|(slot, _)| key_at(slot))
    }

    /// The models fitted for exactly `key`.
    fn fitted(&self, key: ModelKey) -> Option<&RegimeModels> {
        self.models[slot(key)].as_ref()
    }

    /// The models for `key`, falling back from a missing transition model to
    /// the destination regime's steady model (rare transitions may not have
    /// enough training data).
    #[must_use]
    pub fn models_for(&self, key: ModelKey) -> Option<&RegimeModels> {
        if let Some(m) = self.fitted(key) {
            return Some(m);
        }
        if let ModelKey::Transition(_, to) = key {
            return self.fitted(ModelKey::Steady(to));
        }
        None
    }

    /// Resolves the models for `key` once, for a caller that predicts
    /// every pod and the humidity sensor under the same key.
    #[must_use]
    pub fn step_models(&self, key: ModelKey) -> StepModels<'_> {
        StepModels(self.models_for(key))
    }

    /// Predicts pod `pod`'s temperature one model step ahead. Falls back to
    /// persistence (no change) when no model covers `key`.
    #[must_use]
    pub fn predict_temp(&self, key: ModelKey, pod: PodId, x: &[f64; features::TEMP_FEATURES]) -> f64 {
        self.step_models(key).temp(pod, x)
    }

    /// Predicts cold-aisle absolute humidity one step ahead (g/kg).
    #[must_use]
    pub fn predict_humidity(&self, key: ModelKey, x: &[f64; features::HUM_FEATURES]) -> f64 {
        self.step_models(key).humidity(x)
    }

    /// Predicts cooling power (W) in the regime class of `key` at the given
    /// fan/compressor settings.
    #[must_use]
    pub fn predict_power(&self, class: RegimeClass, fan: f64, compressor: f64) -> f64 {
        match self.fitted(ModelKey::Steady(class)) {
            Some(m) => m.power.predict(fan, compressor),
            None => 0.0,
        }
    }
}

/// The models of one [`ModelKey`], looked up once (see
/// [`CoolingModel::step_models`]).
#[derive(Debug, Clone, Copy)]
pub struct StepModels<'a>(Option<&'a RegimeModels>);

impl StepModels<'_> {
    /// Pod `pod`'s temperature one model step ahead; persistence (no
    /// change) when no model covers the key.
    #[must_use]
    pub fn temp(self, pod: PodId, x: &[f64; features::TEMP_FEATURES]) -> f64 {
        match self.0 {
            Some(m) => m.pod_temp[pod.index()].predict(x),
            None => x[0], // persistence fallback
        }
    }

    /// Cold-aisle absolute humidity one step ahead (g/kg).
    #[must_use]
    pub fn humidity(self, x: &[f64; features::HUM_FEATURES]) -> f64 {
        match self.0 {
            Some(m) => m.humidity.predict(x).max(0.0),
            None => x[0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial_models(pods: usize) -> RegimeModels {
        RegimeModels {
            pod_temp: (0..pods)
                .map(|_| {
                    // persistence: T' = T
                    let mut coeffs = vec![0.0; features::TEMP_FEATURES];
                    coeffs[0] = 1.0;
                    LinearModel::from_parts(0.0, coeffs)
                })
                .collect(),
            humidity: {
                let mut coeffs = vec![0.0; features::HUM_FEATURES];
                coeffs[0] = 1.0;
                LinearModel::from_parts(0.0, coeffs)
            },
            power: PowerModel::Constant(100.0),
            samples: 10,
        }
    }

    fn model() -> CoolingModel {
        let models = [
            (ModelKey::Steady(RegimeClass::Closed), trivial_models(4)),
            (ModelKey::Steady(RegimeClass::FreeCooling), trivial_models(4)),
        ];
        CoolingModel::new(models, vec![PodId(0), PodId(1), PodId(2), PodId(3)], 4)
    }

    #[test]
    fn transition_falls_back_to_destination() {
        let m = model();
        let key = ModelKey::Transition(RegimeClass::Closed, RegimeClass::FreeCooling);
        assert!(m.models_for(key).is_some());
        let missing = ModelKey::Transition(RegimeClass::Closed, RegimeClass::AcCompressorOn);
        assert!(m.models_for(missing).is_none());
    }

    #[test]
    fn persistence_fallback_when_unknown() {
        let m = model();
        let x = features::temp_features(27.0, 26.0, 10.0, 10.0, 0.0, 0.0, 0.5);
        let t = m.predict_temp(ModelKey::Steady(RegimeClass::AcCompressorOn), PodId(0), &x);
        assert_eq!(t, 27.0);
    }

    #[test]
    fn predictions_route_to_models() {
        let m = model();
        let x = features::temp_features(25.0, 24.0, 10.0, 10.0, 0.5, 0.5, 0.3);
        assert_eq!(m.predict_temp(ModelKey::Steady(RegimeClass::Closed), PodId(1), &x), 25.0);
        let h = features::humidity_features(7.0, 9.0, 0.5);
        assert_eq!(m.predict_humidity(ModelKey::Steady(RegimeClass::Closed), &h), 7.0);
        assert_eq!(m.predict_power(RegimeClass::Closed, 0.0, 0.0), 100.0);
        assert_eq!(m.predict_power(RegimeClass::AcCompressorOn, 0.0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "steady-state")]
    fn rejects_model_without_steady() {
        let models = [(
            ModelKey::Transition(RegimeClass::Closed, RegimeClass::FreeCooling),
            trivial_models(4),
        )];
        let _ = CoolingModel::new(models, vec![PodId(0), PodId(1), PodId(2), PodId(3)], 4);
    }

    #[test]
    fn every_key_has_its_own_table_slot() {
        let mut keys: Vec<ModelKey> =
            RegimeClass::ALL.iter().map(|&c| ModelKey::Steady(c)).collect();
        for from in RegimeClass::ALL {
            keys.extend(RegimeClass::ALL.iter().map(|&to| ModelKey::Transition(from, to)));
        }
        assert_eq!(keys.len(), KEY_SLOTS);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(slot(key), i, "{key}");
            assert_eq!(key_at(i), key);
        }
    }

    #[test]
    fn power_model_variants() {
        assert_eq!(PowerModel::Constant(135.0).predict(0.5, 0.0), 135.0);
    }

    #[test]
    fn json_round_trip() {
        let m = model();
        let json = serde_json::to_string(&m).expect("serialise");
        let back: CoolingModel = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back.pods(), m.pods());
        assert_eq!(back.recirc_ranking(), m.recirc_ranking());
        let x = features::temp_features(25.0, 24.0, 10.0, 10.0, 0.5, 0.5, 0.3);
        assert_eq!(
            back.predict_temp(ModelKey::Steady(RegimeClass::Closed), PodId(1), &x),
            m.predict_temp(ModelKey::Steady(RegimeClass::Closed), PodId(1), &x),
        );
    }
}
