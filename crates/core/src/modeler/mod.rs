//! The Cooling Modeler (§3.1, §4.2).
//!
//! Collects monitoring data under the default (TKS) cooling controller —
//! with deliberately generated extreme situations to enrich the dataset —
//! and learns:
//!
//! - one linear temperature model per pod sensor, per cooling regime and
//!   per transition between regimes;
//! - one linear absolute-humidity model per regime/transition;
//! - a cooling-power model per regime (piecewise-linear M5P over fan and
//!   compressor speed for regimes where power varies);
//! - the pods' heat-recirculation ranking, observed from inlet-temperature
//!   behaviour.
//!
//! "The Cooling Modeler runs offline and only once, after enough data has
//! been collected under the default cooling controller."

pub mod features;
mod model;
mod train;

pub use model::{CoolingModel, RegimeModels, StepModels};
pub use train::{train_cooling_model, TrainingConfig};
