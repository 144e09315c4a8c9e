//! The Cooling Manager (§3.2): temperature-band selection, the Cooling
//! Predictor, the utility function, and the Cooling Optimizer.

pub mod band;
pub mod configurer;
pub mod optimizer;
pub mod predictor;
pub mod supervisor;
pub mod utility;

pub use band::TempBand;
pub use configurer::ParasolConfigurer;
pub use optimizer::{CoolingOptimizer, Decision, SelectError};
pub use predictor::{predict_regime, Prediction, PredictionContext};
pub use supervisor::{SupervisedCoolAir, SupervisorConfig, SupervisorMode, SupervisorTelemetry};
pub use utility::utility_penalty;
