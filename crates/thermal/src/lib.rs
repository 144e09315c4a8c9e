//! The Parasol free-cooled container plant: physics, cooling regimes, and
//! the commercial TKS controller.
//!
//! The paper evaluates CoolAir on Parasol, a real container datacenter that
//! combines free cooling with a DX air conditioner (§4.1). We do not have
//! the hardware, so this crate implements a lumped-parameter physical model
//! of the container that reproduces Parasol's documented dynamics:
//!
//! - free cooling drives the cold aisle toward outside temperature at a rate
//!   proportional to fan speed (opening up at the 15 % minimum speed drops
//!   the inlet ~9 °C in ~12 minutes when it is much colder outside);
//! - closing the container raises temperatures through recirculation around
//!   the partitions (a *feature* used to warm up or dry the air);
//! - the AC injects ~12 °C supply air through a duct and condenses moisture
//!   on its coil; the compressor is all-or-nothing on Parasol;
//! - pods differ in their exposure to heat recirculation, which is exactly
//!   the ranking CoolAir's spatial placement exploits;
//! - cooling power: the free-cooling fan draws 8–425 W cubically in speed,
//!   the AC draws 135 W (fan only) or 2.2 kW (compressor on).
//!
//! The same plant, parameterised with the *smooth* infrastructure of §5.1
//! (fine-grained fan ramp from 1 %, variable-speed compressor), backs the
//! paper's Smooth-Sim.
//!
//! # Example: a day of free cooling
//!
//! ```
//! use coolair_thermal::{Plant, PlantConfig, CoolingRegime, ItLoad, OutsideConditions};
//! use coolair_units::{Celsius, FanSpeed, SimDuration, Watts, AbsoluteHumidity};
//!
//! let mut plant = Plant::new(PlantConfig::parasol());
//! let outside = OutsideConditions {
//!     temperature: Celsius::new(15.0),
//!     abs_humidity: AbsoluteHumidity::new(6.0),
//! };
//! let it_load = ItLoad::uniform(4, Watts::new(400.0), 1.0);
//! let fc = CoolingRegime::free_cooling(FanSpeed::new(0.5)?);
//! for _ in 0..240 {
//!     plant.step(SimDuration::from_secs(15), outside, &it_load, fc);
//! }
//! let readings = plant.readings(coolair_units::SimTime::EPOCH);
//! // Cold aisle tracks outside plus a small offset.
//! assert!(readings.max_inlet().value() < 25.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod plant;
mod pods;
mod power;
mod regime;
mod sensor;
mod server;
mod tks;

pub use plant::{ItLoad, OutsideConditions, Plant, PlantBank, PlantConfig, PlantSample};
pub use pods::{PodId, PodLayout, PodSpec, PODS, SERVERS_PER_POD, TOTAL_SERVERS};
pub use power::cooling_power;
pub use regime::{CoolingRegime, Infrastructure, ModelKey, RegimeClass};
pub use sensor::SensorReadings;
pub use server::{server_power, SERVER_ACTIVE_IDLE_W, SERVER_ACTIVE_PEAK_W, SERVER_SLEEP_W};
pub use tks::{TksConfig, TksController, TksMode};
