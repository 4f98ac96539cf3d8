#![forbid(unsafe_code)]
//! Shared workload builders for the Vita benchmark and experiment harness.
//!
//! Every experiment in DESIGN.md §4 (F1–F4, D5, E1–E10) builds its world
//! through these helpers so that benches (`benches/e*.rs`) and the
//! measurement binary (`src/bin/experiments.rs`) agree on the workload.

use vita_devices::{deploy, DeploymentModel, DeviceRegistry, DeviceSpec, DeviceType};
use vita_indoor::{build_environment, BuildParams, FloorId, Hz, IndoorEnvironment, Timestamp};
use vita_mobility::{generate, GenerationResult, LifespanConfig, MobilityConfig};
use vita_rssi::{generate_rssi, NoiseModel, PathLossModel, RssiConfig, RssiStore};

/// Build the standard office environment with `floors` floors.
pub fn office_env(floors: usize) -> IndoorEnvironment {
    let model = vita_dbi::office(&vita_dbi::SynthParams::with_floors(floors));
    build_environment(&model, &BuildParams::default())
        .expect("office build")
        .env
}

/// Build the standard mall environment.
pub fn mall_env(floors: usize) -> IndoorEnvironment {
    let model = vita_dbi::mall(&vita_dbi::SynthParams::with_floors(floors));
    build_environment(&model, &BuildParams::default())
        .expect("mall build")
        .env
}

/// Deploy `n` devices of `dtype` with `model` on floor 0, using a spec with
/// the given detection range override (None keeps the default).
pub fn deploy_floor0(
    env: &IndoorEnvironment,
    dtype: DeviceType,
    model: DeploymentModel,
    n: usize,
    range_override: Option<f64>,
) -> DeviceRegistry {
    let mut spec = DeviceSpec::default_for(dtype);
    if let Some(r) = range_override {
        spec.detection_range = r;
    }
    let mut reg = DeviceRegistry::new();
    deploy(env, &mut reg, spec, FloorId(0), model, n);
    reg
}

/// Standard mobility configuration: `objects` objects alive for the whole
/// `secs`-second run, sampling at `hz`.
pub fn mobility_cfg(objects: usize, secs: u64, hz: f64, seed: u64) -> MobilityConfig {
    MobilityConfig {
        object_count: objects,
        duration: Timestamp(secs * 1000),
        lifespan: LifespanConfig {
            min: Timestamp(secs * 1000),
            max: Timestamp(secs * 1000),
        },
        trajectory_hz: Hz(hz),
        seed,
        ..Default::default()
    }
}

/// Generate trajectories for the standard workload.
pub fn gen_trajectories(
    env: &IndoorEnvironment,
    objects: usize,
    secs: u64,
    hz: f64,
    seed: u64,
) -> GenerationResult {
    generate(env, &mobility_cfg(objects, secs, hz, seed)).expect("generation")
}

/// Standard RSSI configuration with Gaussian noise `sigma`.
pub fn rssi_cfg(secs: u64, sigma: f64) -> RssiConfig {
    RssiConfig {
        path_loss: PathLossModel {
            fluctuation: if sigma <= 0.0 {
                NoiseModel::None
            } else {
                NoiseModel::Gaussian { sigma }
            },
            ..Default::default()
        },
        duration: Timestamp(secs * 1000),
        ..Default::default()
    }
}

/// Generate the standard raw RSSI store.
pub fn gen_rssi(
    env: &IndoorEnvironment,
    reg: &DeviceRegistry,
    gen: &GenerationResult,
    secs: u64,
    sigma: f64,
) -> RssiStore {
    generate_rssi(env, reg, &gen.trajectories, &rssi_cfg(secs, sigma))
}

/// A complete Wi-Fi workload on the single-floor office: environment,
/// devices (coverage model), trajectories and raw RSSI.
pub struct Workload {
    pub env: IndoorEnvironment,
    pub devices: DeviceRegistry,
    pub generation: GenerationResult,
    pub rssi: RssiStore,
    pub secs: u64,
}

/// Build the canonical E3 workload.
pub fn standard_workload(objects: usize, device_count: usize, secs: u64, sigma: f64) -> Workload {
    let env = office_env(1);
    let devices = deploy_floor0(
        &env,
        DeviceType::WiFi,
        DeploymentModel::Coverage,
        device_count,
        None,
    );
    let generation = gen_trajectories(&env, objects, secs, 2.0, 0xE3);
    let rssi = gen_rssi(&env, &devices, &generation, secs, sigma);
    Workload {
        env,
        devices,
        generation,
        rssi,
        secs,
    }
}

/// The E11 end-to-end workload — office (2 floors), 10 Wi-Fi APs with the
/// coverage model on floor 0, trilateration — shared by the criterion
/// bench (`benches/e11_end_to_end.rs`) and the experiments bin so both
/// always measure the same scenario. Callers pick the scale
/// (objects × seconds); everything else, including the seed, is pinned
/// here.
pub mod e11 {
    use vita_core::{ScenarioConfig, StreamOptions, Vita};
    use vita_devices::{DeploymentModel, DeviceSpec, DeviceType};
    use vita_indoor::{BuildParams, FloorId, Timestamp};
    use vita_mobility::{LifespanConfig, MobilityConfig};
    use vita_positioning::{MethodConfig, TrilaterationConfig};
    use vita_rssi::{PathLossModel, RssiConfig};

    pub const SEED: u64 = 0xE11;

    pub fn office_text() -> String {
        vita_dbi::write_step(&vita_dbi::office(&vita_dbi::SynthParams::with_floors(2)))
    }

    pub fn toolkit(text: &str) -> Vita {
        let mut vita = Vita::from_dbi_text(text, &BuildParams::default()).expect("e11 office");
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            10,
        );
        vita
    }

    pub fn mobility(objects: usize, secs: u64) -> MobilityConfig {
        MobilityConfig {
            object_count: objects,
            duration: Timestamp(secs * 1000),
            lifespan: LifespanConfig {
                min: Timestamp(secs * 1000),
                max: Timestamp(secs * 1000),
            },
            seed: SEED,
            ..Default::default()
        }
    }

    pub fn rssi(secs: u64) -> RssiConfig {
        RssiConfig {
            duration: Timestamp(secs * 1000),
            ..Default::default()
        }
    }

    pub fn method() -> MethodConfig {
        MethodConfig::Trilateration {
            config: TrilaterationConfig::default(),
            conversion_model: PathLossModel::default(),
        }
    }

    pub fn scenario(objects: usize, secs: u64) -> ScenarioConfig {
        ScenarioConfig {
            mobility: mobility(objects, secs),
            rssi: rssi(secs),
            method: method(),
            options: StreamOptions::default(),
        }
    }

    /// The E11-at-scale variant: same workload, explicit stage-worker
    /// count and storage backend (the backend is the experiment's
    /// independent variable).
    pub fn scenario_with(
        objects: usize,
        secs: u64,
        workers: usize,
        backend: vita_core::StorageBackend,
    ) -> ScenarioConfig {
        ScenarioConfig {
            options: StreamOptions {
                workers,
                backend,
                ..StreamOptions::default()
            },
            ..scenario(objects, secs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_workload_is_nonempty() {
        let w = standard_workload(5, 8, 30, 2.0);
        assert!(w.generation.stats.samples > 0);
        assert!(!w.rssi.is_empty());
        assert_eq!(w.devices.len(), 8);
    }

    #[test]
    fn helpers_are_deterministic() {
        let a = standard_workload(3, 6, 20, 2.0);
        let b = standard_workload(3, 6, 20, 2.0);
        assert_eq!(a.rssi.len(), b.rssi.len());
        assert_eq!(a.generation.stats.samples, b.generation.stats.samples);
    }
}
