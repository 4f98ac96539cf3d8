//! The traced path through the layers.
//!
//! [`traced_site`] builds the toolkit layer by layer, and [`traced_run_many`]
//! replays the thread shape of `Vita::run_many` (`core::pipeline::
//! stream_runs`) from outside the program: one mobility producer per run,
//! one shared stage-worker pool behind one bounded chunk channel, with the
//! same stage-worker count, simulation-worker share and channel capacity.
//! Every call into a layer's public function is wrapped in a span. The
//! replay must store exactly the rows `run_many` stores; the workloads
//! check that.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use vita_core::prelude::*;
use vita_core::{derive_run_seed, ScenarioConfig};
use vita_devices::DeviceRegistry;
use vita_indoor::IndoorEnvironment;
use vita_mobility::{ChunkStreaming, TrajectoryChunk};
use vita_positioning::{ChunkPositioner, Fix};
use vita_rssi::{RssiGenerator, RssiStore};
use vita_storage::{AnyRepository, ProductBatch, ProductSink};

use crate::fixture::{guarded, APS};
use crate::trace::{Req, Tracer};

/// Lanes: which thread role a span ran on.
pub const LANE_MAIN: u32 = 0;
/// Stage worker `w` runs on lane `LANE_STAGE + w`.
pub const LANE_STAGE: u32 = 100;
/// The producer of run index `i` runs on lane `LANE_PRODUCER + i`.
pub const LANE_PRODUCER: u32 = 200;

/// The host environment and devices, built layer by layer.
pub struct Site {
    pub env: IndoorEnvironment,
    pub devices: DeviceRegistry,
}

/// `Vita::from_dbi_text` plus `deploy_devices`, one span per layer call.
pub fn traced_site(text: &str, tracer: &Tracer) -> Site {
    let loaded = tracer
        .span("dbi.parse", None, LANE_MAIN, Req::None, |_| {
            vita_dbi::load_dbi(text)
        })
        .expect("the synthetic office imports");
    let built = tracer
        .span("indoor.build", None, LANE_MAIN, Req::None, |_| {
            vita_indoor::build_environment(&loaded.model, &BuildParams::default())
        })
        .expect("the synthetic office builds");
    let mut devices = DeviceRegistry::new();
    tracer.span("devices.deploy", None, LANE_MAIN, Req::None, |_| {
        vita_devices::deploy(
            &built.env,
            &mut devices,
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            APS,
        )
    });
    Site {
        env: built.env,
        devices,
    }
}

/// What one traced schedule produced, summed over its runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Replay {
    pub samples: usize,
    pub rssi_rows: usize,
    pub positioning_rows: usize,
    pub failed_appends: usize,
}

struct Context<'a> {
    run: RunId,
    mobility: MobilityConfig,
    rssi_gen: RssiGenerator<'a>,
    positioner: ChunkPositioner<'a>,
}

/// Schedule `scenarios` as runs `first_run, first_run + 1, …` into `repo`,
/// the way `Vita::run_many` does, recording spans into `tracer`.
pub fn traced_run_many(
    site: &Site,
    repo: &AnyRepository,
    scenarios: &[ScenarioConfig],
    first_run: u32,
    tracer: &Tracer,
) -> Result<Replay, String> {
    // The pool sizing of `stream_runs`, verbatim.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = scenarios
        .iter()
        .map(|s| {
            if s.options.workers == 0 {
                (cores / 2).max(1)
            } else {
                s.options.workers
            }
        })
        .max()
        .unwrap_or(1);
    let sim_workers = (cores.saturating_sub(workers).max(1) / scenarios.len().max(1)).max(1);
    let capacity = scenarios
        .iter()
        .map(|s| s.options.channel_capacity)
        .max()
        .unwrap_or(1)
        .max(1);

    let mut contexts = Vec::with_capacity(scenarios.len());
    for (i, s) in scenarios.iter().enumerate() {
        let run = RunId(first_run + i as u32);
        let mut mobility = s.mobility.clone();
        mobility.seed = derive_run_seed(mobility.seed, run);
        mobility.validate().map_err(|e| e.to_string())?;
        let mut rssi_cfg = s.rssi;
        rssi_cfg.seed = derive_run_seed(rssi_cfg.seed, run);
        let rssi_gen = RssiGenerator::new(&site.env, &site.devices, &rssi_cfg);
        let positioner = tracer
            .span("positioning.setup", None, LANE_MAIN, Req::None, |_| {
                ChunkPositioner::new(&site.env, &site.devices, &s.method)
            })
            .map_err(|e| e.to_string())?;
        contexts.push(Context {
            run,
            mobility,
            rssi_gen,
            positioner,
        });
    }

    let samples = AtomicUsize::new(0);
    let rssi_rows = AtomicUsize::new(0);
    let positioning_rows = AtomicUsize::new(0);
    let failed_appends = AtomicUsize::new(0);
    let results = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel::<(usize, TrajectoryChunk)>(capacity);
        let rx = Arc::new(Mutex::new(rx));
        for w in 0..workers {
            let rx = Arc::clone(&rx);
            let lane = LANE_STAGE + w as u32;
            let (contexts, rssi_rows, positioning_rows) =
                (&contexts, &rssi_rows, &positioning_rows);
            let failed_appends = &failed_appends;
            scope.spawn(move || loop {
                let waited = Instant::now();
                let msg = rx.lock().expect("receiver lock").recv();
                let received = Instant::now();
                let Ok((idx, chunk)) = msg else {
                    tracer.record(
                        tracer.id(),
                        "core.bus_recv",
                        None,
                        lane,
                        Req::None,
                        waited,
                        received,
                    );
                    return;
                };
                let ctx: &Context<'_> = &contexts[idx];
                let req = Req::Chunk {
                    run: ctx.run.0,
                    object: chunk.object.0,
                };
                tracer.record(
                    tracer.id(),
                    "core.bus_recv",
                    None,
                    lane,
                    req,
                    waited,
                    received,
                );
                tracer.span("stage.chunk", None, lane, req, |parent| {
                    let store = tracer.span("rssi.measure", Some(parent), lane, req, |_| {
                        RssiStore::new(
                            ctx.rssi_gen
                                .measure_trajectory(chunk.object, &chunk.trajectory),
                        )
                    });
                    let data = tracer.span("positioning.position", Some(parent), lane, req, |_| {
                        ctx.positioner.position(&store)
                    });
                    let positioning = positioning_batch(data);
                    rssi_rows.fetch_add(store.len(), Ordering::Relaxed);
                    positioning_rows.fetch_add(positioning.len(), Ordering::Relaxed);
                    for batch in [
                        ProductBatch::Trajectories(chunk.trajectory.into_samples()),
                        ProductBatch::Rssi(store.into_measurements()),
                        positioning,
                    ] {
                        let ok = tracer.span("storage.append", Some(parent), lane, req, |_| {
                            guarded(|| repo.accept_run(ctx.run, batch))
                        });
                        if ok.is_none() {
                            failed_appends.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            });
        }

        let mut handles = Vec::with_capacity(contexts.len());
        for (idx, ctx) in contexts.iter().enumerate() {
            let tx = tx.clone();
            let lane = LANE_PRODUCER + idx as u32;
            let (env, samples) = (&site.env, &samples);
            handles.push(scope.spawn(move || {
                let producer = ChunkStreaming {
                    channel_capacity: 1,
                    max_workers: sim_workers,
                };
                tracer.span("mobility.generate", None, lane, Req::None, |parent| {
                    vita_mobility::generate_streaming(env, &ctx.mobility, &producer, |chunk| {
                        let req = Req::Chunk {
                            run: ctx.run.0,
                            object: chunk.object.0,
                        };
                        samples.fetch_add(chunk.trajectory.len(), Ordering::Relaxed);
                        tracer.span("core.bus_send", Some(parent), lane, req, |_| {
                            tx.send((idx, chunk)).expect("stage workers alive")
                        });
                    })
                })
            }));
        }
        drop(tx);
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .collect::<Vec<_>>()
    });
    for r in results {
        r.map_err(|e| e.to_string())?;
    }
    Ok(Replay {
        samples: samples.into_inner(),
        rssi_rows: rssi_rows.into_inner(),
        positioning_rows: positioning_rows.into_inner(),
        failed_appends: failed_appends.into_inner(),
    })
}

/// The batch `run_many` stores for a chunk's positioning output: fixes or
/// proximity records as they are, probabilistic fixes as their MAP
/// estimates.
fn positioning_batch(data: PositioningData) -> ProductBatch {
    match data {
        PositioningData::Deterministic(fixes) => ProductBatch::Fixes(fixes),
        PositioningData::Proximity(records) => ProductBatch::Proximity(records),
        PositioningData::Probabilistic(pfs) => ProductBatch::Fixes(
            pfs.iter()
                .filter_map(|pf| {
                    pf.map_estimate().map(|(loc, _)| Fix {
                        object: pf.object,
                        loc: *loc,
                        t: pf.t,
                    })
                })
                .collect(),
        ),
    }
}
