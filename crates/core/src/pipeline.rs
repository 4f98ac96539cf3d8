//! The Vita toolkit facade: the three-layer Producer of paper Fig. 2 wired
//! to the Interface (DBI Processor + Configuration Loader) and Storage.
//!
//! The six-step demo flow (paper §5) maps onto this API:
//!
//! 1. Import a DBI file                       → [`Vita::from_dbi_text`]
//! 2. View/modify the host environment        → [`Vita::env`] / [`Vita::env_mut`]
//! 3. Configure and generate devices          → [`Vita::deploy_devices`]
//! 4. Configure and generate moving objects   → [`Vita::generate_objects`]
//! 5. Configure and generate raw RSSI         → [`Vita::generate_rssi`]
//! 6. Choose a positioning method, generate   → [`Vita::run_positioning`]
//!
//! All products are kept in the embedded storage repository
//! ([`vita_storage::AnyRepository`] — single or segmented backend, see
//! [`StreamOptions::backend`]) and returned to the caller.
//!
//! ## Streaming batched dataflow
//!
//! Steps 4–6 can also run as one concurrent pipeline via
//! [`Vita::run_streaming`]: mobility workers emit per-object trajectory
//! chunks over a bounded channel while stage workers generate that chunk's
//! RSSI, position it, and append every product to storage as owned batches
//! ([`vita_storage::ProductSink`]). No layer materializes the whole run —
//! peak memory is bounded by the channel capacity — and for a fixed seed
//! the repository contents and fix sets are identical to the step-by-step
//! path (the step methods are thin wrappers over the same sinks).
//!
//! ## Multi-scenario concurrency
//!
//! [`Vita::run_many`] schedules several scenarios through one toolkit at
//! once: N mobility producers feed one shared stage-worker pool, every
//! product batch is tagged with its run's [`RunId`], and the repository
//! answers both all-runs and per-run queries afterwards. RNG streams are
//! derived from `(base seed, run id)` ([`derive_run_seed`]), so each run's
//! row sets are bit-identical to running its scenario alone
//! ([`Vita::run_streaming_as`]) no matter how the runs interleave.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use vita_dbi::LoadedDbi;
use vita_devices::{deploy, DeploymentModel, DeviceRegistry, DeviceSpec};
use vita_indoor::{build_environment, BuildParams, FloorId, IndoorEnvironment, RunId};
use vita_mobility::{
    GenerationResult, GenerationStats, MobilityConfig, StreamedGeneration, TrajectoryChunk,
};
use vita_positioning::{
    run_positioning, ChunkPositioner, Fix, MethodConfig, PmcError, PositioningData, ProbFix,
};
use vita_rssi::{generate_rssi, RssiConfig, RssiGenerator, RssiStore};
use vita_storage::{
    AnyRepository, CodecError, ProductBatch, ProductSink, RepositoryExport, StorageBackend,
};

/// Errors from assembling or running the pipeline.
#[derive(Debug)]
pub enum VitaError {
    Dbi(vita_dbi::LoadError),
    Build(vita_indoor::BuildError),
    Mobility(vita_mobility::ConfigError),
    Positioning(PmcError),
    /// Step ordering violated (e.g. positioning before RSSI generation).
    MissingStage(&'static str),
    /// [`Vita::run_many`] scenarios disagree on the storage backend: all
    /// concurrent runs ingest into one shared repository, so they must
    /// request the same [`StorageBackend`].
    MixedBackends,
    /// A [`Vita::load_from`] table file failed to decode (corrupt,
    /// truncated, or not a Vita data file).
    Codec(CodecError),
    /// File IO under [`Vita::save_to`] / [`Vita::load_from`] failed.
    Io(std::io::Error),
}

impl std::fmt::Display for VitaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VitaError::Dbi(e) => write!(f, "DBI processing: {e}"),
            VitaError::Build(e) => write!(f, "environment construction: {e}"),
            VitaError::Mobility(e) => write!(f, "moving object layer: {e}"),
            VitaError::Positioning(e) => write!(f, "positioning layer: {e}"),
            VitaError::MissingStage(s) => write!(f, "pipeline stage missing: {s}"),
            VitaError::MixedBackends => write!(
                f,
                "run_many scenarios request different storage backends for one shared repository"
            ),
            VitaError::Codec(e) => write!(f, "storage decode: {e}"),
            VitaError::Io(e) => write!(f, "storage file IO: {e}"),
        }
    }
}

impl std::error::Error for VitaError {}

/// The toolkit: host environment + device registry + storage + the products
/// of each layer as they are generated.
pub struct Vita {
    env: IndoorEnvironment,
    devices: DeviceRegistry,
    repo: Arc<AnyRepository>,
    /// Warnings from DBI processing and environment construction.
    pub warnings: Vec<String>,
    last_generation: Option<GenerationResult>,
    last_rssi: Option<RssiStore>,
}

impl Vita {
    /// Step 1: import a DBI (STEP/IFC-subset) file.
    pub fn from_dbi_text(text: &str, params: &BuildParams) -> Result<Self, VitaError> {
        let loaded: LoadedDbi = vita_dbi::load_dbi(text).map_err(VitaError::Dbi)?;
        let mut warnings: Vec<String> = loaded
            .decode_issues
            .iter()
            .map(|i| format!("decode: {i}"))
            .chain(
                loaded
                    .repair
                    .findings
                    .iter()
                    .map(|f| format!("repair: {} {}", f.entity, f.kind)),
            )
            .collect();
        let built = build_environment(&loaded.model, params).map_err(VitaError::Build)?;
        warnings.extend(built.warnings.iter().map(|w| format!("build: {w}")));
        Ok(Vita {
            env: built.env,
            devices: DeviceRegistry::new(),
            repo: Arc::new(AnyRepository::default()),
            warnings,
            last_generation: None,
            last_rssi: None,
        })
    }

    /// Build directly from an already-decoded model (skips parsing).
    pub fn from_model(model: &vita_dbi::DbiModel, params: &BuildParams) -> Result<Self, VitaError> {
        let built = build_environment(model, params).map_err(VitaError::Build)?;
        Ok(Vita {
            env: built.env,
            devices: DeviceRegistry::new(),
            repo: Arc::new(AnyRepository::default()),
            warnings: built
                .warnings
                .iter()
                .map(|w| format!("build: {w}"))
                .collect(),
            last_generation: None,
            last_rssi: None,
        })
    }

    /// Construction-time storage backend selection: consume the toolkit
    /// and return it with its (still empty) repository in the requested
    /// shape. Free at this point — nothing has been ingested yet, so no
    /// rows are re-partitioned — which is why this is the preferred way to
    /// pick a backend, over migrating later with
    /// [`Vita::migrate_backend`].
    ///
    /// # Examples
    ///
    /// ```
    /// use vita_core::prelude::*;
    ///
    /// let dbi = vita_dbi::write_step(&vita_dbi::office(&SynthParams::with_floors(1)));
    /// let vita = Vita::from_dbi_text(&dbi, &BuildParams::default())
    ///     .unwrap()
    ///     .with_backend(StorageBackend::segmented());
    /// assert!(matches!(
    ///     vita.repository().backend(),
    ///     StorageBackend::Segmented { .. }
    /// ));
    /// ```
    #[must_use]
    pub fn with_backend(mut self, backend: StorageBackend) -> Self {
        apply_backend(&mut self.repo, backend);
        self
    }

    /// Step 2: inspect / customize the host environment.
    pub fn env(&self) -> &IndoorEnvironment {
        &self.env
    }

    pub fn env_mut(&mut self) -> &mut IndoorEnvironment {
        &mut self.env
    }

    /// Step 3: deploy positioning devices on a floor with a deployment
    /// model. Returns the number of devices placed.
    pub fn deploy_devices(
        &mut self,
        spec: DeviceSpec,
        floor: FloorId,
        model: DeploymentModel,
        count: usize,
    ) -> usize {
        deploy(&self.env, &mut self.devices, spec, floor, model, count).len()
    }

    /// Manual placement variant of step 3.
    pub fn place_device(
        &mut self,
        spec: DeviceSpec,
        floor: FloorId,
        position: vita_geometry::Point,
    ) -> vita_indoor::DeviceId {
        self.devices.place(spec, floor, position)
    }

    pub fn devices(&self) -> &DeviceRegistry {
        &self.devices
    }

    /// Step 4: generate moving objects and their raw trajectories.
    pub fn generate_objects(
        &mut self,
        cfg: &MobilityConfig,
    ) -> Result<&GenerationResult, VitaError> {
        let result = vita_mobility::generate(&self.env, cfg).map_err(VitaError::Mobility)?;
        self.repo.accept(ProductBatch::Trajectories(
            result.trajectories.all_samples_time_ordered(),
        ));
        self.last_generation = Some(result);
        Ok(self.last_generation.as_ref().unwrap()) // audit: allow(R4) invariant: assigned Some on the previous line
    }

    /// Step 5: generate raw RSSI measurements from devices × trajectories.
    pub fn generate_rssi(&mut self, cfg: &RssiConfig) -> Result<&RssiStore, VitaError> {
        let gen = self
            .last_generation
            .as_ref()
            .ok_or(VitaError::MissingStage(
                "generate_objects must run before generate_rssi",
            ))?;
        let store = generate_rssi(&self.env, &self.devices, &gen.trajectories, cfg);
        self.repo.accept(ProductBatch::Rssi(store.all().to_vec()));
        self.last_rssi = Some(store);
        Ok(self.last_rssi.as_ref().unwrap()) // audit: allow(R4) invariant: assigned Some on the previous line
    }

    /// Step 6: run the chosen positioning method over the raw RSSI data.
    pub fn run_positioning(&mut self, method: &MethodConfig) -> Result<PositioningData, VitaError> {
        let rssi = self.last_rssi.as_ref().ok_or(VitaError::MissingStage(
            "generate_rssi must run before run_positioning",
        ))?;
        let data = run_positioning(&self.env, &self.devices, rssi, method)
            .map_err(VitaError::Positioning)?;
        self.repo.accept(positioning_batch_ref(&data));
        Ok(data)
    }

    /// Steps 4–6 as one streaming batched dataflow: mobility simulation
    /// workers produce per-object trajectory chunks into a bounded channel
    /// while stage workers concurrently generate each chunk's RSSI, run the
    /// positioning method on it, and append all three products to the
    /// repository as owned batches.
    ///
    /// For a fixed seed the resulting repository contents (counts and fix
    /// sets) are identical to running [`Vita::generate_objects`] →
    /// [`Vita::generate_rssi`] → [`Vita::run_positioning`], but no stage
    /// ever materializes a whole run: peak in-flight data is bounded by
    /// `options.channel_capacity` chunks (see
    /// [`PipelineReport::peak_in_flight_samples`]).
    ///
    /// Devices must already be deployed (step 3). The step-path products
    /// ([`Vita::generation`], [`Vita::rssi`]) are *not* materialized by
    /// this entry point — query the repository instead.
    ///
    /// `scenario.options.backend` picks the storage backend the run
    /// ingests into: with [`StorageBackend::Segmented`], readers keep
    /// answering from pinned snapshots while the stage workers append (the
    /// repository is switched via [`Vita::migrate_backend`] before any
    /// worker starts).
    ///
    /// The run ingests as [`RunId::DEFAULT`] — equivalent to
    /// [`Vita::run_streaming_as`] with run 0, and to a one-scenario
    /// [`Vita::run_many`] on a fresh toolkit. Like the step-path methods,
    /// repeated calls **merge** into the repository — all under run 0 —
    /// so run-scoped queries see their union. To keep successive runs
    /// isolated, schedule them with [`Vita::run_many`] (which allocates
    /// fresh run ids past every stored run) or pick explicit distinct ids
    /// with [`Vita::run_streaming_as`].
    ///
    /// # Examples
    ///
    /// ```
    /// use vita_core::prelude::*;
    ///
    /// let dbi = vita_dbi::write_step(&vita_dbi::office(&SynthParams::with_floors(1)));
    /// let mut vita = Vita::from_dbi_text(&dbi, &BuildParams::default()).unwrap();
    /// vita.deploy_devices(
    ///     DeviceSpec::default_for(DeviceType::WiFi),
    ///     FloorId(0),
    ///     DeploymentModel::Coverage,
    ///     8,
    /// );
    /// let scenario = ScenarioConfig {
    ///     mobility: MobilityConfig {
    ///         object_count: 4,
    ///         duration: Timestamp(20_000),
    ///         lifespan: LifespanConfig { min: Timestamp(20_000), max: Timestamp(20_000) },
    ///         ..Default::default()
    ///     },
    ///     rssi: RssiConfig { duration: Timestamp(20_000), ..Default::default() },
    ///     method: MethodConfig::Trilateration {
    ///         config: TrilaterationConfig::default(),
    ///         conversion_model: PathLossModel::default(),
    ///     },
    ///     options: StreamOptions::default(),
    /// };
    /// let report = vita.run_streaming(&scenario).unwrap();
    /// assert_eq!(report.chunks, 4); // one chunk per object
    /// assert_eq!(
    ///     vita.repository().counts(RunScope::All).trajectories,
    ///     report.stats.samples,
    /// );
    /// ```
    pub fn run_streaming(
        &mut self,
        scenario: &ScenarioConfig,
    ) -> Result<PipelineReport, VitaError> {
        self.run_streaming_as(RunId::DEFAULT, scenario)
    }

    /// [`Vita::run_streaming`], ingesting under an explicit [`RunId`]: the
    /// solo counterpart of one lane of [`Vita::run_many`]. Because every
    /// run's RNG streams are derived from `(base seed, run id)` (see
    /// [`derive_run_seed`]), running a scenario alone as run `r` produces
    /// row sets bit-identical to the same scenario scheduled as run `r`
    /// among concurrent runs — the property the `run_many_parity` test
    /// suite pins down.
    ///
    /// The run id is taken as given: ingesting under an id that already
    /// has rows **merges** with them (exactly like repeated
    /// [`Vita::run_streaming`] calls merge under run 0). Use
    /// [`Vita::run_many`] when fresh, non-colliding ids should be
    /// allocated automatically.
    pub fn run_streaming_as(
        &mut self,
        run: RunId,
        scenario: &ScenarioConfig,
    ) -> Result<PipelineReport, VitaError> {
        let start = Instant::now();
        let runs = [(run, scenario)];
        // Validate + build stage contexts before touching the repository:
        // a rejected scenario must leave storage exactly as it was,
        // including its backend shape.
        let contexts = build_contexts(&self.env, &self.devices, &runs)?;
        apply_backend(&mut self.repo, scenario.options.backend.clone());
        let mut reports = self.stream_runs(start, &runs, &contexts)?;
        Ok(reports.pop().expect("one report per run")) // audit: allow(R4) invariant: stream_runs returns exactly one report per scheduled run
    }

    /// Run several scenarios concurrently through this toolkit — the
    /// multi-scenario step of the ROADMAP: same host environment and
    /// devices, different mobility/RSSI/method configurations — sharing
    /// one stage-worker pool and one repository. Scenario `i` ingests as
    /// `RunId(base + i)`, where `base` is one past the highest run id
    /// already in the repository (0 for a fresh toolkit), so successive
    /// schedules never collide with earlier runs' rows; read each run's
    /// assigned id from its report ([`PipelineReport::run`]) and query its
    /// products in isolation by scoping any repository query to it (e.g.
    /// [`vita_storage::AnyRepository::fixes`] with `run.into()`).
    ///
    /// ## Determinism
    ///
    /// Each run's mobility and RSSI RNG streams are seeded from
    /// `(base seed, run id)` via [`derive_run_seed`], and every downstream
    /// product is derived per trajectory chunk, so per-run row sets are
    /// bit-identical to running each scenario alone with
    /// [`Vita::run_streaming_as`] at the same run id — regardless of how
    /// the scheduler interleaves the runs' chunks. (The run *id* is part
    /// of the derivation, so a schedule on a non-empty repository — where
    /// ids offset past existing runs — reproduces only at the same ids.)
    ///
    /// ## One shared pool
    ///
    /// All scenarios must request the same `options.backend` (they share
    /// the repository); otherwise [`VitaError::MixedBackends`] is returned
    /// before anything is ingested. An empty slice returns no reports.
    /// The other [`StreamOptions`] are coalesced across scenarios — the
    /// schedule uses the **maximum** requested `workers` and
    /// `channel_capacity` — because one worker pool and one chunk channel
    /// serve every run: a single run's tighter `channel_capacity` does not
    /// bound the shared schedule (schedule it alone via
    /// [`Vita::run_streaming_as`] if its in-flight bound must hold
    /// exactly).
    ///
    /// # Examples
    ///
    /// ```
    /// use vita_core::prelude::*;
    ///
    /// let dbi = vita_dbi::write_step(&vita_dbi::office(&SynthParams::with_floors(1)));
    /// let mut vita = Vita::from_dbi_text(&dbi, &BuildParams::default()).unwrap();
    /// vita.deploy_devices(
    ///     DeviceSpec::default_for(DeviceType::WiFi),
    ///     FloorId(0),
    ///     DeploymentModel::Coverage,
    ///     8,
    /// );
    /// let base = ScenarioConfig {
    ///     mobility: MobilityConfig {
    ///         object_count: 3,
    ///         duration: Timestamp(20_000),
    ///         lifespan: LifespanConfig { min: Timestamp(20_000), max: Timestamp(20_000) },
    ///         ..Default::default()
    ///     },
    ///     rssi: RssiConfig { duration: Timestamp(20_000), ..Default::default() },
    ///     method: MethodConfig::Trilateration {
    ///         config: TrilaterationConfig::default(),
    ///         conversion_model: PathLossModel::default(),
    ///     },
    ///     options: StreamOptions::default(),
    /// };
    /// let mut second = base.clone();
    /// second.mobility.object_count = 5;
    /// let reports = vita.run_many(&[base, second]).unwrap();
    /// assert_eq!(reports.len(), 2);
    /// assert_eq!(reports[1].run, RunId(1));
    /// // Each run's rows are tagged and queryable in isolation.
    /// let run1 = vita.repository().trajectories(RunId(1).into());
    /// assert_eq!(run1.len(), reports[1].stats.samples);
    /// ```
    pub fn run_many(
        &mut self,
        scenarios: &[ScenarioConfig],
    ) -> Result<Vec<PipelineReport>, VitaError> {
        let Some(first) = scenarios.first() else {
            return Ok(Vec::new());
        };
        if scenarios
            .iter()
            .any(|s| s.options.backend != first.options.backend)
        {
            return Err(VitaError::MixedBackends);
        }
        let start = Instant::now();
        // Allocate run ids past every run already stored, so repeated
        // schedules (or a prior `run_streaming`, which is run 0) never
        // alias earlier runs' rows.
        let base = self.repo.run_ids().last().map_or(0, |r| r.0 + 1);
        let runs: Vec<(RunId, &ScenarioConfig)> = scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| (RunId(base + i as u32), s))
            .collect();
        // Validate + build stage contexts before touching the repository
        // (see `run_streaming_as`).
        let contexts = build_contexts(&self.env, &self.devices, &runs)?;
        apply_backend(&mut self.repo, first.options.backend.clone());
        self.stream_runs(start, &runs, &contexts)
    }

    /// The scheduling engine behind [`Vita::run_streaming`] and
    /// [`Vita::run_many`]: N mobility producers and one shared stage-worker
    /// pool over one repository, with per-run contexts prebuilt by
    /// [`build_contexts`].
    ///
    /// Takes `&self` on purpose — backend selection (the only mutation) is
    /// split into [`apply_backend`] / [`Vita::migrate_backend`], which
    /// callers apply before scheduling, so the concurrent machinery needs
    /// no exclusive access to the toolkit.
    /// `start` is captured by the public entry point before validation and
    /// context building, so `PipelineReport::elapsed` covers the whole
    /// call — including positioner setup (radio-map survey) — exactly as
    /// the pre-`run_many` `run_streaming` measured it (the E11 baselines
    /// compare on those semantics).
    fn stream_runs(
        &self,
        start: Instant,
        runs: &[(RunId, &ScenarioConfig)],
        contexts: &[RunContext<'_>],
    ) -> Result<Vec<PipelineReport>, VitaError> {
        // Split the core budget between the two pools: stage workers here,
        // simulation workers inside the mobility producers. Sizing both to
        // the full core count would oversubscribe the machine 2×; with N
        // producers the simulation share is divided among them.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = runs
            .iter()
            .map(|(_, s)| {
                if s.options.workers == 0 {
                    (cores / 2).max(1)
                } else {
                    s.options.workers
                }
            })
            .max()
            .unwrap_or(1);
        let sim_workers = (cores.saturating_sub(workers).max(1) / runs.len().max(1)).max(1);
        let capacity = runs
            .iter()
            .map(|(_, s)| s.options.channel_capacity)
            .max()
            .unwrap_or(1)
            .max(1);

        let repo = &self.repo;
        let counters: Vec<StreamCounters> =
            runs.iter().map(|_| StreamCounters::default()).collect();
        let results: Vec<Result<StreamedGeneration, vita_mobility::ConfigError>> =
            std::thread::scope(|scope| {
                let (tx, rx) = mpsc::sync_channel::<(usize, TrajectoryChunk)>(capacity);
                let rx = Arc::new(Mutex::new(rx));
                for _ in 0..workers {
                    let rx = Arc::clone(&rx);
                    let contexts = &contexts;
                    let counters = &counters;
                    scope.spawn(move || loop {
                        // Hold the lock only for the receive; processing
                        // runs unlocked so workers overlap.
                        let msg = rx.lock().expect("receiver lock").recv(); // audit: allow(R4) operational: a poisoned receiver mutex means a stage worker already panicked
                        let Ok((idx, chunk)) = msg else {
                            return; // producers done, queue drained
                        };
                        let ctx: &RunContext<'_> = &contexts[idx];
                        let c = &counters[idx];
                        let measurements = ctx
                            .rssi_gen
                            .measure_trajectory(chunk.object, &chunk.trajectory);
                        let store = RssiStore::new(measurements);
                        let data = ctx.positioner.position(&store);

                        let samples = chunk.trajectory.into_samples();
                        let n_samples = samples.len();
                        c.rssi_rows.fetch_add(store.len(), Ordering::Relaxed);
                        let positioning = positioning_batch(data);
                        c.positioning_rows
                            .fetch_add(positioning.len(), Ordering::Relaxed);
                        repo.accept_run(ctx.run, ProductBatch::Trajectories(samples));
                        repo.accept_run(ctx.run, ProductBatch::Rssi(store.into_measurements()));
                        repo.accept_run(ctx.run, positioning);
                        c.in_flight.fetch_sub(n_samples, Ordering::Relaxed);
                    });
                }

                // One producer thread per run; `send` applies backpressure
                // when all workers are busy and the shared channel is full.
                // Each producer's own channel gets capacity 1: buffering
                // there would be redundant with the pipeline's channel and
                // would hold chunks the in-flight counters cannot see yet.
                let mut handles = Vec::with_capacity(contexts.len());
                for (idx, ctx) in contexts.iter().enumerate() {
                    let tx = tx.clone();
                    let counters = &counters;
                    let env = &self.env;
                    handles.push(scope.spawn(move || {
                        let producer = vita_mobility::ChunkStreaming {
                            channel_capacity: 1,
                            max_workers: sim_workers,
                        };
                        vita_mobility::generate_streaming(env, &ctx.mobility, &producer, |chunk| {
                            let n = chunk.trajectory.len();
                            let c = &counters[idx];
                            c.chunks.fetch_add(1, Ordering::Relaxed);
                            let now = c.in_flight.fetch_add(n, Ordering::Relaxed) + n;
                            c.peak_in_flight.fetch_max(now, Ordering::Relaxed);
                            // audit: allow(R4) invariant: stage workers outlive producers inside this scope
                            tx.send((idx, chunk)).expect("stage workers alive");
                        })
                    }));
                }
                drop(tx);
                handles
                    .into_iter()
                    .map(|h| h.join().expect("producer thread")) // audit: allow(R4) operational: a panicked producer thread has already poisoned the run
                    .collect()
            });

        let mut streamed = Vec::with_capacity(results.len());
        for r in results {
            streamed.push(r.map_err(VitaError::Mobility)?);
        }
        let elapsed = start.elapsed();
        Ok(runs
            .iter()
            .zip(streamed)
            .zip(counters)
            .map(|(((run, _), sg), c)| PipelineReport {
                run: *run,
                stats: sg.stats,
                chunks: c.chunks.into_inner(),
                rssi_rows: c.rssi_rows.into_inner(),
                positioning_rows: c.positioning_rows.into_inner(),
                peak_in_flight_samples: c.peak_in_flight.into_inner(),
                elapsed,
            })
            .collect())
    }

    /// Migrate the repository to a different storage backend. A no-op when
    /// the repository already has the requested shape; otherwise the new
    /// backend is installed and **every row already stored is re-ingested
    /// into it**, run by run (run tags survive the switch) — an O(rows)
    /// copy that also invalidates handles from [`Vita::serve`], which keep
    /// answering from the pre-migration repository. Prefer picking the
    /// backend up front with [`Vita::with_backend`] (free on an empty
    /// repository) and reserve this for repositories that must change
    /// shape mid-life. Row *sets* are unchanged — every query returns the
    /// same rows — but re-ingestion replays rows in scan order, so answers
    /// that expose arrival order among equal sort keys (scan, ties in
    /// `time_window`/kNN) may come back permuted relative to before the
    /// switch.
    pub fn migrate_backend(&mut self, backend: StorageBackend) {
        apply_backend(&mut self.repo, backend);
    }

    /// The products of the last generation (step 4), if any.
    pub fn generation(&self) -> Option<&GenerationResult> {
        self.last_generation.as_ref()
    }

    /// The raw RSSI data of the last step-5 run, if any.
    pub fn rssi(&self) -> Option<&RssiStore> {
        self.last_rssi.as_ref()
    }

    /// The storage repository with everything generated so far (either
    /// backend; see [`vita_storage::AnyRepository`] for the query surface).
    pub fn repository(&self) -> &AnyRepository {
        &self.repo
    }

    /// A shared handle on the repository, for readers that outlive a
    /// borrow of the toolkit — most notably query serving
    /// ([`Vita::serve`]): ingestion through `self` and queries through the
    /// handle target the same tables concurrently (per-table read-write
    /// locks, or pinned snapshots on the segmented backend). A later
    /// [`Vita::migrate_backend`] installs a *new* repository; existing
    /// handles keep answering from the old one.
    pub fn repository_handle(&self) -> Arc<AnyRepository> {
        Arc::clone(&self.repo)
    }

    /// Attach a query front-end to this toolkit's repository: the returned
    /// [`vita_serve::QueryService`] answers typed
    /// [`vita_serve::QueryRequest`]s — cheaply cloneable across query
    /// worker threads — while [`Vita::run_streaming`] / [`Vita::run_many`]
    /// keep ingesting into the same repository.
    ///
    /// # Examples
    ///
    /// ```
    /// use vita_core::prelude::*;
    /// use vita_serve::{QueryRequest, QueryResponse};
    ///
    /// let dbi = vita_dbi::write_step(&vita_dbi::office(&SynthParams::with_floors(1)));
    /// let vita = Vita::from_dbi_text(&dbi, &BuildParams::default()).unwrap();
    /// let service = vita.serve();
    /// let QueryResponse::Counts(c) = service.execute(&QueryRequest::Counts {
    ///     scope: RunScope::All,
    /// }) else {
    ///     panic!("counts query answers with counts");
    /// };
    /// assert_eq!(c.total(), 0); // nothing ingested yet
    /// ```
    pub fn serve(&self) -> vita_serve::QueryService {
        vita_serve::QueryService::new(self.repository_handle())
    }

    /// Persist every stored data product to `dir` (created if missing) as
    /// the four table files of the versioned binary wire format —
    /// `trajectories.vita`, `rssi.vita`, `fixes.vita`, `proximity.vita`
    /// (see [`vita_storage::RepositoryExport::FILE_NAMES`]). The format is
    /// run-segmented, so a multi-run repository (e.g. after
    /// [`Vita::run_many`]) keeps its run tags on disk.
    ///
    /// # Examples
    ///
    /// ```
    /// use vita_core::prelude::*;
    ///
    /// let dbi = vita_dbi::write_step(&vita_dbi::office(&SynthParams::with_floors(1)));
    /// let mut vita = Vita::from_dbi_text(&dbi, &BuildParams::default()).unwrap();
    /// vita.deploy_devices(
    ///     DeviceSpec::default_for(DeviceType::WiFi),
    ///     FloorId(0),
    ///     DeploymentModel::Coverage,
    ///     8,
    /// );
    /// let scenario = ScenarioConfig {
    ///     mobility: MobilityConfig {
    ///         object_count: 2,
    ///         duration: Timestamp(10_000),
    ///         lifespan: LifespanConfig { min: Timestamp(10_000), max: Timestamp(10_000) },
    ///         ..Default::default()
    ///     },
    ///     rssi: RssiConfig { duration: Timestamp(10_000), ..Default::default() },
    ///     method: MethodConfig::Trilateration {
    ///         config: TrilaterationConfig::default(),
    ///         conversion_model: PathLossModel::default(),
    ///     },
    ///     options: StreamOptions::default(),
    /// };
    /// vita.run_streaming(&scenario).unwrap();
    ///
    /// let dir = std::env::temp_dir().join(format!("vita_doc_{}", std::process::id()));
    /// vita.save_to(&dir).unwrap();
    ///
    /// let mut restored = Vita::from_dbi_text(&dbi, &BuildParams::default()).unwrap();
    /// restored.load_from(&dir).unwrap();
    /// assert_eq!(
    ///     restored.repository().counts(RunScope::All),
    ///     vita.repository().counts(RunScope::All),
    /// );
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn save_to(&self, dir: impl AsRef<std::path::Path>) -> Result<(), VitaError> {
        self.repo
            .export()
            .write_dir(dir.as_ref())
            .map_err(VitaError::Io)
    }

    /// Replace the repository contents with the four table files under
    /// `dir` (the layout [`Vita::save_to`] writes). The data lands in the
    /// **current** storage backend regardless of which backend exported it,
    /// and run tags are restored run by run — so save → switch backend →
    /// load preserves every run's row sets. Legacy v1-format files load
    /// with all rows in run 0. Step-path products ([`Vita::generation`],
    /// [`Vita::rssi`]) are untouched; on any error the repository keeps
    /// its previous contents.
    pub fn load_from(&mut self, dir: impl AsRef<std::path::Path>) -> Result<(), VitaError> {
        let export = RepositoryExport::read_dir(dir.as_ref()).map_err(VitaError::Io)?;
        self.repo = Arc::new(
            AnyRepository::import(&export, self.repo.backend()).map_err(VitaError::Codec)?,
        );
        Ok(())
    }
}

/// Everything one run needs at the stage workers: its derived mobility
/// config for the producer, and its RSSI generator + positioner (both
/// `Sync`, shared by all workers processing that run's chunks).
struct RunContext<'a> {
    run: RunId,
    mobility: MobilityConfig,
    rssi_gen: RssiGenerator<'a>,
    positioner: ChunkPositioner<'a>,
}

/// Validate every scheduled scenario and build its per-run stage context —
/// derived seeds ([`derive_run_seed`]), RSSI generator, positioner (radio
/// map included). Runs **before** the repository is touched, so a rejected
/// scenario leaves storage exactly as it was. A free function over the
/// environment/devices fields so callers can keep it disjoint from the
/// `&mut` repository borrow of [`apply_backend`].
fn build_contexts<'a>(
    env: &'a IndoorEnvironment,
    devices: &'a DeviceRegistry,
    runs: &[(RunId, &ScenarioConfig)],
) -> Result<Vec<RunContext<'a>>, VitaError> {
    let mut contexts: Vec<RunContext<'a>> = Vec::with_capacity(runs.len());
    for (run, scenario) in runs {
        let mut mobility = scenario.mobility.clone();
        mobility.seed = derive_run_seed(mobility.seed, *run);
        mobility.validate().map_err(VitaError::Mobility)?;
        let mut rssi_cfg = scenario.rssi;
        rssi_cfg.seed = derive_run_seed(rssi_cfg.seed, *run);
        contexts.push(RunContext {
            run: *run,
            mobility,
            rssi_gen: RssiGenerator::new(env, devices, &rssi_cfg),
            positioner: ChunkPositioner::new(env, devices, &scenario.method)
                .map_err(VitaError::Positioning)?,
        });
    }
    Ok(contexts)
}

/// [`Vita::migrate_backend`] over the bare repository handle (free
/// function so the scheduling entry points can apply it while per-run
/// contexts hold borrows of the environment/devices fields). Installs a
/// **fresh** repository behind a fresh [`Arc`]: live [`Vita::serve`]
/// handles keep the old one alive and keep answering from it.
fn apply_backend(repo: &mut Arc<AnyRepository>, backend: StorageBackend) {
    if repo.backend() == backend {
        return;
    }
    let old = std::mem::replace(repo, Arc::new(AnyRepository::new(backend)));
    for run in old.run_ids() {
        repo.accept_run(
            run,
            ProductBatch::Trajectories(old.trajectories(run.into())),
        );
        repo.accept_run(run, ProductBatch::Rssi(old.rssi(run.into())));
        repo.accept_run(run, ProductBatch::Fixes(old.fixes(run.into())));
        repo.accept_run(run, ProductBatch::Proximity(old.proximity(run.into())));
    }
}

/// Derive the RNG seed a run actually uses from a scenario's base seed.
///
/// The contract (relied on by [`Vita::run_many`] parity):
///
/// * `derive_run_seed(base, RunId::DEFAULT) == base` — a plain
///   [`Vita::run_streaming`] (which ingests as run 0) is seeded exactly by
///   its configuration, so single-run behavior is unchanged by the run
///   dimension.
/// * For any other run id the seed is a SplitMix64-style mix of
///   `(base, run)`: two concurrent runs sharing a scenario configuration
///   still produce decorrelated data, and the derivation depends only on
///   the pair — never on scheduling order — so per-run products are
///   reproducible under arbitrary interleaving.
///
/// Applied to both the mobility seed and the RSSI seed of each scheduled
/// scenario.
pub fn derive_run_seed(base: u64, run: RunId) -> u64 {
    if run == RunId::DEFAULT {
        return base;
    }
    let mut z = base ^ (run.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The positioning batch the repository keeps for one [`PositioningData`]:
/// deterministic fixes and proximity records go in as-is; probabilistic
/// fixes keep their full candidate sets in the data while the repository
/// stores their MAP estimates. By-value so the streaming hot path moves
/// rows into storage without a copy.
fn positioning_batch(data: PositioningData) -> ProductBatch {
    match data {
        PositioningData::Deterministic(fixes) => ProductBatch::Fixes(fixes),
        PositioningData::Proximity(records) => ProductBatch::Proximity(records),
        PositioningData::Probabilistic(pfs) => ProductBatch::Fixes(map_estimates(&pfs)),
    }
}

/// Borrowing variant for the step path, which must also hand `data` back
/// to the caller.
fn positioning_batch_ref(data: &PositioningData) -> ProductBatch {
    match data {
        PositioningData::Deterministic(fixes) => ProductBatch::Fixes(fixes.clone()),
        PositioningData::Proximity(records) => ProductBatch::Proximity(records.clone()),
        PositioningData::Probabilistic(pfs) => ProductBatch::Fixes(map_estimates(pfs)),
    }
}

/// MAP estimate of each probabilistic fix as a deterministic [`Fix`].
fn map_estimates(pfs: &[ProbFix]) -> Vec<Fix> {
    pfs.iter()
        .filter_map(|pf| {
            pf.map_estimate().map(|(loc, _)| Fix {
                object: pf.object,
                loc: *loc,
                t: pf.t,
            })
        })
        .collect()
}

/// Everything [`Vita::run_streaming`] needs for steps 4–6 in one place.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub mobility: MobilityConfig,
    pub rssi: RssiConfig,
    pub method: MethodConfig,
    pub options: StreamOptions,
}

/// Tuning knobs of the streaming pipeline.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Stage workers consuming trajectory chunks (RSSI + positioning +
    /// storage appends). `0` = half the available cores; the other half
    /// goes to the mobility simulation workers.
    pub workers: usize,
    /// Bound on in-flight trajectory chunks between the mobility producer
    /// and the stage workers (backpressure).
    pub channel_capacity: usize,
    /// Storage backend the run ingests into. `Single` (the default) keeps
    /// one lock per table; `Segmented` publishes immutable segments so
    /// queries never wait on ingestion, optionally spilling to disk under a
    /// row budget (see the `vita-storage` crate docs, "Choosing a
    /// backend").
    pub backend: StorageBackend,
}

impl StreamOptions {
    /// Builder-style backend selection, mirroring [`Vita::with_backend`].
    ///
    /// # Examples
    ///
    /// ```
    /// use vita_core::prelude::*;
    ///
    /// let options = StreamOptions::default()
    ///     .with_backend(StorageBackend::segmented());
    /// assert_eq!(options.backend, StorageBackend::segmented());
    /// ```
    #[must_use]
    pub fn with_backend(mut self, backend: StorageBackend) -> Self {
        self.backend = backend;
        self
    }
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            workers: 0,
            channel_capacity: vita_mobility::DEFAULT_CHUNK_CHANNEL_CAPACITY,
            backend: StorageBackend::Single,
        }
    }
}

/// What one streamed run ([`Vita::run_streaming`] or one lane of
/// [`Vita::run_many`]) did.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The run this report describes — [`RunId::DEFAULT`] for solo
    /// [`Vita::run_streaming`], `RunId(i)` for scenario `i` of
    /// [`Vita::run_many`]. Query this run's rows through the repository's
    /// `*_run` accessors.
    pub run: RunId,
    /// Moving-object layer statistics (identical to the step path's).
    pub stats: GenerationStats,
    /// Trajectory chunks that flowed through the pipeline.
    pub chunks: usize,
    /// RSSI measurements generated and stored.
    pub rssi_rows: usize,
    /// Positioning rows stored (fixes or proximity records).
    pub positioning_rows: usize,
    /// Highest number of trajectory samples simultaneously in flight from
    /// producer handoff to storage append — the streaming counterpart of
    /// the step path's "whole run materialized" peak. Chunks still being
    /// simulated (one per mobility worker, plus one producer-side buffer
    /// slot) are not yet visible to this counter, so true peak memory is
    /// bounded by this value plus that many chunks. Under
    /// [`Vita::run_many`] this counts **this run's** chunks only, while
    /// the channel is shared: the schedule's true peak lies between the
    /// largest per-run value and the sum over runs (per-run peaks need not
    /// coincide), so size memory from the channel capacity, not from one
    /// report.
    pub peak_in_flight_samples: usize,
    /// Wall-clock time of the whole run — for [`Vita::run_many`], of the
    /// whole schedule (runs overlap; per-run wall-clock is not separable).
    pub elapsed: Duration,
}

/// Shared atomics the stage workers update.
#[derive(Default)]
struct StreamCounters {
    chunks: AtomicUsize,
    rssi_rows: AtomicUsize,
    positioning_rows: AtomicUsize,
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vita_dbi::{office, write_step, SynthParams};
    use vita_devices::DeviceType;
    use vita_indoor::Timestamp;
    use vita_mobility::LifespanConfig;
    use vita_positioning::{ProximityConfig, TrilaterationConfig};
    use vita_rssi::PathLossModel;
    use vita_storage::RunScope;

    fn toolkit() -> Vita {
        let text = write_step(&office(&SynthParams::with_floors(2)));
        Vita::from_dbi_text(&text, &BuildParams::default()).unwrap()
    }

    fn quick_mobility() -> MobilityConfig {
        MobilityConfig {
            object_count: 6,
            duration: Timestamp(60_000),
            lifespan: LifespanConfig {
                min: Timestamp(60_000),
                max: Timestamp(60_000),
            },
            seed: 77,
            ..Default::default()
        }
    }

    #[test]
    fn full_six_step_pipeline() {
        let mut vita = toolkit();
        assert_eq!(vita.env().summary().floors, 2);

        let placed = vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            8,
        );
        assert_eq!(placed, 8);

        let gen = vita.generate_objects(&quick_mobility()).unwrap();
        assert_eq!(gen.stats.objects, 6);
        let samples = gen.stats.samples;
        assert!(samples > 0);

        let rssi_cfg = RssiConfig {
            duration: Timestamp(60_000),
            ..Default::default()
        };
        let rssi = vita.generate_rssi(&rssi_cfg).unwrap();
        assert!(!rssi.is_empty());
        let rssi_count = rssi.len();

        let method = MethodConfig::Trilateration {
            config: TrilaterationConfig::default(),
            conversion_model: PathLossModel::default(),
        };
        let data = vita.run_positioning(&method).unwrap();
        assert!(!data.is_empty());

        // Storage holds all products.
        let c = vita.repository().counts(RunScope::All);
        assert_eq!(c.trajectories, samples);
        assert_eq!(c.rssi, rssi_count);
        assert_eq!(c.fixes, data.len());
    }

    #[test]
    fn stage_ordering_enforced() {
        let mut vita = toolkit();
        let rssi_cfg = RssiConfig::default();
        assert!(matches!(
            vita.generate_rssi(&rssi_cfg),
            Err(VitaError::MissingStage(_))
        ));
        let method = MethodConfig::Proximity(ProximityConfig::default());
        assert!(matches!(
            vita.run_positioning(&method),
            Err(VitaError::MissingStage(_))
        ));
    }

    #[test]
    fn proximity_results_stored_in_proximity_table() {
        let mut vita = toolkit();
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::Rfid),
            FloorId(0),
            DeploymentModel::CheckPoint,
            6,
        );
        vita.generate_objects(&quick_mobility()).unwrap();
        vita.generate_rssi(&RssiConfig {
            duration: Timestamp(60_000),
            ..Default::default()
        })
        .unwrap();
        let data = vita
            .run_positioning(&MethodConfig::Proximity(ProximityConfig::default()))
            .unwrap();
        let c = vita.repository().counts(RunScope::All);
        assert_eq!(c.proximity, data.len());
        assert_eq!(c.fixes, 0);
    }

    #[test]
    fn run_streaming_fills_repository_without_materializing_stages() {
        let mut vita = toolkit();
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            8,
        );
        let scenario = ScenarioConfig {
            mobility: quick_mobility(),
            rssi: RssiConfig {
                duration: Timestamp(60_000),
                ..Default::default()
            },
            method: MethodConfig::Trilateration {
                config: TrilaterationConfig::default(),
                conversion_model: PathLossModel::default(),
            },
            options: StreamOptions::default(),
        };
        let report = vita.run_streaming(&scenario).unwrap();
        let c = vita.repository().counts(RunScope::All);
        assert_eq!(report.stats.objects, 6);
        assert_eq!(report.chunks, 6);
        assert_eq!(c.trajectories, report.stats.samples);
        assert_eq!(c.rssi, report.rssi_rows);
        assert_eq!(c.fixes, report.positioning_rows);
        assert_eq!(c.proximity, 0);
        assert!(c.rssi > 0 && c.fixes > 0);
        // Streaming bounds in-flight data; it never holds the whole run.
        assert!(report.peak_in_flight_samples <= report.stats.samples);
        assert!(report.peak_in_flight_samples > 0);
        // Step-path products are not materialized by the streaming path.
        assert!(vita.generation().is_none());
        assert!(vita.rssi().is_none());
    }

    #[test]
    fn run_streaming_requires_compatible_devices() {
        let mut vita = toolkit();
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::Rfid),
            FloorId(0),
            DeploymentModel::CheckPoint,
            4,
        );
        let scenario = ScenarioConfig {
            mobility: quick_mobility(),
            rssi: RssiConfig::default(),
            method: MethodConfig::Trilateration {
                config: TrilaterationConfig::default(),
                conversion_model: PathLossModel::default(),
            },
            options: StreamOptions::default(),
        };
        assert!(matches!(
            vita.run_streaming(&scenario),
            Err(VitaError::Positioning(_))
        ));
        // Nothing was stored.
        assert_eq!(vita.repository().counts(RunScope::All).total(), 0);
    }

    fn trilateration_scenario(mobility: MobilityConfig) -> ScenarioConfig {
        ScenarioConfig {
            mobility,
            rssi: RssiConfig {
                duration: Timestamp(60_000),
                ..Default::default()
            },
            method: MethodConfig::Trilateration {
                config: TrilaterationConfig::default(),
                conversion_model: PathLossModel::default(),
            },
            options: StreamOptions::default(),
        }
    }

    #[test]
    fn run_many_tags_runs_and_isolates_rows() {
        let mut vita = toolkit();
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            8,
        );
        let a = trilateration_scenario(quick_mobility());
        let mut b = a.clone();
        b.mobility.object_count = 4;
        b.mobility.seed = 1234;
        let reports = vita.run_many(&[a, b]).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].run, RunId(0));
        assert_eq!(reports[1].run, RunId(1));
        assert_eq!(reports[0].stats.objects, 6);
        assert_eq!(reports[1].stats.objects, 4);

        let repo = vita.repository();
        assert_eq!(repo.run_ids(), vec![RunId(0), RunId(1)]);
        for r in &reports {
            assert_eq!(repo.trajectories(r.run.into()).len(), r.stats.samples);
            assert_eq!(repo.rssi(r.run.into()).len(), r.rssi_rows);
            assert_eq!(repo.fixes(r.run.into()).len(), r.positioning_rows);
        }
        // The all-runs scope merges every run.
        assert_eq!(
            repo.counts(RunScope::All).trajectories,
            reports.iter().map(|r| r.stats.samples).sum::<usize>()
        );
    }

    #[test]
    fn run_many_derives_distinct_seeds_for_identical_scenarios() {
        let mut vita = toolkit();
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            8,
        );
        let s = trilateration_scenario(quick_mobility());
        let reports = vita.run_many(&[s.clone(), s]).unwrap();
        let repo = vita.repository();
        let a = repo.trajectories(RunId(0).into());
        let b = repo.trajectories(RunId(1).into());
        // Same scenario, different run → decorrelated RNG streams: the
        // trajectories must not be identical.
        assert_eq!(reports[0].stats.objects, reports[1].stats.objects);
        let identical = a.len() == b.len()
            && a.iter()
                .zip(&b)
                .all(|(x, y)| x.t == y.t && x.point().approx_eq(y.point()));
        assert!(!identical, "run 1 replayed run 0's data");
    }

    #[test]
    fn run_many_allocates_run_ids_past_existing_runs() {
        let mut vita = toolkit();
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            8,
        );
        let s = trilateration_scenario(quick_mobility());
        // run_streaming ingests as run 0 …
        let solo = vita.run_streaming(&s).unwrap();
        assert_eq!(solo.run, RunId(0));
        // … so a following schedule must not alias it.
        let reports = vita.run_many(&[s.clone(), s]).unwrap();
        assert_eq!(reports[0].run, RunId(1));
        assert_eq!(reports[1].run, RunId(2));
        let repo = vita.repository();
        assert_eq!(repo.run_ids(), vec![RunId(0), RunId(1), RunId(2)]);
        assert_eq!(repo.trajectories(RunId(0).into()).len(), solo.stats.samples);
        for r in &reports {
            assert_eq!(repo.trajectories(r.run.into()).len(), r.stats.samples);
        }
    }

    #[test]
    fn rejected_scenario_leaves_backend_untouched() {
        let mut vita = toolkit();
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            8,
        );
        vita.run_streaming(&trilateration_scenario(quick_mobility()))
            .unwrap();
        let before = vita.repository().backend();
        // Invalid mobility + a backend change request: the error must not
        // re-partition the repository.
        let mut bad = trilateration_scenario(quick_mobility());
        bad.mobility.max_speed = 0.0;
        bad.options.backend = StorageBackend::segmented();
        assert!(matches!(
            vita.run_streaming_as(RunId(9), &bad),
            Err(VitaError::Mobility(_))
        ));
        assert_eq!(vita.repository().backend(), before);
        assert!(matches!(
            vita.run_many(std::slice::from_ref(&bad)),
            Err(VitaError::Mobility(_))
        ));
        assert_eq!(vita.repository().backend(), before);
        assert_eq!(vita.repository().run_ids(), vec![RunId(0)]);
    }

    #[test]
    fn run_many_rejects_mixed_backends() {
        let mut vita = toolkit();
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            8,
        );
        let a = trilateration_scenario(quick_mobility());
        let mut b = a.clone();
        b.options.backend = StorageBackend::segmented();
        assert!(matches!(
            vita.run_many(&[a, b]),
            Err(VitaError::MixedBackends)
        ));
        assert_eq!(vita.repository().counts(RunScope::All).total(), 0);
    }

    #[test]
    fn run_many_of_nothing_is_empty() {
        let mut vita = toolkit();
        assert!(vita.run_many(&[]).unwrap().is_empty());
        assert_eq!(vita.repository().counts(RunScope::All).total(), 0);
    }

    #[test]
    fn derive_run_seed_contract_holds() {
        assert_eq!(derive_run_seed(42, RunId::DEFAULT), 42);
        assert_ne!(derive_run_seed(42, RunId(1)), 42);
        assert_ne!(derive_run_seed(42, RunId(1)), derive_run_seed(42, RunId(2)));
        // Depends only on (base, run): reproducible across calls.
        assert_eq!(derive_run_seed(7, RunId(3)), derive_run_seed(7, RunId(3)));
    }

    #[test]
    fn save_load_round_trips_runs_across_backends() {
        let mut vita = toolkit();
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            8,
        );
        let a = trilateration_scenario(quick_mobility());
        let mut b = a.clone();
        b.mobility.object_count = 3;
        let reports = vita.run_many(&[a, b]).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "vita_save_load_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        vita.save_to(&dir).unwrap();

        // Load into a fresh toolkit on the *segmented* backend: run tags
        // must survive the backend switch.
        let mut restored = toolkit().with_backend(StorageBackend::segmented());
        restored.load_from(&dir).unwrap();
        assert!(matches!(
            restored.repository().backend(),
            StorageBackend::Segmented { .. }
        ));
        assert_eq!(restored.repository().run_ids(), vita.repository().run_ids());
        for r in &reports {
            assert_eq!(
                restored.repository().counts(r.run.into()),
                vita.repository().counts(r.run.into())
            );
            let mut want = vita.repository().trajectories(r.run.into());
            let mut got = restored.repository().trajectories(r.run.into());
            let key = |s: &vita_mobility::TrajectorySample| (s.object.0, s.t.0);
            want.sort_by_key(key);
            got.sort_by_key(key);
            assert_eq!(got, want);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_from_missing_dir_is_io_error() {
        let mut vita = toolkit();
        let missing = std::env::temp_dir().join("vita_definitely_missing_dir");
        assert!(matches!(vita.load_from(&missing), Err(VitaError::Io(_))));
    }

    #[test]
    fn load_from_corrupt_file_is_codec_error_and_preserves_repo() {
        let mut vita = toolkit();
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            8,
        );
        vita.run_streaming(&trilateration_scenario(quick_mobility()))
            .unwrap();
        let counts = vita.repository().counts(RunScope::All);
        let dir = std::env::temp_dir().join(format!(
            "vita_corrupt_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for name in vita_storage::RepositoryExport::FILE_NAMES {
            std::fs::write(dir.join(name), b"not a vita file").unwrap();
        }
        assert!(matches!(vita.load_from(&dir), Err(VitaError::Codec(_))));
        assert_eq!(vita.repository().counts(RunScope::All), counts);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_dbi_is_reported() {
        assert!(matches!(
            Vita::from_dbi_text("garbage", &BuildParams::default()),
            Err(VitaError::Dbi(_))
        ));
    }

    #[test]
    fn obstacle_deployment_through_env_mut() {
        let mut vita = toolkit();
        let n_before = vita.env().obstacles().len();
        vita.env_mut().deploy_obstacle(
            FloorId(0),
            vita_geometry::Polygon::rect(10.0, 11.0, 12.0, 13.0),
            5.0,
        );
        assert_eq!(vita.env().obstacles().len(), n_before + 1);
    }
}
