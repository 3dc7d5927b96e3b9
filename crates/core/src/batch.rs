//! Parallel batched multi-subdomain assembly.
//!
//! The paper's production setting (like its CUDA predecessor, arXiv:2502.08382)
//! assembles the dense local dual operators `F̃ᵢ` of **hundreds of subdomains
//! per cluster**, one OpenMP thread per subdomain. This module holds the
//! drivers of that loop: each fans the per-subdomain
//! [`assemble_sc`](crate::assemble_sc) pipelines out over rayon, sharing one
//! [`BlockCutsCache`] so that equal-shape subdomains (the overwhelmingly
//! common case on regular decompositions) resolve their
//! [`BlockParam`](crate::tune::BlockParam) partitions exactly once, and
//! records per-subdomain timings for load-balance diagnostics.
//!
//! The drivers are reached through
//! [`AssemblySession::assemble`](crate::session::AssemblySession::assemble),
//! which dispatches on a [`Backend`](crate::Backend) value; every driver
//! fills the one [`AssemblyReport`]. Execution targets:
//!
//! - **CPU** — one rayon task per subdomain;
//! - **GPU** — the **memory-aware, cost-model-driven scheduler** of
//!   [`crate::schedule`] (paper §4.4): LPT ordering onto the least-loaded
//!   stream (or the paper's blind round-robin stream loop under
//!   [`StreamPolicy::RoundRobin`]), admission against the device's
//!   temporary arena ("wait"), optional host-readiness overlap ("mix"), and
//!   a deterministic record-then-replay execution so the simulated timeline
//!   is reproducible run to run;
//! - **cluster** — a two-level plan sharding the batch across a device
//!   pool, each device replaying its share through the scheduled machinery;
//! - **hybrid spill** — the cluster plan with spilling allowed: subdomains
//!   that fit no device arena keep their host-computed `F̃ᵢ` instead of
//!   erroring.
//!
//! Results are **identical** to running [`assemble_sc`](crate::assemble_sc) per subdomain
//! sequentially: every subdomain's pipeline is independent and the cache only
//! memoizes block boundaries, not numerics (dedicated tests assert bitwise
//! equality for every driver).
//!
//! ## Clocks
//!
//! [`SubdomainTiming::seconds`] is **backend time**: simulated device
//! seconds on the GPU drivers (the subdomain's span on its stream), host
//! wall seconds on the CPU driver. [`SubdomainTiming::host_seconds`] is
//! always host wall time, so [`AssemblyReport::speedup`] compares
//! commensurable clocks; the GPU makespan lives in
//! [`AssemblyReport::makespan`].

use crate::assemble::{assemble_sc_with_cache, ScConfig};
use crate::exec::{CpuExec, RecordingExec};
use crate::schedule::{
    self, ArenaSim, ClusterPlanError, CostEstimate, DeviceSlot, ScheduleOptions, ScheduledSpan,
    StreamPolicy, Topology,
};
use crate::session::{AssemblyReport, DeviceReport};
use crate::source::BatchSource;
use crate::tune::BlockCutsCache;
use rayon::prelude::*;
use sc_dense::{MatOf, Scalar};
use sc_gpu::{Device, DevicePool, SimSpan, Trace, TraceEvent};
use sc_sparse::CscOf;
use std::time::Instant;

/// Per-subdomain input to the batched assembler: the subdomain's Cholesky
/// factor and its gluing block with rows already in factor order (the same
/// pair [`assemble_sc`](crate::assemble_sc) takes).
#[derive(Clone, Copy)]
pub struct BatchItemOf<'a, S: Scalar = f64> {
    /// Cholesky factor of the regularized subdomain matrix (CSC, diag-first).
    pub l: &'a CscOf<S>,
    /// `B̃ᵢᵀ` with rows permuted into the factor's order.
    pub bt: &'a CscOf<S>,
}

/// `f64` batch item (the historical type).
pub type BatchItem<'a> = BatchItemOf<'a, f64>;

/// Timing and shape record for one subdomain of a batch.
#[derive(Clone, Copy, Debug)]
pub struct SubdomainTiming {
    /// Position of the subdomain in the input batch.
    pub index: usize,
    /// Factor dimension (subdomain dof count).
    pub n_dofs: usize,
    /// Local multiplier count (order of `F̃ᵢ`).
    pub n_lambda: usize,
    /// Backend seconds of this subdomain's assembly: **simulated device
    /// time** (span end − span start on its stream) on the GPU drivers,
    /// host wall time on the CPU driver.
    pub seconds: f64,
    /// Host wall seconds spent in this subdomain's task (always a host
    /// clock — compare with [`AssemblyReport::total_seconds`], never with
    /// simulated time).
    pub host_seconds: f64,
    /// Stream the subdomain ran on (`None` on the CPU driver).
    pub stream: Option<usize>,
    /// Simulated execution span on that stream (`None` on the CPU driver).
    pub span: Option<SimSpan>,
    /// Pool device the subdomain ran on (`None` on the CPU driver; `Some(0)`
    /// on the single-device GPU driver).
    pub device: Option<usize>,
    /// Cluster node the subdomain ran on (`None` on every single-node
    /// driver; `Some` only under the multi-node backend).
    pub node: Option<usize>,
}

/// CPU batch driver over any [`BatchSource`]: one rayon task per subdomain
/// (the paper's one-thread-per-subdomain cluster loop), all sharing a
/// single [`BlockCutsCache`]. The report has no device section.
pub(crate) fn batch_cpu<S: Scalar, Src: BatchSource<S>>(
    src: Src,
    cfg: &ScConfig,
) -> (Vec<MatOf<S>>, AssemblyReport) {
    let cache = BlockCutsCache::new();
    let t0 = Instant::now();
    let assembled: Vec<(MatOf<S>, SubdomainTiming)> = (0..src.len())
        .into_par_iter()
        .map(|i| {
            let t = Instant::now();
            let l = src.factor(i);
            let bt = src.gluing(i);
            let f = assemble_sc_with_cache(&mut CpuExec, &l, bt, cfg, Some(&cache));
            let host_seconds = t.elapsed().as_secs_f64();
            let timing = SubdomainTiming {
                index: i,
                n_dofs: l.ncols(),
                n_lambda: bt.ncols(),
                seconds: host_seconds,
                host_seconds,
                stream: None,
                span: None,
                device: None,
                node: None,
            };
            (f, timing)
        })
        .collect();
    let total_seconds = t0.elapsed().as_secs_f64();
    let (f, subdomains) = assembled.into_iter().unzip();
    let report = AssemblyReport {
        subdomains,
        total_seconds,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        ..AssemblyReport::default()
    };
    (f, report)
}

/// §4.4 scheduled GPU driver over any [`BatchSource`]: per-subdomain costs
/// are estimated from the stepped pattern, subdomains are ordered
/// longest-first onto the least-loaded stream (or round-robin, per
/// [`ScheduleOptions::policy`]), and each subdomain is admitted against the
/// device's temporary-arena capacity before its kernels replay onto its
/// stream. The report has one device section (device 0); an empty batch
/// never touches the device and reports no device.
///
/// Execution is **record-then-replay**: numerics run host-parallel through
/// [`RecordingExec`] (bitwise identical to the CPU path), then the recorded
/// kernel sequences replay serially into the device timeline in
/// deterministic stream-clock order — the simulated timeline is reproducible
/// run to run, unlike live multi-threaded submission.
pub(crate) fn batch_scheduled<S: Scalar, Src: BatchSource<S>>(
    src: Src,
    cfg: &ScConfig,
    device: &std::sync::Arc<Device>,
    opts: &ScheduleOptions,
) -> (Vec<MatOf<S>>, AssemblyReport) {
    if let Some(ready) = opts.ready_at.as_ref() {
        assert_eq!(
            ready.len(),
            src.len(),
            "ScheduleOptions::ready_at must carry one readiness time per \
             batch item ({} given, {} items)",
            ready.len(),
            src.len()
        );
    }
    if src.is_empty() {
        return (Vec::new(), AssemblyReport::default());
    }
    assert!(
        device.n_streams() > 0,
        "cannot schedule a batch of {} subdomains onto a device with 0 streams",
        src.len()
    );
    let cache = BlockCutsCache::new();
    let t0 = Instant::now();
    let sync0 = device.synchronize();
    let busy0 = device.busy_seconds();
    let spec = device.spec().clone();

    // phase 1: host-parallel compute + cost recording
    let recorded = record_scheduled_batch(&src, cfg, &spec, &cache);

    // phase 2: plan + deterministic replay onto the device
    let refs: Vec<&Recorded<S>> = recorded.iter().collect();
    let estimates = refine_estimates(&refs, &spec);
    let lanes = assign_streams(&estimates, device.n_streams(), opts.policy);
    let outcome = replay_recorded(device, &refs, &estimates, &lanes, opts.ready_at.as_deref());
    let makespan = device.synchronize() - sync0;

    // assemble the report in batch order
    let mut f = Vec::with_capacity(src.len());
    let mut subdomains = Vec::with_capacity(src.len());
    for (i, r) in recorded.into_iter().enumerate() {
        let (stream, span) = outcome.spans[i].expect("every subdomain was replayed");
        f.push(r.f);
        subdomains.push(SubdomainTiming {
            index: i,
            n_dofs: r.estimate.n_dofs,
            n_lambda: r.estimate.n_lambda,
            seconds: span.duration(),
            host_seconds: r.host_seconds,
            stream: Some(stream),
            span: Some(span),
            device: Some(0),
            node: None,
        });
    }
    let report = AssemblyReport {
        subdomains,
        devices: vec![DeviceReport {
            device: 0,
            subdomains: outcome.executed.iter().map(|e| e.index).collect(),
            schedule: outcome.executed,
            makespan,
            utilization: utilization(device, busy0, makespan),
            temp_high_water: outcome.temp_high_water,
            trace: Some(outcome.trace),
        }],
        total_seconds: t0.elapsed().as_secs_f64(),
        makespan,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        ..AssemblyReport::default()
    };
    (f, report)
}

/// Busy kernel-seconds `device` accumulated since `busy0`, over
/// `makespan × n_streams` (0 when idle).
fn utilization(device: &Device, busy0: f64, makespan: f64) -> f64 {
    let cap = makespan * device.n_streams().max(1) as f64; // sc-analyze: allow(precision-discipline)
    if cap > 0.0 {
        (device.busy_seconds() - busy0) / cap
    } else {
        0.0
    }
}

/// Per-stream submission queues of one device: `estimates` (local indices)
/// planned over a [`Topology::streams`] leaf under `policy`.
fn assign_streams(
    estimates: &[CostEstimate],
    n_streams: usize,
    policy: StreamPolicy,
) -> Vec<Vec<usize>> {
    schedule::plan_topology(estimates, &Topology::streams(n_streams, policy))
        .expect("stream-level planning has no failure mode")
        .per_child
}
/// One subdomain's record-phase output: the host-computed `F̃ᵢ` (bitwise
/// identical to the CPU path), the kernel-cost sequence to replay (with the
/// per-kernel arena-slot accesses for the hazard-audit trace), the analytic
/// cost estimate, and the host task time.
struct Recorded<S: Scalar = f64> {
    f: MatOf<S>,
    costs: Vec<sc_gpu::KernelCost>,
    accesses: Vec<sc_gpu::SlotAccess>,
    estimate: CostEstimate,
    host_seconds: f64,
}

/// Phase 1 of the scheduled/cluster drivers: host-parallel numerics through
/// [`RecordingExec`], plus per-subdomain analytic cost estimates under
/// `spec` (a reference spec — planners re-price per device as needed).
fn record_scheduled_batch<S: Scalar, Src: BatchSource<S>>(
    src: &Src,
    cfg: &ScConfig,
    spec: &sc_gpu::DeviceSpec,
    cache: &BlockCutsCache,
) -> Vec<Recorded<S>> {
    (0..src.len())
        .into_par_iter()
        .map(|i| {
            let t_host = Instant::now();
            let l = src.factor(i);
            let bt = src.gluing(i);
            let params = cfg.resolve(true, &l, bt);
            let estimate = schedule::estimate_cost_of::<S>(spec, &l, bt, &params, i);
            let mut rec = RecordingExec::new();
            rec.record_upload_csc(&l);
            rec.record_upload_csc(bt);
            let f = assemble_sc_with_cache(&mut rec, &l, bt, cfg, Some(cache));
            rec.record_download_bytes(0); // result stays on device
            let (costs, accesses) = rec.into_recording();
            Recorded {
                f,
                costs,
                accesses,
                estimate,
                host_seconds: t_host.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// Refine the analytic ordering key with the recorded kernel sequence
/// priced by the device's own duration model: at small sizes per-launch
/// overhead dominates raw FLOPs, and the recorder has the exact launch
/// count in hand before anything replays. Estimate indices are renumbered
/// to the slice position (local order).
fn refine_estimates<S: Scalar>(
    recorded: &[&Recorded<S>],
    spec: &sc_gpu::DeviceSpec,
) -> Vec<CostEstimate> {
    recorded
        .iter()
        .enumerate()
        .map(|(local, r)| {
            let mut est = r.estimate.clone();
            est.index = local;
            est.seconds = r.costs.iter().map(|c| spec.kernel_seconds(c)).sum();
            est
        })
        .collect()
}

/// Outcome of one device's replay: the executed schedule and per-subdomain
/// spans (both in the **local** index space of the replayed slice), the
/// arena high water, and the hazard-audit trace of the replay.
struct ReplayOutcome {
    executed: Vec<ScheduledSpan>,
    spans: Vec<Option<(usize, SimSpan)>>,
    temp_high_water: usize,
    trace: Trace,
}

/// Phase 2 of the scheduled/cluster drivers: replay the recorded kernel
/// sequences onto `device` along the per-stream queues `lanes`, admitting each subdomain against
/// the device's temporary arena ("wait") and applying per-subdomain host
/// readiness ("mix"). All indices (`lanes` entries, `estimates`,
/// `ready_at`) are local to the `recorded` slice.
///
/// The replay merges the per-stream queues **kernel by kernel** in
/// stream-clock order: submitting a whole subdomain at once would hand the
/// concurrency slot heap a non-chronological sequence and serialize streams
/// that really overlap.
///
/// Every replay also emits a hazard-audit [`Trace`]: an `Alloc` event at
/// each subdomain's arena admission, one `Kernel` event per replayed launch
/// (stream, span, and the slot read/write sets bound from the recorder's
/// relative accesses), and a `Free` event at the release — plus the
/// device's own span log over the replay window as an independent witness
/// of per-stream serialization. The span log is captured non-destructively:
/// an outer `enable_span_log` caller still drains the full log afterwards.
fn replay_recorded<S: Scalar>(
    device: &std::sync::Arc<Device>,
    recorded: &[&Recorded<S>],
    estimates: &[CostEstimate],
    lanes: &[Vec<usize>],
    ready_at: Option<&[f64]>,
) -> ReplayOutcome {
    let n_streams = lanes.len();
    let mut arena = ArenaSim::new(device.temp_pool().capacity());
    let mut executed: Vec<ScheduledSpan> = Vec::with_capacity(recorded.len());
    let mut spans: Vec<Option<(usize, SimSpan)>> = vec![None; recorded.len()];
    let outer_span_log = device.span_log_enabled();
    device.enable_span_log();
    let span_log_mark = device.span_log_len();
    let mut events: Vec<TraceEvent> =
        Vec::with_capacity(recorded.iter().map(|r| r.costs.len() + 2).sum());
    struct InFlight {
        index: usize,
        kpos: usize,
        admitted_at: f64,
        span: Option<SimSpan>,
        bytes: usize,
        handle: usize,
    }
    let mut next = vec![0usize; n_streams];
    let mut current: Vec<Option<InFlight>> = (0..n_streams).map(|_| None).collect();
    loop {
        // candidates in clock order (ties by id): streams with a kernel in
        // flight, or with a queued subdomain to admit
        let mut order: Vec<usize> = (0..n_streams)
            .filter(|&s| current[s].is_some() || next[s] < lanes[s].len())
            .collect();
        if order.is_empty() {
            break;
        }
        order.sort_by(|&a, &b| {
            device
                .stream_time(a)
                .partial_cmp(&device.stream_time(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut acted = false;
        for s in order {
            if let Some(fl) = current[s].as_mut() {
                // replay the subdomain's next kernel
                let cost = &recorded[fl.index].costs[fl.kpos];
                let access = recorded[fl.index].accesses[fl.kpos];
                let k = device.submit(s, cost, 0.0);
                events.push(TraceEvent::Kernel {
                    label: cost.label,
                    stream: s,
                    span: k,
                    reads: if access.reads {
                        vec![fl.index]
                    } else {
                        Vec::new()
                    },
                    writes: if access.writes {
                        vec![fl.index]
                    } else {
                        Vec::new()
                    },
                });
                fl.kpos += 1;
                fl.span = Some(match fl.span {
                    None => k,
                    Some(acc) => SimSpan {
                        start: acc.start,
                        end: k.end,
                    },
                });
                if fl.kpos == recorded[fl.index].costs.len() {
                    // last kernel replayed: release the arena reservation
                    let fl = current[s].take().expect("in flight");
                    let span = fl.span.unwrap_or(SimSpan {
                        start: fl.admitted_at,
                        end: fl.admitted_at,
                    });
                    arena.close(fl.handle, span.end);
                    events.push(TraceEvent::Free {
                        slot: fl.index,
                        at: span.end,
                    });
                    executed.push(ScheduledSpan {
                        index: fl.index,
                        stream: s,
                        admitted_at: fl.admitted_at,
                        span,
                        temp_bytes: fl.bytes,
                    });
                    spans[fl.index] = Some((s, span));
                }
                acted = true;
                break;
            }
            let i = lanes[s][next[s]];
            // "mix": the subdomain's host preparation finished at ready_at[i]
            if let Some(ready) = ready_at {
                device.advance_stream(s, ready[i]);
            }
            // "wait": stall the stream until the arena can hold the
            // temporaries; blocked by an in-flight holder → let another
            // stream replay first
            let bytes = estimates[i].temp_bytes;
            let Some(admitted_at) = arena.try_admit(bytes, device.stream_time(s)) else {
                continue;
            };
            device.advance_stream(s, admitted_at);
            let handle = arena.open(admitted_at, bytes);
            events.push(TraceEvent::Alloc {
                slot: i,
                bytes,
                at: admitted_at,
            });
            current[s] = Some(InFlight {
                index: i,
                kpos: 0,
                admitted_at,
                span: None,
                bytes,
                handle,
            });
            next[s] += 1;
            acted = true;
            break;
        }
        assert!(
            acted,
            "scheduler deadlock: every stream blocked on the arena with \
             nothing in flight (admission bookkeeping bug)"
        );
    }
    let span_log = device.span_log_since(span_log_mark);
    if !outer_span_log {
        device.disable_span_log();
    }
    ReplayOutcome {
        executed,
        spans,
        temp_high_water: arena.high_water(),
        trace: Trace {
            arena_capacity: device.temp_pool().capacity(),
            // the oversubscription audit compares arena reservations sized
            // with the replay's working precision (satellite of the mixed-
            // precision refactor: 4 for f32 replays, 8 for f64)
            elem_bytes: S::BYTES,
            n_streams,
            concurrency: device.spec().concurrency,
            events,
            span_log,
        },
    }
}

/// Options of the cluster (multi-device) batch driver — the `opts` payload
/// of [`Target::Cluster`](crate::session::Target::Cluster) and
/// [`Target::Hybrid`](crate::session::Target::Hybrid).
///
/// Construct with [`Default`] and the `with_*` setters (the struct is
/// `#[non_exhaustive]`, so it may grow fields without breaking callers):
///
/// ```
/// use sc_core::{ClusterOptions, StreamPolicy};
/// let opts = ClusterOptions::default().with_policy(StreamPolicy::LptLeastLoaded);
/// assert!(opts.ready_at.is_none());
/// ```
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct ClusterOptions {
    /// Per-device stream-assignment policy (the second planning level).
    pub policy: StreamPolicy,
    /// Per-subdomain host-readiness times, indexed like the input batch
    /// (the "mix" configuration; sliced per device by the partition).
    pub ready_at: Option<Vec<f64>>,
}

impl ClusterOptions {
    /// Set the per-device stream-assignment policy.
    pub fn with_policy(mut self, policy: StreamPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set per-subdomain host-readiness times (the "mix" configuration).
    pub fn with_ready_at(mut self, ready_at: Vec<f64>) -> Self {
        self.ready_at = Some(ready_at);
        self
    }
}

/// Outcome of the cluster driver, including the spill channel used by
/// [`Target::Hybrid`](crate::session::Target::Hybrid): subdomains that fit
/// no device arena keep their host-computed `F̃ᵢ` (the record phase computes
/// every subdomain's numerics host-side anyway).
pub(crate) struct ClusterOutcome<S: Scalar = f64> {
    /// Assembled local dual operators, batch order — **including** spilled
    /// subdomains (theirs come from the host record phase).
    pub f: Vec<MatOf<S>>,
    /// One device section per pool device (idle devices keep an empty
    /// share); spilled subdomains appear in no device share and carry
    /// host timings without a device.
    pub report: AssemblyReport,
    /// Batch indices that fit no device arena, ascending.
    pub spilled: Vec<usize>,
}

/// Assemble a batch across a **pool of devices** (the paper's 8-GPU node):
/// subdomains are **recorded once** (host-parallel numerics + kernel-cost
/// sequences, shared block-cut cache), then a two-level plan partitions
/// them across devices — cost-aware LPT under each device's own duration
/// model, with per-device arena-capacity admissibility
/// ([`plan_topology_by`](crate::schedule::plan_topology_by) over one
/// [`Topology::device`] per pool device) — and each device replays its share
/// through the single-device §4.4 machinery of the scheduled driver: stream
/// assignment under [`ClusterOptions::policy`], arena admission,
/// kernel-granular deterministic replay. Numerics stay bitwise identical to
/// the sequential CPU path; the partition only moves work between
/// independent simulated timelines.
///
/// With `allow_spill = false` an over-arena subdomain panics with the
/// descriptive [`ClusterPlanError`]; with `allow_spill = true` it falls
/// back to its host-computed `F̃ᵢ`.
///
/// # Panics
///
/// When the pool is empty, or (without `allow_spill`) when a subdomain's
/// temporaries exceed every device's arena.
pub(crate) fn batch_cluster<S: Scalar, Src: BatchSource<S>>(
    src: Src,
    cfg: &ScConfig,
    pool: &DevicePool,
    opts: &ClusterOptions,
    allow_spill: bool,
) -> ClusterOutcome<S> {
    if let Some(ready) = opts.ready_at.as_ref() {
        assert_eq!(
            ready.len(),
            src.len(),
            "ClusterOptions::ready_at must carry one readiness time per \
             batch item ({} given, {} items)",
            ready.len(),
            src.len()
        );
    }
    let t0 = Instant::now();
    if src.is_empty() {
        let report = AssemblyReport {
            devices: (0..pool.n_devices())
                .map(|device| DeviceReport {
                    device,
                    ..DeviceReport::default()
                })
                .collect(),
            total_seconds: t0.elapsed().as_secs_f64(),
            ..AssemblyReport::default()
        };
        return ClusterOutcome {
            f: Vec::new(),
            report,
            spilled: Vec::new(),
        };
    }

    assert!(
        !pool.is_empty(),
        "cluster partition failed: {}",
        ClusterPlanError::NoDevices
    );

    // phase 1: record every subdomain **once** — the numerics, kernel
    // sequences, and cost estimates feed both planning levels, so a lazy
    // source's factor derivation runs once per subdomain
    let cache = BlockCutsCache::new();
    let ref_spec = pool.device(0).spec().clone();
    let recorded = record_scheduled_batch(&src, cfg, &ref_spec, &cache);

    // level 1: partition across devices, pricing each subdomain's recorded
    // kernel sequence under every device's own duration model — launch
    // overhead and occupancy included, so launch-bound batches do not
    // overload the card with the biggest peak-FLOP number
    let slots: Vec<DeviceSlot> = pool.devices().iter().map(|d| DeviceSlot::of(d)).collect();
    let costs: Vec<CostEstimate> = recorded.iter().map(|r| r.estimate.clone()).collect();
    let kernel_seconds: Vec<Vec<f64>> = recorded
        .iter()
        .map(|r| {
            slots
                .iter()
                .map(|s| r.costs.iter().map(|c| s.spec.kernel_seconds(c)).sum())
                .collect()
        })
        .collect();
    let topo = Topology::node(slots.iter().cloned().map(Topology::device).collect(), None);
    let plan =
        schedule::plan_topology_by(&costs, &topo, |c, path| kernel_seconds[c.index][path[0]])
            // documented batch-API contract: planning failure aborts. sc-analyze: allow(panic-surface)
            .unwrap_or_else(|e| panic!("cluster partition failed: {e}"));
    if !allow_spill && !plan.spilled.is_empty() {
        // documented batch-API contract: spill without opt-in aborts. sc-analyze: allow(panic-surface)
        panic!(
            "cluster partition failed: {}",
            ClusterPlanError::Spilled {
                spilled: plan.spilled,
                max_arena: schedule::max_usable_arena(&slots),
            }
        );
    }

    // level 2: each device plans its share over its own streams (estimates
    // refined under *its own* duration model) and replays it with arena
    // admission, device-by-device for a deterministic simulated timeline
    let mut subdomains = Vec::with_capacity(recorded.len());
    let mut devices = Vec::with_capacity(pool.n_devices());
    let mut makespan = 0.0f64;
    for (d, dev) in pool.devices().iter().enumerate() {
        let idx = &plan.per_child[d];
        let sync0 = dev.synchronize();
        let busy0 = dev.busy_seconds();
        let refs: Vec<&Recorded<S>> = idx.iter().map(|&g| &recorded[g]).collect();
        // local estimates reuse the kernel-cost pricing already computed
        // for the partition — same duration model, priced once
        let estimates: Vec<CostEstimate> = idx
            .iter()
            .enumerate()
            .map(|(local, &g)| {
                let mut e = recorded[g].estimate.clone();
                e.index = local;
                e.seconds = kernel_seconds[g][d];
                e
            })
            .collect();
        let lanes = assign_streams(&estimates, dev.n_streams(), opts.policy);
        let ready_local: Option<Vec<f64>> = opts
            .ready_at
            .as_ref()
            .map(|r| idx.iter().map(|&g| r[g]).collect());
        let mut outcome = replay_recorded(dev, &refs, &estimates, &lanes, ready_local.as_deref());
        let device_makespan = dev.synchronize() - sync0;

        // per-subdomain timings and the schedule, indices remapped back to
        // batch order
        for (local, &g) in idx.iter().enumerate() {
            let (stream, span) = outcome.spans[local].expect("every subdomain was replayed");
            subdomains.push(SubdomainTiming {
                index: g,
                n_dofs: recorded[g].estimate.n_dofs,
                n_lambda: recorded[g].estimate.n_lambda,
                seconds: span.duration(),
                host_seconds: recorded[g].host_seconds,
                stream: Some(stream),
                span: Some(span),
                device: Some(d),
                node: None,
            });
        }
        let mut schedule_log = std::mem::take(&mut outcome.executed);
        for e in &mut schedule_log {
            e.index = idx[e.index];
        }
        makespan = makespan.max(device_makespan);
        devices.push(DeviceReport {
            device: d,
            subdomains: idx.clone(),
            schedule: schedule_log,
            makespan: device_makespan,
            utilization: utilization(dev, busy0, device_makespan),
            temp_high_water: outcome.temp_high_water,
            trace: Some(outcome.trace),
        });
    }

    // spilled subdomains keep their host-computed numerics; report them as
    // host timings (no stream, no device)
    subdomains.extend(plan.spilled.iter().map(|&g| SubdomainTiming {
        index: g,
        n_dofs: recorded[g].estimate.n_dofs,
        n_lambda: recorded[g].estimate.n_lambda,
        seconds: recorded[g].host_seconds,
        host_seconds: recorded[g].host_seconds,
        stream: None,
        span: None,
        device: None,
        node: None,
    }));
    subdomains.sort_by_key(|t| t.index);
    let f: Vec<MatOf<S>> = recorded.into_iter().map(|r| r.f).collect();
    let report = AssemblyReport {
        subdomains,
        devices,
        total_seconds: t0.elapsed().as_secs_f64(),
        makespan,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        ..AssemblyReport::default()
    };
    ClusterOutcome {
        f,
        report,
        spilled: plan.spilled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble_sc;
    use crate::exec::CpuExec;
    use crate::trsm::FactorStorage;
    use sc_factor::{CholOptions, SparseCholesky};
    use sc_gpu::DeviceSpec;
    use sc_sparse::{Coo, Csc};

    /// A small family of SPD matrices + gluing blocks mimicking a cluster of
    /// equal-size subdomains with slightly different couplings.
    fn cluster(nsub: usize, nx: usize, m: usize) -> Vec<(Csc, Csc)> {
        (0..nsub)
            .map(|s| {
                let n = nx * nx;
                let idx = |x: usize, y: usize| y * nx + x;
                let mut c = Coo::new(n, n);
                for y in 0..nx {
                    for x in 0..nx {
                        let v = idx(x, y);
                        c.push(v, v, 4.05 + 0.01 * s as f64);
                        if x > 0 {
                            c.push(v, idx(x - 1, y), -1.0);
                        }
                        if x + 1 < nx {
                            c.push(v, idx(x + 1, y), -1.0);
                        }
                        if y > 0 {
                            c.push(v, idx(x, y - 1), -1.0);
                        }
                        if y + 1 < nx {
                            c.push(v, idx(x, y + 1), -1.0);
                        }
                    }
                }
                let k = c.to_csc();
                let mut b = Coo::new(n, m);
                for j in 0..m {
                    let d = (j * 7919 + s * 131) % n;
                    b.push(d, j, if (j + s).is_multiple_of(2) { 1.0 } else { -1.0 });
                }
                (k, b.to_csc())
            })
            .collect()
    }

    fn factorized(cluster: &[(Csc, Csc)]) -> Vec<(Csc, Csc)> {
        cluster
            .iter()
            .map(|(k, bt)| {
                let chol = SparseCholesky::factorize(k, CholOptions::default()).unwrap();
                (chol.factor_csc(), bt.permute_rows(chol.perm()))
            })
            .collect()
    }

    /// A size-skewed cluster: subdomain grid sizes cycling through `sizes`.
    fn skewed_cluster(nsub: usize, sizes: &[usize], m: usize) -> Vec<(Csc, Csc)> {
        (0..nsub)
            .flat_map(|s| {
                let nx = sizes[s % sizes.len()];
                cluster(1, nx, m.min(nx * nx))
            })
            .collect()
    }

    /// The blind round-robin stream assignment (the paper's 16-stream
    /// submission loop) under the scheduled driver.
    fn round_robin() -> ScheduleOptions {
        ScheduleOptions::default().with_policy(StreamPolicy::RoundRobin)
    }

    #[test]
    fn batch_matches_sequential_bitwise() {
        let data = factorized(&cluster(9, 7, 12));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        for cfg in [
            ScConfig::optimized(false, false),
            ScConfig::optimized(false, true),
            ScConfig::original(FactorStorage::Sparse),
            ScConfig::Auto,
        ] {
            let (f, _) = batch_cpu(items.as_slice(), &cfg);
            assert_eq!(f.len(), items.len());
            for (i, (l, bt)) in data.iter().enumerate() {
                let seq = assemble_sc(&mut CpuExec, l, bt, &cfg);
                assert_eq!(
                    f[i], seq,
                    "batched F̃ must equal sequential F̃ bitwise (subdomain {i})"
                );
            }
        }
    }

    #[test]
    fn cache_is_shared_across_equal_subdomains() {
        let data = factorized(&cluster(8, 6, 10));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(false, false);
        let (_, r) = batch_cpu(items.as_slice(), &cfg);
        // Equal-size subdomains: after the first resolution per (param, n)
        // the rest must hit. With 8 subdomains there are far more lookups
        // than distinct keys.
        assert!(
            r.cache_hits > r.cache_misses,
            "expected mostly hits, got {} hits / {} misses",
            r.cache_hits,
            r.cache_misses
        );
        assert_eq!(r.subdomains.len(), 8);
        assert!(r.subdomains.iter().all(|t| t.seconds >= 0.0));
        assert!(r.subdomains.iter().all(|t| t.host_seconds >= 0.0));
        assert!(r.total_seconds > 0.0);
        assert!(r.cpu_seconds() > 0.0);
        assert_eq!(r.makespan, 0.0, "CPU batch has no device makespan");
        assert!(r.devices.is_empty(), "CPU batch touches no device");
    }

    #[test]
    fn gpu_batch_matches_cpu_batch_and_advances_timeline() {
        let data = factorized(&cluster(8, 6, 10));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let (cpu, _) = batch_cpu(items.as_slice(), &cfg);
        let dev = Device::new(DeviceSpec::a100(), 4);
        let (gpu, report) = batch_scheduled(items.as_slice(), &cfg, &dev, &round_robin());
        for i in 0..items.len() {
            assert_eq!(cpu[i], gpu[i], "backend mismatch at subdomain {i}");
        }
        assert!(dev.synchronize() > 0.0, "device timeline must advance");
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn gpu_timings_are_simulated_and_bounded_by_makespan() {
        // the GPU path must report simulated stream seconds, not host wall
        // time: each subdomain's span lives on one stream, spans on a stream
        // do not overlap, so their sum is at most sync × n_streams
        let data = factorized(&cluster(10, 7, 12));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let dev = Device::new(DeviceSpec::a100(), 3);
        let (_, report) = batch_scheduled(items.as_slice(), &cfg, &dev, &round_robin());
        let sync = dev.synchronize();
        let sum: f64 = report.subdomains.iter().map(|t| t.seconds).sum();
        assert!(
            sum <= sync * dev.n_streams() as f64 + 1e-12,
            "Σ simulated subdomain seconds {sum} must be ≤ sync {sync} × {} streams",
            dev.n_streams()
        );
        for t in &report.subdomains {
            let span = t.span.expect("GPU timings carry spans");
            assert!((span.duration() - t.seconds).abs() < 1e-15);
            assert!(t.stream.is_some());
            assert!(t.host_seconds >= 0.0);
            assert!(span.end <= sync + 1e-15);
        }
        // spans within one stream must not overlap
        for s in 0..dev.n_streams() {
            let mut spans: Vec<SimSpan> = report
                .subdomains
                .iter()
                .filter(|t| t.stream == Some(s))
                .map(|t| t.span.unwrap())
                .collect();
            spans.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in spans.windows(2) {
                assert!(
                    w[1].start >= w[0].end - 1e-15,
                    "stream {s}: spans overlap: {w:?}"
                );
            }
        }
    }

    #[test]
    fn scheduled_matches_sequential_bitwise_and_is_deterministic() {
        let data = factorized(&skewed_cluster(12, &[4, 9, 6, 12], 10));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        for cfg in [ScConfig::optimized(true, false), ScConfig::Auto] {
            let dev = Device::new(DeviceSpec::a100(), 4);
            let (fa, a) =
                batch_scheduled(items.as_slice(), &cfg, &dev, &ScheduleOptions::default());
            for (i, (l, bt)) in data.iter().enumerate() {
                // sequential host reference; RecordingExec resolves Auto with
                // the same GPU-platform flag the scheduled driver uses while
                // computing on the CPU kernels
                let seq = assemble_sc(&mut RecordingExec::new(), l, bt, &cfg);
                assert_eq!(fa[i], seq, "scheduled F̃ must be bitwise sequential ({i})");
                if matches!(cfg, ScConfig::Fixed(_)) {
                    let cpu = assemble_sc(&mut CpuExec, l, bt, &cfg);
                    assert_eq!(fa[i], cpu, "fixed configs match the CPU backend bitwise");
                }
            }
            // reproducible simulated timeline on a fresh device
            let dev2 = Device::new(DeviceSpec::a100(), 4);
            let (_, b) =
                batch_scheduled(items.as_slice(), &cfg, &dev2, &ScheduleOptions::default());
            assert_eq!(dev.synchronize(), dev2.synchronize());
            for (x, y) in a.devices[0].schedule.iter().zip(&b.devices[0].schedule) {
                assert_eq!(x.index, y.index);
                assert_eq!(x.stream, y.stream);
                assert_eq!(x.span, y.span);
            }
        }
    }

    #[test]
    fn scheduled_beats_round_robin_on_skewed_batch() {
        // ≥ 16 subdomains with ≥ 4× dof spread (16 vs 144 dofs): the
        // acceptance workload of the scheduler
        let data = factorized(&skewed_cluster(16, &[12, 4, 4, 4], 10));
        assert!(data.len() >= 16);
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);

        let dev_rr = Device::new(DeviceSpec::a100(), 4);
        let (rr, _) = batch_scheduled(items.as_slice(), &cfg, &dev_rr, &round_robin());
        let dev_s = Device::new(DeviceSpec::a100(), 4);
        let (sched, _) =
            batch_scheduled(items.as_slice(), &cfg, &dev_s, &ScheduleOptions::default());
        assert!(
            dev_s.synchronize() < dev_rr.synchronize(),
            "LPT schedule {} must beat round-robin {}",
            dev_s.synchronize(),
            dev_rr.synchronize()
        );
        assert_eq!(rr, sched, "policy must not change numerics");
    }

    #[test]
    fn scheduled_admission_respects_arena_capacity() {
        // a tiny device: the arena holds one subdomain's temporaries but not
        // two, so admissions must serialize
        let data = factorized(&cluster(6, 8, 14));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let spec = DeviceSpec {
            memory_bytes: 128 * 1024, // 64 KiB arena
            ..DeviceSpec::a100()
        };
        let dev = Device::new(spec, 4);
        let capacity = dev.temp_pool().capacity();
        let (_, res) = batch_scheduled(
            items.as_slice(),
            &ScConfig::optimized(true, false),
            &dev,
            &ScheduleOptions::default(),
        );
        assert!(res.temp_high_water() <= capacity);
        assert!(res.temp_high_water() > 0);
        assert_eq!(res.devices[0].schedule.len(), items.len());
        // at least one stream must have stalled for the arena: its subdomain
        // was admitted strictly after the stream's previous work ended (no
        // ready_at is set, so nothing else can delay admission)
        let mut prev_end = vec![0.0f64; dev.n_streams()];
        let mut waited = false;
        for e in &res.devices[0].schedule {
            if e.admitted_at > prev_end[e.stream] + 1e-15 {
                waited = true;
            }
            prev_end[e.stream] = e.span.end;
        }
        assert!(waited, "tiny arena must force admission waits");

        // control: with the full A100 arena the same batch never stalls
        let dev_big = Device::new(DeviceSpec::a100(), 4);
        let (_, res_big) = batch_scheduled(
            items.as_slice(),
            &ScConfig::optimized(true, false),
            &dev_big,
            &ScheduleOptions::default(),
        );
        let mut prev_end = vec![0.0f64; dev_big.n_streams()];
        for e in &res_big.devices[0].schedule {
            assert!(
                e.admitted_at <= prev_end[e.stream] + 1e-15,
                "unconstrained arena must admit without stalls (subdomain {})",
                e.index
            );
            prev_end[e.stream] = e.span.end;
        }
    }

    #[test]
    fn scheduled_mix_applies_host_readiness() {
        let data = factorized(&cluster(4, 6, 8));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let dev = Device::new(DeviceSpec::a100(), 2);
        let ready = vec![0.5, 0.25, 0.0, 1.0];
        let (_, res) = batch_scheduled(
            items.as_slice(),
            &ScConfig::optimized(true, false),
            &dev,
            &ScheduleOptions::default()
                .with_policy(StreamPolicy::LptLeastLoaded)
                .with_ready_at(ready.clone()),
        );
        for e in &res.devices[0].schedule {
            assert!(
                e.span.start >= ready[e.index] - 1e-15,
                "subdomain {} started at {} before its host readiness {}",
                e.index,
                e.span.start,
                ready[e.index]
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let empty: &[BatchItem] = &[];
        let (f, report) = batch_cpu(empty, &ScConfig::optimized(false, false));
        assert!(f.is_empty());
        assert_eq!(report.cache_hits + report.cache_misses, 0);
        let dev = Device::new(DeviceSpec::a100(), 2);
        let (rr, _) = batch_scheduled(
            empty,
            &ScConfig::optimized(true, false),
            &dev,
            &round_robin(),
        );
        assert!(rr.is_empty());
        let (sched, report) =
            batch_scheduled(empty, &ScConfig::Auto, &dev, &ScheduleOptions::default());
        assert!(sched.is_empty());
        assert!(report.devices.is_empty());
        // empty batches never touch the device timeline
        assert_eq!(dev.synchronize(), 0.0);
        assert_eq!(dev.launches(), 0);
        // cluster driver: clean empty report, even on an empty pool
        let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
        let cl = batch_cluster(
            empty,
            &ScConfig::Auto,
            &pool,
            &ClusterOptions::default(),
            false,
        );
        assert!(cl.f.is_empty());
        assert_eq!(cl.report.devices.len(), 2);
        assert_eq!(cl.report.makespan, 0.0);
        assert!(cl.report.subdomains.is_empty());
        let none = DevicePool::from_devices(Vec::new());
        let cl = batch_cluster(
            empty,
            &ScConfig::Auto,
            &none,
            &ClusterOptions::default(),
            false,
        );
        assert!(cl.f.is_empty() && cl.report.devices.is_empty());
    }

    #[test]
    fn zero_stream_devices_are_rejected_with_a_clear_error() {
        let data = factorized(&cluster(2, 5, 6));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        // empty batches are fine even on a 0-stream device, under either
        // stream policy
        let empty: &[BatchItem] = &[];
        let dev0 = Device::new(DeviceSpec::a100(), 0);
        for opts in [round_robin(), ScheduleOptions::default()] {
            assert!(batch_scheduled(empty, &cfg, &dev0, &opts).0.is_empty());
        }
        // non-empty batches fail with a descriptive message, not an index panic
        for opts in [round_robin(), ScheduleOptions::default()] {
            let items = items.clone();
            let dev = Device::new(DeviceSpec::a100(), 0);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                batch_scheduled(items.as_slice(), &cfg, &dev, &opts);
            }))
            .unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
            assert!(msg.contains("0 streams"), "unexpected panic: {msg}");
        }
    }

    #[test]
    fn cluster_matches_sequential_bitwise_and_places_each_subdomain_once() {
        let data = factorized(&skewed_cluster(12, &[4, 9, 6, 12], 10));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        for cfg in [ScConfig::optimized(true, false), ScConfig::Auto] {
            let pool = DevicePool::uniform(DeviceSpec::a100(), 3, 2);
            let res = batch_cluster(
                items.as_slice(),
                &cfg,
                &pool,
                &ClusterOptions::default(),
                false,
            );
            for (i, (l, bt)) in data.iter().enumerate() {
                let seq = assemble_sc(&mut RecordingExec::new(), l, bt, &cfg);
                assert_eq!(res.f[i], seq, "cluster F̃ must be bitwise sequential ({i})");
                if matches!(cfg, ScConfig::Fixed(_)) {
                    let cpu = assemble_sc(&mut CpuExec, l, bt, &cfg);
                    assert_eq!(res.f[i], cpu, "fixed configs match the CPU backend bitwise");
                }
            }
            // partition integrity
            let report = &res.report;
            let mut seen: Vec<usize> = report
                .devices
                .iter()
                .flat_map(|d| d.subdomains.iter().copied())
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..items.len()).collect::<Vec<_>>());
            for i in 0..items.len() {
                let d = report
                    .device_of(i)
                    .expect("every subdomain ran on a device");
                assert!(report.devices[d].subdomains.contains(&i));
            }
            // roll-up consistency
            assert_eq!(
                report.makespan,
                report
                    .devices
                    .iter()
                    .map(|d| d.makespan)
                    .fold(0.0, f64::max)
            );
            assert_eq!(report.subdomains.len(), items.len());
            for (i, t) in report.subdomains.iter().enumerate() {
                assert_eq!(t.index, i, "timings must be in batch order");
            }
            assert!(report
                .devices
                .iter()
                .all(|d| (0.0..=1.0).contains(&d.utilization)));
        }
    }

    #[test]
    fn cluster_beats_single_device_on_skewed_batches() {
        let data = factorized(&skewed_cluster(16, &[12, 4, 6, 3], 10));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let one = DevicePool::uniform(DeviceSpec::a100(), 1, 4);
        let r1 = batch_cluster(
            items.as_slice(),
            &cfg,
            &one,
            &ClusterOptions::default(),
            false,
        );
        let four = DevicePool::uniform(DeviceSpec::a100(), 4, 4);
        let r4 = batch_cluster(
            items.as_slice(),
            &cfg,
            &four,
            &ClusterOptions::default(),
            false,
        );
        assert!(
            r4.report.makespan < r1.report.makespan,
            "4 devices ({}) must beat 1 device ({})",
            r4.report.makespan,
            r1.report.makespan
        );
        // the single-device cluster path is exactly the scheduled driver
        let dev = Device::new(DeviceSpec::a100(), 4);
        let (sched, report) =
            batch_scheduled(items.as_slice(), &cfg, &dev, &ScheduleOptions::default());
        assert_eq!(r1.report.makespan, report.makespan);
        for (i, f) in sched.iter().enumerate() {
            assert_eq!(&r1.f[i], f);
            assert_eq!(r1.f[i], r4.f[i], "device count must not change numerics");
        }
    }

    #[test]
    fn heterogeneous_pool_falls_back_to_the_big_card() {
        // big subdomains whose temporaries exceed the tiny card's 512 KiB
        // arena (8 n m > 2¹⁹ needs n·m > 65536): the planner must route
        // them to the A100, small ones may go anywhere
        let data = factorized(&skewed_cluster(4, &[31, 3], 70));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let pool =
            DevicePool::heterogeneous(&[DeviceSpec::a100(), DeviceSpec::tiny_test_device()], 2);
        let tiny_arena = pool.device(1).temp_pool().capacity();
        let spec = pool.device(0).spec().clone();
        let mut oversized = 0;
        for (i, it) in items.iter().enumerate() {
            let params = cfg.resolve(true, it.l, it.bt);
            let est = crate::schedule::estimate_cost(&spec, it.l, it.bt, &params, i);
            if est.temp_bytes > tiny_arena {
                oversized += 1;
            }
        }
        assert!(
            oversized > 0,
            "workload must contain tiny-card-oversized subdomains"
        );
        let res = batch_cluster(
            items.as_slice(),
            &cfg,
            &pool,
            &ClusterOptions::default(),
            false,
        );
        for (i, it) in items.iter().enumerate() {
            let params = cfg.resolve(true, it.l, it.bt);
            let est = crate::schedule::estimate_cost(&spec, it.l, it.bt, &params, i);
            if est.temp_bytes > tiny_arena {
                assert_eq!(
                    res.report.device_of(i),
                    Some(0),
                    "oversized subdomain {i} must run on the big card"
                );
            }
            let seq = assemble_sc(&mut CpuExec, it.l, it.bt, &cfg);
            assert_eq!(res.f[i], seq, "heterogeneous F̃ deviates at {i}");
        }
        // per-device arenas were never oversubscribed
        for (d, rep) in res.report.devices.iter().enumerate() {
            assert!(rep.temp_high_water <= pool.device(d).temp_pool().capacity());
        }
    }

    #[test]
    fn cluster_mix_applies_host_readiness() {
        let data = factorized(&cluster(6, 6, 8));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
        let ready: Vec<f64> = (0..items.len()).map(|i| 0.25 * i as f64).collect();
        let res = batch_cluster(
            items.as_slice(),
            &ScConfig::optimized(true, false),
            &pool,
            &ClusterOptions::default()
                .with_policy(StreamPolicy::LptLeastLoaded)
                .with_ready_at(ready.clone()),
            false,
        );
        for rep in &res.report.devices {
            for e in &rep.schedule {
                assert!(
                    e.span.start >= ready[e.index] - 1e-15,
                    "subdomain {} started at {} before its readiness {}",
                    e.index,
                    e.span.start,
                    ready[e.index]
                );
            }
        }
    }

    #[test]
    fn cluster_routes_around_a_zero_stream_device() {
        // a pool carrying a drained (0-stream) card next to a working one:
        // the planner must keep the dead card idle instead of stranding
        // subdomains on it
        let data = factorized(&cluster(5, 6, 8));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = ScConfig::optimized(true, false);
        let pool = DevicePool::from_devices(vec![
            Device::new(DeviceSpec::a100(), 0),
            Device::new(DeviceSpec::a100(), 4),
        ]);
        let res = batch_cluster(
            items.as_slice(),
            &cfg,
            &pool,
            &ClusterOptions::default(),
            false,
        );
        assert!(
            res.report.devices[0].subdomains.is_empty(),
            "dead card must stay idle"
        );
        assert_eq!(res.report.devices[1].subdomains.len(), items.len());
        assert_eq!(pool.device(0).synchronize(), 0.0);
        for (i, (l, bt)) in data.iter().enumerate() {
            let seq = assemble_sc(&mut CpuExec, l, bt, &cfg);
            assert_eq!(res.f[i], seq, "subdomain {i} deviates");
        }
    }

    #[test]
    fn cluster_panics_when_a_subdomain_fits_nowhere() {
        // 8 n m = 8 · 1024 · 80 = 640 KiB of temporaries > the tiny card's
        // 512 KiB arena, on every device of the pool
        let data = factorized(&cluster(1, 32, 80));
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let pool = DevicePool::uniform(DeviceSpec::tiny_test_device(), 2, 2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = batch_cluster(
                items.as_slice(),
                &ScConfig::optimized(true, false),
                &pool,
                &ClusterOptions::default(),
                false,
            );
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains("cluster partition failed"),
            "unexpected panic: {msg}"
        );
    }

    #[test]
    fn empty_and_one_column_subdomains_assemble_cleanly() {
        // a batch mixing a zero-lambda subdomain (empty B̃ᵀ), a one-column
        // subdomain, and a regular one — every driver must return the
        // degenerate 0×0 / 1×1 F̃ cleanly
        let base = factorized(&cluster(1, 6, 9));
        let (l_reg, bt_reg) = base[0].clone();
        let n = l_reg.ncols();
        let bt_empty = Csc::zeros(n, 0);
        let mut one = Coo::new(n, 1);
        one.push(n / 2, 0, 1.0);
        let bt_one = one.to_csc();
        let data = [
            (l_reg.clone(), bt_empty),
            (l_reg.clone(), bt_one),
            (l_reg, bt_reg),
        ];
        let items: Vec<BatchItem<'_>> = data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        for cfg in [
            ScConfig::optimized(false, false),
            ScConfig::optimized(true, true),
            ScConfig::original(FactorStorage::Dense),
            ScConfig::Auto,
        ] {
            let (batch, _) = batch_cpu(items.as_slice(), &cfg);
            assert_eq!(batch[0].nrows(), 0);
            assert_eq!(batch[0].ncols(), 0);
            assert_eq!(batch[1].nrows(), 1);
            assert!(batch[1][(0, 0)] > 0.0, "1×1 F̃ must be positive");
            let dev = Device::new(DeviceSpec::a100(), 2);
            let (rr, _) = batch_scheduled(items.as_slice(), &cfg, &dev, &round_robin());
            let (sched, _) =
                batch_scheduled(items.as_slice(), &cfg, &dev, &ScheduleOptions::default());
            for i in 0..items.len() {
                assert_eq!(batch[i], rr[i], "round-robin mismatch at {i}");
                assert_eq!(batch[i], sched[i], "scheduled mismatch at {i}");
            }
        }
    }
}
