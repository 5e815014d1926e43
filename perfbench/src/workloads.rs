//! The four workloads: set-up, one pass, and the output checks run on
//! every pass.
//!
//! Every workload drives the simulator only through its public entry
//! points. A pass is one closed-loop unit of work; the same workload and
//! seed give the same inputs on every pass, so every pass must produce
//! the same simulated statistics (the digest) — a pass whose digest
//! differs from the first pass's fails.

use std::sync::Arc;

use mmg_attn::AttnImpl;
use mmg_core::experiments::fleet_sweep::{device_for_sku, sku_price_per_gpu_hr, SKUS};
use mmg_core::experiments::serve_common::{profile_mix, ProfiledMix};
use mmg_core::{run_experiment_with, ExecContext, ExperimentId};
use mmg_gpu::DeviceSpec;
use mmg_models::ModelId;
use mmg_profiler::CostMemo;
use mmg_serve::{
    run_cluster, simulate, simulate_token, ArrivalProcess, AutoscalerPolicy, ClusterCfg, FleetCfg,
    FleetReport, FleetResult, KvAdmission, KvLedger, LengthDist, PhasePriority, RequestMix,
    RouterKind, ScenarioCfg, SchedulerKind, ServiceProfile, SloReport, SloSpec, TokenBatching,
    TokenReport, TokenScenarioCfg, TokenServiceCurve, TokenSlo,
};
use mmg_telemetry::Registry;

use crate::stats::Digest;
use crate::trace::Tracer;

/// The profiling experiments `characterize` runs, in this order.
pub const CHARACTERIZE: [&str; 15] = [
    "fig5",
    "fig6",
    "table2",
    "table3",
    "fig7",
    "fig8",
    "fig9",
    "fig11",
    "fig12",
    "fig13",
    "flashdec",
    "optimize",
    "batch",
    "ablations",
    "pods",
];

/// Offered load of every DES workload, as a fraction of capacity.
const UTILIZATION: f64 = 0.8;
/// `serve`: expected simulated arrivals per pass.
const SERVE_ARRIVALS: f64 = 600_000.0;
/// `token`: expected decoded tokens per pass.
const TOKEN_DECODED: f64 = 8_000_000.0;
/// `fleet`: expected simulated arrivals per pass, fleet-wide.
const FLEET_ARRIVALS: f64 = 8_000_000.0;
/// `fleet`: clusters, GPUs per cluster, and evaluation windows.
const FLEET_CLUSTERS: usize = 8;
const FLEET_GPUS: usize = 16;
const FLEET_WINDOWS: usize = 12;
/// The request mix of `serve` and `fleet`.
const MIX: &str = "sd:8,parti:2";

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The profiling experiments from a cold memo.
    Characterize,
    /// The batch serving DES.
    Serve,
    /// The token-level serving DES.
    Token,
    /// The multi-cluster fleet DES.
    Fleet,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [Kind::Characterize, Kind::Serve, Kind::Token, Kind::Fleet];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Characterize => "characterize",
            Kind::Serve => "serve",
            Kind::Token => "token",
            Kind::Fleet => "fleet",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Result<Kind, String> {
        Kind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                format!("unknown workload {s:?}; expected characterize | serve | token | fleet")
            })
    }

    /// What one simulated work unit of this workload is.
    pub fn unit(self) -> &'static str {
        match self {
            Kind::Characterize => "profiled operators",
            Kind::Serve | Kind::Fleet => "simulated arrivals",
            Kind::Token => "decoded tokens",
        }
    }
}

/// What one pass produced.
#[derive(Debug, Clone)]
pub struct PassOut {
    /// Digest of the simulated statistics (host times excluded).
    pub digest: u64,
    /// Simulated work units done (see [`Kind::unit`]).
    pub units: u64,
    /// Named counts from the pass's outputs, for the per-layer report.
    pub counts: Vec<(&'static str, f64)>,
}

/// A set-up workload, ready to run passes.
pub trait Workload {
    /// Runs one pass and checks its outputs; `Err` names the failed check.
    fn pass(&mut self, tr: &Tracer) -> Result<PassOut, String>;

    /// Extra per-layer figures about the last pass that are too costly to
    /// collect inside it (traced run only, outside every span).
    fn inspect(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Sets `kind` up for `seed`: builds its context, a fresh cost memo and,
/// for the DES workloads, the service profiles or curves.
pub fn setup(kind: Kind, seed: u64, tr: &Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        Kind::Characterize => Box::new(Characterize::setup()?),
        Kind::Serve => Box::new(Serve::setup(seed, tr)?),
        Kind::Token => Box::new(Token::setup(seed, tr)),
        Kind::Fleet => Box::new(Fleet::setup(seed, tr)?),
    })
}

fn a100() -> DeviceSpec {
    DeviceSpec::a100_80gb()
}

/// A context with its own registry and a fresh (cold) cost memo.
fn cold_context(spec: DeviceSpec) -> ExecContext {
    ExecContext::isolated(spec, Arc::new(CostMemo::new()))
}

// ---------------------------------------------------------------------------
// characterize
// ---------------------------------------------------------------------------

/// The profiling experiments, serially on A100, each pass from a fresh
/// memo (every `repro` process pays the cold memo). The experiments have
/// no random inputs, so the seed does not change them.
struct Characterize {
    ids: Vec<ExperimentId>,
    /// The cold context of the next pass: set-up makes the first one,
    /// and each later pass makes its own.
    ctx: Option<ExecContext>,
    /// Registry and per-experiment time windows (registry clock, µs) of
    /// the last pass, kept for [`Workload::inspect`] in the traced run.
    last: Option<(Registry, Vec<(f64, f64)>)>,
}

impl Characterize {
    fn setup() -> Result<Self, String> {
        let ids = CHARACTERIZE
            .iter()
            .map(|s| s.parse::<ExperimentId>().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Characterize {
            ids,
            ctx: Some(cold_context(a100())),
            last: None,
        })
    }
}

impl Workload for Characterize {
    fn pass(&mut self, tr: &Tracer) -> Result<PassOut, String> {
        let ctx = self.ctx.take().unwrap_or_else(|| cold_context(a100()));
        let mut digest = Digest::default();
        let mut windows = Vec::with_capacity(self.ids.len());
        for &id in &self.ids {
            let t0 = ctx.registry.epoch_us();
            let out = tr.span(&format!("core.experiment.{id}"), || {
                run_experiment_with(id, &ctx)
            });
            windows.push((t0, ctx.registry.epoch_us()));
            digest.str(&out);
        }
        let (hits, misses) = (ctx.memo.hits(), ctx.memo.misses());
        if tr.enabled() {
            self.last = Some((ctx.registry, windows));
        }
        Ok(PassOut {
            digest: digest.finish(),
            units: hits + misses,
            counts: vec![
                ("profiler.memo_lookups", (hits + misses) as f64),
                ("profiler.memo_hits", hits as f64),
            ],
        })
    }

    /// Share of the experiments' host time outside the profiler's own
    /// per-op spans (the union of every span in the pass registry).
    fn inspect(&mut self) -> Vec<(&'static str, f64)> {
        let Some((registry, windows)) = self.last.take() else {
            return Vec::new();
        };
        let mut spans: Vec<(f64, f64)> = registry
            .finished_spans()
            .iter()
            .map(|s| (s.start_us, s.start_us + s.dur_us))
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut covered, mut reach) = (0.0, f64::NEG_INFINITY);
        for (a, b) in spans {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let total: f64 = windows.iter().map(|(a, b)| b - a).sum();
        vec![(
            "profiler.unattributed_frac",
            1.0 - covered / total.max(1e-9),
        )]
    }
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// The batch DES on 4×A100: `sd:8,parti:2`, Poisson at 0.8 of batch-1
/// capacity, dynamic batching (cap 16), streaming stats.
struct Serve {
    cfg: ScenarioCfg,
    profile: ServiceProfile,
}

impl Serve {
    fn setup(seed: u64, tr: &Tracer) -> Result<Self, String> {
        let gpus = 4;
        let mix = RequestMix::parse(MIX)?;
        let models: Vec<ModelId> = mix.models().collect();
        let ctx = cold_context(a100());
        let profile = tr.span("serve.cluster.profile", || {
            ServiceProfile::from_profiler(
                &ctx.profiler(AttnImpl::Flash),
                &models,
                &[1, 2, 4, 8, 16],
            )
        });
        let rate = UTILIZATION * gpus as f64 / profile.mean_base_s(&mix);
        let mut cfg = ScenarioCfg::new(
            gpus,
            mix,
            ArrivalProcess::poisson(rate),
            SchedulerKind::Dynamic { max_batch: 16 },
            SloSpec::ServiceMultiple(4.0),
            SERVE_ARRIVALS / rate,
            seed,
        );
        cfg.full_records = false;
        Ok(Serve { cfg, profile })
    }
}

impl Workload for Serve {
    fn pass(&mut self, tr: &Tracer) -> Result<PassOut, String> {
        let registry = Registry::new();
        let r = tr.span("serve.cluster.simulate", || {
            simulate(&self.cfg, &self.profile, &registry)
        });
        tr.units("serve.cluster.simulate", r.arrivals);
        let report = tr.span("render.report", || SloReport::from_result(&r).render());
        let prom = tr.span("render.prom", || registry.render_prometheus());

        let s = &r.stats;
        if r.arrivals != s.completed + r.dropped + r.abandoned {
            return Err(format!(
                "conservation: {} arrivals != {} completed + {} dropped + {} abandoned",
                r.arrivals, s.completed, r.dropped, r.abandoned
            ));
        }
        // Little's law on the occupancy integral: ∫n(t)dt equals the summed
        // sojourn of every request (abandoned ones contribute their wait).
        let sojourn = s.latency_sum_s + r.abandoned_wait_s;
        if (r.area_requests_s - sojourn).abs() > 1e-6 * sojourn.max(1.0) {
            return Err(format!(
                "Little's law: area {} s != summed sojourn {sojourn} s",
                r.area_requests_s
            ));
        }
        let mut d = Digest::default();
        d.str(&report).str(&prom);
        d.u64(r.arrivals)
            .u64(r.dropped)
            .u64(r.abandoned)
            .u64(s.completed)
            .u64(s.on_time);
        d.f64(s.latency_sum_s).f64(r.area_requests_s).f64(r.end_s);
        r.busy_s.iter().for_each(|&b| {
            d.f64(b);
        });
        Ok(PassOut {
            digest: d.finish(),
            units: r.arrivals,
            counts: vec![
                ("serve.cluster.arrivals", r.arrivals as f64),
                (
                    "serve.cluster.mean_batch",
                    s.batch_sum as f64 / s.completed.max(1) as f64,
                ),
            ],
        })
    }
}

// ---------------------------------------------------------------------------
// token
// ---------------------------------------------------------------------------

/// The token DES serving LLaMA2 on 4 GPUs: continuous batching (cap 32),
/// prompt 512 / output 128 (σ 0.3), chunk 512, decode priority, the
/// default KV budget, Poisson at 0.8 utilization.
struct Token {
    cfg: TokenScenarioCfg,
    curve: TokenServiceCurve,
    kv_budget: u64,
}

impl Token {
    fn setup(seed: u64, tr: &Tracer) -> Self {
        let (gpus, cap) = (4usize, 32usize);
        let spec = a100();
        let ctx = cold_context(spec.clone());
        let curve = tr.span("serve.token.curve", || {
            TokenServiceCurve::from_profiler(&ctx.profiler(AttnImpl::Flash), ModelId::Llama2)
        });
        let prompt = LengthDist::new(512.0, 0.3, 16, 4096);
        let output = LengthDist::new(128.0, 0.3, 4, 1024);
        let slo = TokenSlo::from_curve(&curve, prompt.mean(), output.mean(), cap);
        let rate =
            UTILIZATION * gpus as f64 / curve.request_gpu_s(prompt.mean(), output.mean(), cap);
        let cfg = TokenScenarioCfg {
            gpus,
            model: ModelId::Llama2,
            arrival: ArrivalProcess::poisson(rate),
            batching: TokenBatching::Continuous { max_batch: cap },
            priority: PhasePriority::Decode,
            admission: KvAdmission::Prompt,
            chunk_tokens: 512,
            duration_s: TOKEN_DECODED / (rate * output.mean()),
            prompt,
            output,
            slo,
            max_requests: None,
            seed,
        };
        let kv_budget = KvLedger::default_budget(&spec, curve.weight_bytes);
        Token {
            cfg,
            curve,
            kv_budget,
        }
    }
}

impl Workload for Token {
    fn pass(&mut self, tr: &Tracer) -> Result<PassOut, String> {
        let registry = Registry::new();
        let r = tr.span("serve.token.simulate", || {
            simulate_token(&self.cfg, &self.curve, self.kv_budget, &registry)
        });
        let s = &r.stats;
        tr.units("serve.token.simulate", s.iterations);
        let report = tr.span("render.report", || TokenReport::from_result(&r).render());
        let prom = tr.span("render.prom", || registry.render_prometheus());

        for (gpu, kv) in r.kv.iter().enumerate() {
            if kv.resident_bytes != 0 || kv.allocated_total - kv.freed_total != 0 {
                return Err(format!(
                    "KV ledger of GPU {gpu} holds {} B after drain ({} allocated, {} freed)",
                    kv.resident_bytes, kv.allocated_total, kv.freed_total
                ));
            }
        }
        if s.completed > s.arrivals {
            return Err(format!(
                "{} completed > {} arrivals",
                s.completed, s.arrivals
            ));
        }
        let mut d = Digest::default();
        d.str(&report).str(&prom);
        for x in [
            s.arrivals,
            s.completed,
            s.on_time,
            s.dropped_oversized,
            s.preemptions,
            s.decoded_tokens,
            s.prefilled_tokens,
            s.iterations,
            s.decode_batch_sum,
        ] {
            d.u64(x);
        }
        d.f64(r.end_s);
        for kv in &r.kv {
            d.u64(kv.allocated_total)
                .u64(kv.peak_resident_bytes)
                .u64(kv.preemptions);
        }
        Ok(PassOut {
            digest: d.finish(),
            units: s.decoded_tokens,
            counts: vec![
                ("serve.token.iterations", s.iterations as f64),
                ("serve.token.decoded_tokens", s.decoded_tokens as f64),
                ("serve.token.preemptions", s.preemptions as f64),
                (
                    "serve.token.mean_decode_batch",
                    s.decode_batch_sum as f64 / s.decode_iterations.max(1) as f64,
                ),
            ],
        })
    }
}

// ---------------------------------------------------------------------------
// fleet
// ---------------------------------------------------------------------------

/// `run_cluster` over 8 clusters × 16 GPUs cycling A100/H100/L4/H200:
/// FIFO + round-robin (the O(1) fast lane), the fixed policy, Poisson at
/// 0.8 utilization, clusters run one after another.
struct Fleet {
    cfg: FleetCfg,
    profiled: Vec<ProfiledMix>,
}

impl Fleet {
    fn setup(seed: u64, tr: &Tracer) -> Result<Self, String> {
        let memo = Arc::new(CostMemo::new());
        let registry = Registry::new();
        let profiled: Vec<ProfiledMix> = tr.span("serve.fleet.profile", || {
            SKUS.iter()
                .map(|sku| profile_mix(&device_for_sku(sku), &memo, &registry, MIX, 1, false))
                .collect()
        });
        let clusters: Vec<ClusterCfg> = (0..FLEET_CLUSTERS)
            .map(|i| {
                let sku = SKUS[i % SKUS.len()];
                ClusterCfg {
                    name: format!("{sku}-{i}"),
                    sku: sku.to_string(),
                    gpus: FLEET_GPUS,
                    price_per_gpu_hr: sku_price_per_gpu_hr(sku),
                    // Capacity-proportional: every cluster sees the same load.
                    weight: FLEET_GPUS as f64 / profiled[i % SKUS.len()].mean_base_s,
                    phase_s: 0.0,
                }
            })
            .collect();
        let rate = UTILIZATION * clusters.iter().map(|c| c.weight).sum::<f64>();
        let duration_s = FLEET_ARRIVALS / rate;
        let cfg = FleetCfg {
            clusters,
            mix: RequestMix::parse(MIX)?,
            arrival: ArrivalProcess::poisson(rate),
            scheduler: SchedulerKind::Fifo,
            router: RouterKind::RoundRobin,
            slo: SloSpec::ServiceMultiple(4.0),
            window_s: duration_s / FLEET_WINDOWS as f64,
            windows: FLEET_WINDOWS,
            autoscaler: AutoscalerPolicy::Fixed,
            seed,
        };
        cfg.validate()?;
        Ok(Fleet { cfg, profiled })
    }
}

impl Workload for Fleet {
    fn pass(&mut self, tr: &Tracer) -> Result<PassOut, String> {
        let registry = Registry::new();
        let clusters = (0..self.cfg.clusters.len())
            .map(|i| {
                let profile = &self.profiled[i % self.profiled.len()].profile;
                tr.span("serve.fleet.run_cluster", || {
                    run_cluster(&self.cfg, i, profile, &registry)
                })
            })
            .collect();
        let result = tr.span("serve.fleet.merge", || FleetResult::from_clusters(clusters));
        tr.units("serve.fleet.run_cluster", result.arrivals());
        let report = tr.span("render.report", || {
            FleetReport::new(&self.cfg, &result).render().to_string()
        });
        let prom = tr.span("render.prom", || registry.render_prometheus());

        // The merged fleet timeline must account for exactly the sum of
        // the clusters' own counters.
        let (mut arrivals, mut completed, mut on_time) = (0u64, 0u64, 0u64);
        for (_, _, w) in result.series.iter() {
            arrivals += w.arrivals;
            completed += w.completed;
            on_time += w.on_time;
        }
        let sum = |f: fn(&mmg_serve::ClusterResult) -> u64| result.clusters.iter().map(f).sum();
        let want: (u64, u64, u64) = (
            sum(|c| c.arrivals),
            sum(|c| c.completed),
            sum(|c| c.on_time),
        );
        if (arrivals, completed, on_time) != want {
            return Err(format!(
                "fleet totals (arrivals, completed, on-time) {:?} != sum of clusters {want:?}",
                (arrivals, completed, on_time)
            ));
        }
        let mut d = Digest::default();
        d.str(&report).str(&prom);
        for c in &result.clusters {
            d.u64(c.arrivals).u64(c.completed).u64(c.on_time);
            d.f64(c.busy_s)
                .f64(c.gpu_hours)
                .f64(c.cost_usd)
                .f64(c.energy_wh);
        }
        Ok(PassOut {
            digest: d.finish(),
            units: result.arrivals(),
            counts: Vec::new(),
        })
    }
}
