//! The served deployment, the three workloads, and the closed-loop timed
//! phase with its output checks.
//!
//! Every workload talks to one `FairGenServer` behind a `fairgen-rpc`
//! socket on loopback, deployed as the `serving` example deploys it: two
//! shards, two resident models per shard, a fresh checkpoint directory,
//! a 64-entry dedup cache and default admission. Clients are closed-loop:
//! each sends its next request only after the previous answer arrived.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fairgen_core::{FairGenConfig, FairGenGenerator, TaskSpec};
use fairgen_data::{toy_two_community, Dataset, LabeledGraph};
use fairgen_graph::Graph;
use fairgen_par::stream_seed;
use fairgen_rpc::{RpcClient, RpcConfig, RpcServer};
use fairgen_serve::{
    fingerprint_with, FairGenServer, RegistryConfig, ServedFrom, ServerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ledger::Ledger;
use crate::trace::SpanLog;

/// The served model's budget: the `serving` example's, which leaves every
/// other field at its default (d_model 32, walk length 10, 1200 walks per
/// draw).
pub fn model_config() -> FairGenConfig {
    FairGenConfig { num_walks: 200, cycles: 2, ..Default::default() }
}

/// Few-shot labels per class, as in the `serving` example.
const SHOTS: usize = 4;
/// Seeds per `warm_generate` request.
const WARM_BATCH: usize = 4;
/// Fixed requests `dedup_wire` cycles through.
const DEDUP_KEYS: usize = 8;
/// `cold_fit` tenants whose delivered graphs feed the discrepancy.
const COLD_DISCREPANCY_TENANTS: usize = 12;
/// In-process fits of the Blog-shaped task, each with a fit seed of its
/// own, that join the served fit in the discrepancy of `warm_generate` and
/// `dedup_wire`.
const PANEL_FITS: u64 = 16;
/// Graphs each panel fit draws.
const PANEL_DRAWS: u64 = 4;
/// Master seed of the reference requests, the same in every run: the
/// Blog-shaped tenant, the first twelve `cold_fit` tenants,
/// `warm_generate`'s first batch, `dedup_wire`'s eight requests and the
/// panel fits. The protected discrepancy is taken over their answers only,
/// so it is fixed by the program rather than by the workload seed.
///
/// One fit's discrepancy is a poor reference: between fits of one task it
/// has a quartile spread near 35% and moves by up to 2x, so a change of
/// numerics that keeps fairness would read as a large move. The metric is
/// therefore the median over many fits (12 tenants on `cold_fit`, the
/// served fit plus [`PANEL_FITS`] on the other two) of each fit's mean
/// over its draws; `WORKLOADS.md` records how far that median moves when
/// the reference seeds change.
const REFERENCE: u64 = 0x5eed_fa1e;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ColdFit,
    WarmGenerate,
    DedupWire,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ColdFit, Kind::WarmGenerate, Kind::DedupWire];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdFit => "cold_fit",
            Kind::WarmGenerate => "warm_generate",
            Kind::DedupWire => "dedup_wire",
        }
    }

    /// Closed-loop client connections (at most the host's 2 cores).
    pub fn clients(self) -> usize {
        match self {
            Kind::ColdFit => 1,
            Kind::WarmGenerate | Kind::DedupWire => 2,
        }
    }

    /// The one serving path every timed answer must come from.
    pub fn expected(self) -> ServedFrom {
        match self {
            Kind::ColdFit => ServedFrom::ColdFit,
            Kind::WarmGenerate => ServedFrom::Memory,
            Kind::DedupWire => ServedFrom::DedupCache,
        }
    }

    /// Requests each client makes even when the clock has run out, so the
    /// answers the discrepancy and spot checks read always exist; client 0
    /// keeps these answers.
    fn min_requests(self) -> u64 {
        match self {
            Kind::ColdFit => COLD_DISCREPANCY_TENANTS as u64,
            Kind::WarmGenerate | Kind::DedupWire => 1,
        }
    }
}

/// One tenant's request content and the cache key the server must report.
#[derive(Clone, Debug)]
pub struct Tenant {
    pub graph: Graph,
    pub task: TaskSpec,
    pub fit_seed: u64,
    pub fingerprint: String,
}

impl Tenant {
    fn new(lg: &LabeledGraph, seed: u64) -> Tenant {
        let mut rng = StdRng::seed_from_u64(seed);
        let labeled =
            lg.sample_few_shot_labels(SHOTS, &mut rng).expect("benchmark datasets are labeled");
        let task = TaskSpec::new(labeled, lg.num_classes, lg.protected.clone());
        let fit_seed = stream_seed(seed, 1);
        let key = fingerprint_with(
            &FairGenGenerator::new(model_config()),
            &lg.graph,
            &task,
            fit_seed,
        );
        Tenant { graph: lg.graph.clone(), task, fit_seed, fingerprint: key.to_hex() }
    }

    /// `cold_fit` tenant `index`: a two-community toy graph (n = 100,
    /// |S+| = 20) from `master`.
    fn cold(master: u64, index: u64) -> Tenant {
        let tenant_seed = stream_seed(master, index);
        Tenant::new(&toy_two_community(tenant_seed), tenant_seed)
    }

    /// The Blog-shaped tenant (n = 402, m = 2060, six classes) that
    /// `warm_generate` and `dedup_wire` share: `Dataset::Blog.generate(1)`.
    fn blog() -> Tenant {
        Tenant::new(&Dataset::Blog.generate(1), REFERENCE)
    }
}

/// One request a client issues.
pub struct Job<'a> {
    pub tenant: std::borrow::Cow<'a, Tenant>,
    pub seeds: Vec<u64>,
    /// `generate_batch` when true, `generate` otherwise.
    pub batch: bool,
    /// The primed answer a dedup hit must equal.
    pub expect: Option<&'a [Graph]>,
}

impl Job<'_> {
    /// Sends the request and checks the answer: the serving path, the
    /// cache key, one graph per seed, each with the input's node count and
    /// at most its edge count, and equality with the primed answer.
    pub fn execute(
        &self,
        client: &mut RpcClient,
        expected: ServedFrom,
    ) -> (Duration, Result<Vec<Graph>, String>) {
        let t = &*self.tenant;
        let started = Instant::now();
        let answer = if self.batch {
            client.generate_batch(&t.graph, &t.task, t.fit_seed, &self.seeds)
        } else {
            client.generate(&t.graph, &t.task, t.fit_seed, self.seeds[0])
        };
        let latency = started.elapsed();
        let checked = answer.map_err(|e| format!("request failed: {e}")).and_then(|r| {
            if r.served_from != expected {
                return Err(format!("served from {:?}, expected {expected:?}", r.served_from));
            }
            if r.fingerprint != t.fingerprint {
                return Err("answer carries another request's cache key".into());
            }
            if r.graphs.len() != self.seeds.len() {
                return Err(format!(
                    "{} graphs for {} seeds",
                    r.graphs.len(),
                    self.seeds.len()
                ));
            }
            for g in &r.graphs {
                if g.n() != t.graph.n() || g.m() > t.graph.m() {
                    return Err(format!(
                        "delivered graph has n={} m={}, input n={} m={}",
                        g.n(),
                        g.m(),
                        t.graph.n(),
                        t.graph.m()
                    ));
                }
            }
            if self.expect.is_some_and(|want| want != r.graphs.as_slice()) {
                return Err("dedup answer differs from its primed answer".into());
            }
            Ok(r.graphs)
        });
        (latency, checked)
    }
}

/// The server under test.
pub struct Deployment {
    rpc: RpcServer,
    ckpt_dir: PathBuf,
}

impl Deployment {
    pub fn start(ckpt_dir: PathBuf) -> Result<Deployment, String> {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let cfg = model_config();
        let server_cfg = ServerConfig {
            shards: 2,
            registry: RegistryConfig {
                capacity: 2,
                checkpoint_dir: Some(ckpt_dir.clone()),
                ..RegistryConfig::default()
            },
            dedup_capacity: 64,
            ..ServerConfig::default()
        };
        let inner =
            FairGenServer::new(move || Box::new(FairGenGenerator::new(cfg)), server_cfg)
                .map_err(|e| format!("server start: {e}"))?;
        let rpc = RpcServer::serve(inner, RpcConfig::default())
            .map_err(|e| format!("rpc start: {e}"))?;
        Ok(Deployment { rpc, ckpt_dir })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.rpc.local_addr()
    }

    pub fn connect(&self) -> Result<RpcClient, String> {
        RpcClient::connect(self.addr()).map_err(|e| format!("connect: {e}"))
    }

    /// Drains, spills, joins every server thread and removes the
    /// checkpoint directory.
    pub fn stop(mut self) {
        self.rpc.shutdown();
        let _ = std::fs::remove_dir_all(&self.ckpt_dir);
    }
}

/// A workload after set-up: the server is up and primed.
pub struct Prepared {
    pub kind: Kind,
    pub seed: u64,
    /// The shared tenant of `warm_generate` and `dedup_wire`.
    pub blog: Option<Tenant>,
    /// `dedup_wire`'s fixed sample seeds and their primed answers.
    pub primes: Vec<(u64, Vec<Graph>)>,
}

impl Prepared {
    /// Starts a server and primes it. Any failure here aborts the run.
    pub fn setup(
        kind: Kind,
        seed: u64,
        ckpt_dir: PathBuf,
    ) -> Result<(Deployment, Prepared), String> {
        let deployment = Deployment::start(ckpt_dir)?;
        let mut client = deployment.connect()?;
        let mut prep = Prepared { kind, seed, blog: None, primes: Vec::new() };
        let mut prime = |job: Job<'_>, expected| match job.execute(&mut client, expected) {
            (_, Ok(graphs)) => Ok(graphs),
            (_, Err(e)) => Err(format!("set-up request: {e}")),
        };
        match kind {
            // One warm-up fit on a tenant the timed phase never uses.
            Kind::ColdFit => {
                let job = Job {
                    tenant: std::borrow::Cow::Owned(Tenant::cold(seed, u64::MAX)),
                    seeds: vec![stream_seed(seed, 2)],
                    batch: false,
                    expect: None,
                };
                prime(job, ServedFrom::ColdFit)?;
            }
            Kind::WarmGenerate => {
                let blog = Tenant::blog();
                let job = Job {
                    tenant: std::borrow::Cow::Borrowed(&blog),
                    seeds: vec![stream_seed(seed, 3)],
                    batch: false,
                    expect: None,
                };
                prime(job, ServedFrom::ColdFit)?;
                prep.blog = Some(blog);
            }
            Kind::DedupWire => {
                let blog = Tenant::blog();
                for i in 0..DEDUP_KEYS as u64 {
                    let sample_seed = stream_seed(REFERENCE, 100 + i);
                    let job = Job {
                        tenant: std::borrow::Cow::Borrowed(&blog),
                        seeds: vec![sample_seed],
                        batch: false,
                        expect: None,
                    };
                    let expected =
                        if i == 0 { ServedFrom::ColdFit } else { ServedFrom::Memory };
                    prep.primes.push((sample_seed, prime(job, expected)?));
                }
                prep.blog = Some(blog);
            }
        }
        Ok((deployment, prep))
    }

    /// Request number `index` of the workload. Indices are dealt out
    /// round-robin across clients, so which seeds and tenants a run uses
    /// depends on the seed alone, never on timing. The first requests are
    /// the reference ones (see [`REFERENCE`]); the rest come from the seed.
    pub fn job(&self, index: u64) -> Job<'_> {
        let blog =
            || std::borrow::Cow::Borrowed(self.blog.as_ref().expect("set-up made the tenant"));
        match self.kind {
            Kind::ColdFit => {
                let tenant = if index < COLD_DISCREPANCY_TENANTS as u64 {
                    Tenant::cold(REFERENCE, index)
                } else {
                    Tenant::cold(self.seed, index)
                };
                let seeds = vec![stream_seed(tenant.fit_seed, 2)];
                Job {
                    tenant: std::borrow::Cow::Owned(tenant),
                    seeds,
                    batch: false,
                    expect: None,
                }
            }
            Kind::WarmGenerate => {
                let master = if index == 0 { REFERENCE } else { self.seed };
                Job {
                    tenant: blog(),
                    seeds: (0..WARM_BATCH as u64)
                        .map(|j| stream_seed(master, 1_000 + index * WARM_BATCH as u64 + j))
                        .collect(),
                    batch: true,
                    expect: None,
                }
            }
            // The seed sets where in the cycle of eight keys the clients
            // start.
            Kind::DedupWire => {
                let key = (index.wrapping_add(self.seed) % DEDUP_KEYS as u64) as usize;
                let (sample_seed, graphs) = &self.primes[key];
                Job {
                    tenant: blog(),
                    seeds: vec![*sample_seed],
                    batch: false,
                    expect: Some(graphs),
                }
            }
        }
    }

    /// The served fits the protected discrepancy is taken over, each as its
    /// input and the graphs it delivered to the reference requests of a
    /// phase that started at request 0: `cold_fit`'s first twelve tenants,
    /// `warm_generate`'s first batch, `dedup_wire`'s eight primed answers.
    pub fn discrepancy_fits<'a>(
        &'a self,
        phase: &'a Phase,
    ) -> Result<Vec<(Tenant, Vec<&'a Graph>)>, String> {
        let answer = |index: u64| {
            phase
                .first
                .iter()
                .find(|(i, _)| *i == index)
                .map(|(_, graphs)| graphs)
                .ok_or_else(|| format!("reference request {index} has no checked answer"))
        };
        let blog = || self.blog.clone().expect("set-up made the tenant");
        Ok(match self.kind {
            Kind::ColdFit => (0..COLD_DISCREPANCY_TENANTS as u64)
                .map(|i| Ok((self.job(i).tenant.into_owned(), vec![&answer(i)?[0]])))
                .collect::<Result<_, String>>()?,
            Kind::WarmGenerate => vec![(blog(), answer(0)?.iter().collect())],
            Kind::DedupWire => {
                vec![(blog(), self.primes.iter().map(|(_, graphs)| &graphs[0]).collect())]
            }
        })
    }

    /// The in-process fits that join the served ones in the discrepancy:
    /// `(tenant, fit seed, draw seeds)`. None on `cold_fit`, whose twelve
    /// served tenants are enough.
    pub fn panel(&self) -> Vec<(&Tenant, u64, Vec<u64>)> {
        let Some(blog) = &self.blog else { return Vec::new() };
        let draws: Vec<u64> =
            (0..PANEL_DRAWS).map(|d| stream_seed(REFERENCE, 300 + d)).collect();
        (0..PANEL_FITS)
            .map(|j| (blog, stream_seed(REFERENCE, 200 + j), draws.clone()))
            .collect()
    }
}

/// The outcome of one timed phase.
pub struct Phase {
    pub ledger: Ledger,
    pub elapsed: Duration,
    /// Process CPU time over the whole phase, ms.
    pub cpu_ms: f64,
    /// Host steal time over the phase: a diagnostic for noisy runs.
    pub steal_ms: f64,
    /// Client 0's first answers that passed their checks, by request
    /// index: what the discrepancy and the spot check read.
    pub first: Vec<(u64, Vec<Graph>)>,
    /// The first request index a following phase may use.
    pub next_index: u64,
}

/// Runs every client closed-loop against `addr` for `seconds` (and at
/// least [`Kind::min_requests`] each), starting at request `first_index`.
/// With a span log, each client call is recorded as a span.
pub fn run_phase(
    prep: &Prepared,
    addr: std::net::SocketAddr,
    seconds: f64,
    first_index: u64,
    spans: Option<&SpanLog>,
) -> Result<Phase, String> {
    let clients = prep.kind.clients() as u64;
    let mut conns = (0..clients)
        .map(|_| RpcClient::connect(addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let expected = prep.kind.expected();
    let merged = Mutex::new((Ledger::default(), Vec::new(), first_index));
    crate::procfs::reset_peak_rss();
    let cpu_before = crate::procfs::cpu_ms();
    let steal_before = crate::procfs::steal_ms();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for (c, client) in conns.iter_mut().enumerate() {
            let merged = &merged;
            scope.spawn(move || {
                let mut ledger = Ledger::default();
                let mut first = Vec::new();
                let mut k = 0u64;
                while k < prep.kind.min_requests() || Instant::now() < deadline {
                    let index = first_index + k * clients + c as u64;
                    let job = prep.job(index);
                    let call_start = Instant::now();
                    let (latency, outcome) = job.execute(client, expected);
                    if let Some(log) = spans {
                        let method =
                            if job.batch { "client.generate_batch" } else { "client.generate" };
                        log.record(method, call_start, call_start + latency, None, index);
                    }
                    if c == 0 && k < prep.kind.min_requests() {
                        if let Ok(graphs) = &outcome {
                            first.push((index, graphs.clone()));
                        }
                    }
                    ledger.record(latency, outcome.map(|g| g.len()));
                    k += 1;
                }
                let mut m = merged.lock().expect("no client panics while holding the ledger");
                m.0.merge(ledger);
                m.1.extend(first);
                m.2 = m.2.max(first_index + k * clients);
            });
        }
    });
    let elapsed = started.elapsed();
    let cpu_ms = crate::procfs::cpu_ms() - cpu_before;
    let steal_ms = crate::procfs::steal_ms() - steal_before;
    let (ledger, first, next_index) = merged.into_inner().expect("clients joined");
    Ok(Phase { ledger, elapsed, cpu_ms, steal_ms, first, next_index })
}

impl Phase {
    /// Graphs delivered per second of the whole phase, from the first
    /// request sent to the last answer checked.
    pub fn graphs_per_s(&self) -> f64 {
        self.ledger.graphs as f64 / self.elapsed.as_secs_f64()
    }

    /// Process CPU time over the whole phase per graph delivered.
    pub fn cpu_ms_per_graph(&self) -> f64 {
        self.cpu_ms / self.ledger.graphs as f64
    }
}
