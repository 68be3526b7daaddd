//! The serve side: an in-process daemon and one loopback client running
//! write-then-read cycles on fresh alarm samples, each reply checked
//! against the same work done in process.

use crate::learn::{Family, LearnSamples, Outcome, THREADS};
use crate::report::{self, median, quantile, ratio, Report};
use crate::{setup, Args};
use fastbn_core::StructureResult;
use fastbn_data::Dataset;
use fastbn_graph::{dag_to_cpdag, metrics::shd_cpdag, Pdag};
use fastbn_network::{BayesNet, InferenceError, JoinTree, Posterior, Query};
use fastbn_serve::{Client, LearnReply, ServeConfig, Server, ServerHandle, StrategySpec};
use std::time::{Duration, Instant};

/// Rows of each cycle's alarm sample.
const ROWS: usize = 2000;

/// `Infer` batches per cycle, after its write pass.
const BATCHES_PER_CYCLE: usize = 32;

/// Fewest cycles a session runs: 96 × 32 = 3072 batches, three p99
/// windows.
pub const MIN_CYCLES: usize = 96;

/// Consecutive round trips per p99 window: ten lie beyond each window's
/// p99.
const P99_WINDOW: usize = 1000;

/// The CPT smoothing and calibration threads of every fit.
const SMOOTHING: f64 = 1.0;
const CALIBRATE_THREADS: u16 = 2;

/// The median over consecutive `P99_WINDOW`-long windows of each window's
/// p99, so one burst of host noise moves one window, not the result.
fn windowed_p99(rts: &[f64]) -> f64 {
    let p99s: Vec<f64> = rts
        .chunks_exact(P99_WINDOW)
        .map(|w| quantile(w, 0.99))
        .collect();
    if p99s.is_empty() {
        quantile(rts, 0.99)
    } else {
        median(&p99s)
    }
}

/// The serving set-up: the alarm replica, a daemon on loopback and one
/// connected client.
pub struct Fixture {
    net: BayesNet,
    truth: Pdag,
    first: Dataset,
    handle: ServerHandle,
    client: Client,
}

impl Fixture {
    /// Generate the replica and its first sample, bind and connect.
    pub fn start(seed: u64) -> Self {
        let net = crate::replica("alarm");
        let first = net.sample_dataset(ROWS, seed);
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
        let addr = server.local_addr();
        let handle = server.spawn();
        let client = Client::connect(addr).expect("connect to the daemon");
        Self {
            truth: dag_to_cpdag(net.dag()),
            net,
            first,
            handle,
            client,
        }
    }

    /// Shut the daemon down and wait for it to exit.
    pub fn close(mut self) {
        self.client
            .shutdown()
            .expect("daemon acknowledges shutdown");
        self.handle.join().expect("daemon exits cleanly");
    }
}

/// The 64-query serving mix: marginals plus single-variable evidence,
/// round-robined over the network's variables.
fn query_batch(n: usize) -> Vec<Query> {
    (0..64)
        .map(|i| {
            let target = i % n;
            let ev = (target + 7) % n;
            if i % 2 == 0 || ev == target {
                Query::marginal(target)
            } else {
                Query::with_evidence(target, vec![(ev, 0)])
            }
        })
        .collect()
}

type Answers = [Result<Posterior, InferenceError>];

fn same_answers(got: &Answers, want: &Answers) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| match (g, w) {
            (Ok(g), Ok(w)) => {
                g.target == w.target
                    && g.probs.len() == w.probs.len()
                    && g.probs
                        .iter()
                        .zip(&w.probs)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            _ => false,
        })
}

fn same_structure(reply: &LearnReply, want: &StructureResult) -> bool {
    let sorted = |edges: Vec<(usize, usize)>| {
        let mut e: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u as u32, v as u32))
            .collect();
        e.sort_unstable();
        e
    };
    let mut directed = reply.directed_edges.clone();
    let mut undirected = reply.undirected_edges.clone();
    directed.sort_unstable();
    undirected.sort_unstable();
    !reply.cache_hit
        && directed == sorted(want.cpdag.directed_edges())
        && undirected == sorted(want.cpdag.undirected_edges())
}

/// Timings of one cycle's daemon traffic.
struct Served {
    /// Wall time of the write pass (s).
    write_s: f64,
    put_ms: f64,
    learn_ms: f64,
    fit_ms: f64,
    /// Round trip of each `Infer` batch (ms).
    rts: Vec<f64>,
    /// Wall time of the reads (s).
    read_s: f64,
    /// Bytes the reads moved over the connection, both ways.
    read_bytes: u64,
}

/// The daemon traffic of cycle `c`; `None` if a write failed.
fn serve_cycle(
    fx: &mut Fixture,
    c: usize,
    data: &Dataset,
    reference: &StructureResult,
    queries: &[Query],
    expected: &Answers,
    rep: &mut Report,
) -> Option<Served> {
    let spec = StrategySpec::pc(2);
    let batches = vec![queries.to_vec(); BATCHES_PER_CYCLE];
    let writes = Instant::now();
    let t = Instant::now();
    let put = fx.client.put_dataset(data);
    let put_ms = t.elapsed().as_secs_f64() * 1e3;
    rep.check(put.is_ok(), || {
        format!("alarm cycle {c}: put_dataset failed: {put:?}")
    });
    let put = put.ok()?;
    let t = Instant::now();
    let reply = fx.client.learn_by_handle(spec.clone(), put.fingerprint);
    let learn_ms = t.elapsed().as_secs_f64() * 1e3;
    rep.check(
        reply.as_ref().is_ok_and(|r| same_structure(r, reference)),
        || format!("alarm cycle {c}: served structure differs from the in-process learn"),
    );
    let t = Instant::now();
    let fitted = fx
        .client
        .fit_by_handle(spec, put.fingerprint, SMOOTHING, CALIBRATE_THREADS);
    let fit_ms = t.elapsed().as_secs_f64() * 1e3;
    rep.check(fitted.is_ok(), || {
        format!("alarm cycle {c}: fit failed: {fitted:?}")
    });
    let fitted = fitted.ok()?;
    let write_s = writes.elapsed().as_secs_f64();

    let bytes = || {
        let snap = fastbn_obs::global().snapshot();
        report::counter(&snap, "fastbn.serve.conn.bytes_in")
            + report::counter(&snap, "fastbn.serve.conn.bytes_out")
    };
    let bytes0 = bytes();
    let reads = Instant::now();
    let mut rts = Vec::with_capacity(batches.len());
    for batch in batches {
        let t = Instant::now();
        let answers = fx.client.infer(fitted.model_id, batch);
        rts.push(t.elapsed().as_secs_f64() * 1e3);
        rep.check(
            answers
                .as_ref()
                .is_ok_and(|a| same_answers(&a.results, expected)),
            || format!("alarm cycle {c}: served posteriors differ from the in-process ones"),
        );
    }
    let read_s = reads.elapsed().as_secs_f64();
    Some(Served {
        write_s,
        put_ms,
        learn_ms,
        fit_ms,
        rts,
        read_s,
        read_bytes: bytes() - bytes0,
    })
}

/// A run of write-then-read cycles and what they measured. Round trips
/// come from untraced cycles only.
#[derive(Default)]
pub struct Session {
    /// The in-process reference learns on each cycle's sample.
    pub learn: LearnSamples,
    cycles: usize,
    /// The registry when the first cycle started.
    snap0: Option<fastbn_obs::Snapshot>,
    shd: Vec<f64>,
    infer_rt_ms: Vec<f64>,
    put_rt_ms: Vec<f64>,
    learn_rt_ms: Vec<f64>,
    fit_rt_ms: Vec<f64>,
    /// Wall time of each cycle's daemon traffic, untraced / traced.
    cycle_s: [Vec<f64>; 2],
    queries: u64,
    fit_ms: Vec<f64>,
    jt_build_ms: Vec<f64>,
    posteriors_ms: Vec<f64>,
    messages: (u64, u64),
    read_bytes: u64,
    read_queries: u64,
    cycle_unattributed_ms: Vec<f64>,
}

impl Session {
    /// Cycles run so far.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Run one cycle on a fresh alarm sample: the in-process reference,
    /// then `put_dataset`, `learn_by_handle`, `fit_by_handle` and the
    /// `Infer` batches, each reply checked against the reference. With
    /// `traced`, every second cycle runs with tracing on and its parts
    /// timed one by one.
    pub fn cycle(&mut self, fx: &mut Fixture, seed: u64, traced: bool, rep: &mut Report) {
        let c = self.cycles;
        self.cycles += 1;
        self.snap0
            .get_or_insert_with(|| fastbn_obs::global().snapshot());
        let queries = query_batch(fx.net.n());
        let spec = StrategySpec::pc(2);
        // Slot 0 is Fast-BNS-seq; slot 1 is exactly what the daemon runs.
        let strategies = [Family::Pc.strategy(THREADS[0]), spec.to_strategy()];
        let trace_this = traced && c % 2 == 1;
        let data = if c == 0 {
            fx.first.clone()
        } else {
            fx.net.sample_dataset(ROWS, crate::sample_seed(seed, c))
        };

        // The in-process reference, outside the cycle's timer: learn at
        // t=1 and t=2 (which goes first alternates), fit, calibrate, answer.
        let mut learned: [Option<StructureResult>; 2] = [None, None];
        for slot in [c % 2, 1 - c % 2] {
            let fresh = data.clone();
            learned[slot] = Some(
                self.learn
                    .learn(&strategies[slot], &fresh, slot, trace_this),
            );
        }
        let [Some(t1), Some(reference)] = learned else {
            unreachable!("both slots learned")
        };
        rep.check(Outcome::of(&t1) == Outcome::of(&reference), || {
            format!("alarm cycle {c}: t=1 and t=2 learns differ")
        });
        self.learn.keep_first_t1(t1);
        self.shd.push(shd_cpdag(&reference.cpdag, &fx.truth) as f64);
        let t = Instant::now();
        let net = reference.fit(&data, SMOOTHING, "served");
        self.fit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let tree = JoinTree::build(&net, CALIBRATE_THREADS as usize);
        self.jt_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let before = trace_this.then(|| fastbn_obs::global().snapshot());
        let t = Instant::now();
        let expected = tree.posteriors(&queries);
        self.posteriors_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(before) = before {
            let after = fastbn_obs::global().snapshot();
            let delta = |name| report::counter(&after, name) - report::counter(&before, name);
            self.messages.0 += delta("fastbn.network.jointree.messages_reused");
            self.messages.1 += delta("fastbn.network.jointree.messages_recomputed");
        }

        // The daemon: one write pass, then the reads.
        fastbn_obs::set_trace_enabled(trace_this);
        let served = serve_cycle(fx, c, &data, &reference, &queries, &expected, rep);
        fastbn_obs::set_trace_enabled(false);
        let Some(sv) = served else { return };
        let cycle = sv.write_s + sv.read_s;
        let answered = (BATCHES_PER_CYCLE * queries.len()) as u64;
        if trace_this {
            self.read_bytes += sv.read_bytes;
            self.read_queries += answered;
            let parts = sv.put_ms + sv.learn_ms + sv.fit_ms + sv.rts.iter().sum::<f64>();
            self.cycle_unattributed_ms.push(cycle * 1e3 - parts);
            self.cycle_s[1].push(cycle);
        } else {
            self.cycle_s[0].push(cycle);
            self.queries += answered;
            self.infer_rt_ms.extend(sv.rts);
            self.put_rt_ms.push(sv.put_ms);
            self.learn_rt_ms.push(sv.learn_ms);
            self.fit_rt_ms.push(sv.fit_ms);
        }
    }

    /// Write the serving end-to-end metrics and, when traced, the
    /// `network.*`, `serve.*`, job-pool and cycle-remainder metrics.
    pub fn write(&self, rep: &mut Report, traced: bool) {
        let p50 = median(&self.infer_rt_ms);
        rep.set("infer_rt_p50_ms", p50);
        rep.set("infer_rt_p99_ms", windowed_p99(&self.infer_rt_ms));
        rep.set(
            "queries_per_s",
            ratio(self.queries as f64, self.cycle_s[0].iter().sum()),
        );
        rep.set("learn_rt_ms", median(&self.learn_rt_ms));
        rep.set("fit_rt_ms", median(&self.fit_rt_ms));
        if !traced {
            return;
        }
        rep.set("network.fit_ms", median(&self.fit_ms));
        rep.set("network.jt_build_ms", median(&self.jt_build_ms));
        rep.set("network.posteriors64_ms", median(&self.posteriors_ms));
        let (reused, recomputed) = self.messages;
        rep.set(
            "network.messages_reused_ratio",
            ratio(reused as f64, (reused + recomputed) as f64),
        );
        rep.set("serve.put_rt_ms", median(&self.put_rt_ms));
        rep.set("serve.wire_overhead_ms", p50 - median(&self.posteriors_ms));
        rep.set(
            "serve.bytes_per_query",
            ratio(self.read_bytes as f64, self.read_queries as f64),
        );
        if let Some(snap0) = &self.snap0 {
            let snap1 = fastbn_obs::global().snapshot();
            let name = "fastbn.parallel.jobs.busy_rejections";
            let busy = report::counter(&snap1, name) - report::counter(snap0, name);
            rep.set("serve.busy_rejections", busy as f64);
            let (c0, s0) = report::histogram(snap0, "fastbn.parallel.jobs.wait_us");
            let (c1, s1) = report::histogram(&snap1, "fastbn.parallel.jobs.wait_us");
            rep.set(
                "parallel.jobs.wait_ms",
                ratio((s1 - s0) as f64 / 1e3, (c1 - c0) as f64),
            );
        }
        rep.set(
            "obs.cycle_unattributed_ms",
            median(&self.cycle_unattributed_ms),
        );
    }

    /// Traced cycle time over untraced cycle time, minus 1.
    fn trace_overhead_frac(&self) -> f64 {
        ratio(median(&self.cycle_s[1]), median(&self.cycle_s[0])) - 1.0
    }
}

/// The `serve-alarm` workload: cycles for the whole run; the learn
/// metrics come from each cycle's in-process reference learns.
pub fn run(args: &Args, rep: &mut Report) {
    let (mut fx, setup_s) = setup(|| Fixture::start(args.seed), Fixture::close);
    rep.set("setup_s", setup_s);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut s = Session::default();
    while s.cycles() < MIN_CYCLES || Instant::now() < deadline {
        s.cycle(&mut fx, args.seed, args.trace, rep);
    }
    fx.close();
    s.write(rep, args.trace);
    rep.set("learn_t1_s", median(&s.learn.plain[0]));
    rep.set("learn_t2_s", median(&s.learn.plain[1]));
    rep.set("shd", median(&s.shd));
    if args.trace {
        rep.set("obs.trace_overhead_frac", s.trace_overhead_frac());
        s.learn.write_layers(rep);
    }
}
