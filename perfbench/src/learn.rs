//! The learn side: `learn_structure` at 1 and 2 threads, the same learn
//! split into per-crate calls for the traced run, and the `pc-diabetes` /
//! `hc-munin1` workloads built on them.

use crate::probes;
use crate::report::{median, ratio, Report, DEPTHS};
use crate::serve::{Fixture, Session, MIN_CYCLES};
use crate::{replica, sample_seed, setup, Args};
use fastbn_core::orient::orient;
use fastbn_core::{
    learn_structure, record_ci_trace, PcConfig, PcStable, Strategy, StructureResult,
};
use fastbn_data::Dataset;
use fastbn_graph::{dag_to_cpdag, metrics::shd_cpdag};
use fastbn_score::{HillClimb, HillClimbConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Thread counts compared, by slot.
pub const THREADS: [usize; 2] = [1, 2];

/// Fewest pairs of learns a run takes, however short (half of them traced
/// in a traced run).
const MIN_PAIRS: usize = 4;

/// Serve cycles run after each t=1/t=2 pair of learns, so the serve probe
/// samples the whole run rather than one stretch of it.
const CYCLES_PER_PAIR: usize = 12;

/// Rows sampled for the learn workloads.
const LEARN_ROWS: usize = 5000;

/// The learner family of a learn workload.
#[derive(Clone, Copy, PartialEq)]
pub enum Family {
    /// PC-stable: Fast-BNS-seq at t=1, Fast-BNS at t=2.
    Pc,
    /// Hill climbing with the default configuration.
    Hc,
}

impl Family {
    /// The strategy run at `threads` threads.
    pub fn strategy(self, threads: usize) -> Strategy {
        match self {
            Family::Pc if threads == 1 => Strategy::PcStable(PcConfig::fast_bns_seq()),
            Family::Pc => Strategy::PcStable(PcConfig::fast_bns().with_threads(threads)),
            Family::Hc => Strategy::HillClimb(HillClimbConfig::default().with_threads(threads)),
        }
    }
}

/// Everything a learn's result must repeat bit for bit.
#[derive(PartialEq, Debug)]
pub struct Outcome {
    directed: Vec<(usize, usize)>,
    undirected: Vec<(usize, usize)>,
    dag: Option<Vec<(usize, usize)>>,
    score_bits: Option<u64>,
}

impl Outcome {
    pub fn of(r: &StructureResult) -> Self {
        Self {
            directed: r.cpdag.directed_edges(),
            undirected: r.cpdag.undirected_edges(),
            dag: r.dag.as_ref().map(|d| d.edges()),
            score_bits: r.score.map(f64::to_bits),
        }
    }
}

/// Named counts of one learn.
type Counts = Vec<(&'static str, u64)>;

/// Counts a learn must repeat exactly at a given thread count. Score-cache
/// hits and misses are taken at t=1 only: at t=2 two threads can race to
/// compute the same key.
fn exact_counts(r: &StructureResult, threads: usize) -> Counts {
    let mut counts = Vec::new();
    if let Some(s) = &r.pc_stats {
        counts.push(("stats.ci_tests", s.total_ci_tests()));
    }
    if let Some(s) = &r.search_stats {
        counts.push(("score.iterations", s.iterations));
        counts.push(("score.moves_evaluated", s.moves_evaluated));
        counts.push(("score.moves_carried", s.moves_carried));
        if threads == 1 {
            counts.push(("score.cache_hits", s.cache_hits));
            counts.push(("score.cache_misses", s.cache_misses));
        }
    }
    counts
}

/// Seconds spent in each layer of one traced learn.
#[derive(Clone, Copy, Default)]
pub struct LayerTimes {
    state_freq: f64,
    index_build: f64,
    /// `learn_skeleton` (PC) or the hill-climb search (HC).
    work: f64,
    orient: f64,
    parent: f64,
}

/// One learn split into calls on each crate's public functions, each timed
/// from here: the lazy dataset builds (`fastbn-data`), then the skeleton
/// and orientation (`fastbn-core`) or the search (`fastbn-score`).
pub fn learn_traced(strategy: &Strategy, data: &Dataset) -> (StructureResult, LayerTimes) {
    let mut lt = LayerTimes::default();
    let parent = Instant::now();
    let t = Instant::now();
    black_box(data.state_frequencies());
    lt.state_freq = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(data.bitmap_index());
    lt.index_build = t.elapsed().as_secs_f64();
    let result = match strategy {
        Strategy::PcStable(cfg) => {
            let t = Instant::now();
            let (skeleton, sepsets, stats) = PcStable::new(cfg.clone()).learn_skeleton(data);
            lt.work = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let oriented = orient(&skeleton, &sepsets);
            lt.orient = t.elapsed().as_secs_f64();
            StructureResult {
                cpdag: oriented.pdag,
                dag: None,
                skeleton: Some(skeleton),
                score: None,
                pc_stats: Some(stats),
                search_stats: None,
            }
        }
        Strategy::HillClimb(cfg) => {
            let t = Instant::now();
            let found = HillClimb::new(cfg.clone()).learn(data);
            lt.work = t.elapsed().as_secs_f64();
            StructureResult {
                cpdag: dag_to_cpdag(&found.dag),
                dag: Some(found.dag),
                skeleton: None,
                score: Some(found.score),
                pc_stats: None,
                search_stats: Some(found.stats),
            }
        }
        Strategy::Hybrid(_) => unreachable!("no workload learns with the hybrid strategy"),
    };
    lt.parent = parent.elapsed().as_secs_f64();
    (result, lt)
}

/// Timings and stats gathered over a run's learns, by thread slot.
#[derive(Default)]
pub struct LearnSamples {
    /// Untraced `learn_structure` wall times (s).
    pub plain: [Vec<f64>; 2],
    traced: [Vec<LayerTimes>; 2],
    depth_ms: [[Vec<f64>; DEPTHS]; 2],
    /// The first t=1 result, for its exact counts and deletion ratios.
    first_t1: Option<StructureResult>,
}

impl LearnSamples {
    /// Run one learn on `data` at `slot`'s thread count, traced or not,
    /// recording its timings.
    pub fn learn(
        &mut self,
        strategy: &Strategy,
        data: &Dataset,
        slot: usize,
        traced: bool,
    ) -> StructureResult {
        if !traced {
            let t = Instant::now();
            let r = learn_structure(data, strategy);
            self.plain[slot].push(t.elapsed().as_secs_f64());
            return r;
        }
        fastbn_obs::set_trace_enabled(true);
        let (r, lt) = learn_traced(strategy, data);
        fastbn_obs::set_trace_enabled(false);
        self.traced[slot].push(lt);
        if let Some(stats) = &r.pc_stats {
            for (d, ds) in stats.depths.iter().take(DEPTHS).enumerate() {
                self.depth_ms[slot][d].push(ds.duration.as_secs_f64() * 1e3);
            }
        }
        r
    }

    /// Keep `r` as the first t=1 result if there is none yet.
    pub fn keep_first_t1(&mut self, r: StructureResult) {
        self.first_t1.get_or_insert(r);
    }

    /// Fewest traced learns over the two slots.
    pub fn traced_len(&self) -> usize {
        self.traced[0].len().min(self.traced[1].len())
    }

    /// Traced t=1 parent time over untraced t=1 time, minus 1.
    pub fn trace_overhead_frac(&self) -> f64 {
        let traced: Vec<f64> = self.traced[0].iter().map(|lt| lt.parent).collect();
        ratio(median(&traced), median(&self.plain[0])) - 1.0
    }

    /// Write the `data.*`, `core.*`, `parallel.*` speed-ups, `score.*`
    /// search and count metrics and the learn remainder.
    pub fn write_layers(&self, rep: &mut Report) {
        let all: Vec<LayerTimes> = self.traced.iter().flatten().copied().collect();
        let ms = |f: fn(&LayerTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>()) * 1e3;
        rep.set("data.state_freq_ms", ms(|lt| lt.state_freq));
        rep.set("data.index_build_ms", ms(|lt| lt.index_build));
        rep.set(
            "obs.learn_unattributed_ms",
            ms(|lt| lt.parent - lt.state_freq - lt.index_build - lt.work - lt.orient),
        );
        let work = |slot: usize| {
            let w: Vec<f64> = self.traced[slot].iter().map(|lt| lt.work).collect();
            median(&w)
        };
        rep.set(
            "parallel.speedup_t2",
            ratio(median(&self.plain[0]), median(&self.plain[1])),
        );
        let Some(first) = &self.first_t1 else { return };
        if let Some(stats) = &first.pc_stats {
            rep.set("core.skeleton_s.t1", work(0));
            rep.set("core.skeleton_s.t2", work(1));
            rep.set("core.orient_ms", ms(|lt| lt.orient));
            for d in 0..DEPTHS {
                let t1 = median(&self.depth_ms[0][d]);
                let t2 = median(&self.depth_ms[1][d]);
                rep.set(format!("core.depth.d{d}_ms.t1"), t1);
                rep.set(format!("core.depth.d{d}_ms.t2"), t2);
                rep.set(format!("parallel.depth.d{d}.speedup_t2"), ratio(t1, t2));
                let deletion = stats.depths.get(d).map_or(0.0, |ds| ds.deletion_ratio());
                rep.set(format!("core.deletion_ratio.d{d}"), deletion);
            }
        }
        if let Some(s) = &first.search_stats {
            rep.set("score.search_s.t1", work(0));
            rep.set("score.search_s.t2", work(1));
            let looked_up = (s.cache_hits + s.cache_misses) as f64;
            rep.set(
                "score.cache_hit_ratio",
                ratio(s.cache_hits as f64, looked_up),
            );
        }
        for (name, count) in exact_counts(first, 1) {
            rep.set(name, count as f64);
        }
    }
}

/// The `pc-diabetes` and `hc-munin1` workloads: closed-loop pairs of
/// learns, t=1 and t=2 on the same fresh sample (which goes first
/// alternates), each learn on a fresh clone made outside the timer so the
/// lazy index and frequency builds count. Each pair draws a new sample, so
/// a run's medians span many inputs; the last pair re-learns the first
/// sample and must repeat it exactly. Serve cycles on alarm run between
/// the pairs, outside the learn timers, so that every end-to-end metric is
/// measured on every workload.
pub fn run(family: Family, args: &Args, rep: &mut Report) {
    let name = match family {
        Family::Pc => "diabetes",
        Family::Hc => "munin1",
    };
    let (((net, data), mut fx), setup_s) = setup(
        || {
            let net = replica(name);
            let data = net.sample_dataset(LEARN_ROWS, args.seed);
            ((net, data), Fixture::start(args.seed))
        },
        |(_, fx)| fx.close(),
    );
    rep.set("setup_s", setup_s);
    // The CI trace of the sequential learn, recorded once for the stats
    // replay (outside every timed region).
    let ci_trace = (args.trace && family == Family::Pc)
        .then(|| record_ci_trace(&data, &PcConfig::fast_bns_seq()).0);

    let truth = dag_to_cpdag(net.dag());
    let strategies = THREADS.map(|t| family.strategy(t));
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut samples = LearnSamples::default();
    let mut probe = Session::default();
    let mut shd = Vec::new();
    let mut first: Option<(Vec<(Outcome, Counts)>, StructureResult)> = None;
    for k in 0usize.. {
        let enough = k >= MIN_PAIRS && (!args.trace || samples.traced_len() >= MIN_PAIRS / 2);
        let repeat = enough && Instant::now() >= deadline;
        let pair_data = if k == 0 || repeat {
            data.clone()
        } else {
            net.sample_dataset(LEARN_ROWS, sample_seed(args.seed, k))
        };
        let traced = args.trace && k % 2 == 1;
        let mut learned: [Option<StructureResult>; 2] = [None, None];
        for slot in [k % 2, 1 - k % 2] {
            let fresh = pair_data.clone();
            learned[slot] = Some(samples.learn(&strategies[slot], &fresh, slot, traced));
        }
        let [Some(t1), Some(t2)] = learned else {
            unreachable!("both slots learned")
        };
        rep.check(Outcome::of(&t1) == Outcome::of(&t2), || {
            format!("{name} pair {k}: the t=2 learn differs from the t=1 learn")
        });
        let pair: Vec<(Outcome, Counts)> = [&t1, &t2]
            .iter()
            .zip(THREADS)
            .map(|(r, t)| (Outcome::of(r), exact_counts(r, t)))
            .collect();
        if repeat {
            let (want, _) = first.as_ref().expect("pair 0 ran");
            rep.check(pair == *want, || {
                let counts = |p: &[(Outcome, Counts)]| p.iter().map(|(_, c)| c.clone()).collect::<Vec<_>>();
                format!(
                    "{name}: re-learning the first sample gave counts {:?} (first: {:?}) or other structures",
                    counts(&pair),
                    counts(want)
                )
            });
            break;
        }
        shd.push(shd_cpdag(&t1.cpdag, &truth) as f64);
        first.get_or_insert((pair, t1));
        for _ in 0..CYCLES_PER_PAIR {
            probe.cycle(&mut fx, args.seed, args.trace, rep);
        }
    }
    while probe.cycles() < MIN_CYCLES {
        probe.cycle(&mut fx, args.seed, args.trace, rep);
    }
    fx.close();
    rep.set("learn_t1_s", median(&samples.plain[0]));
    rep.set("learn_t2_s", median(&samples.plain[1]));
    rep.set("shd", median(&shd));

    if args.trace {
        let (_, first) = first.expect("at least one pair ran");
        rep.set("obs.trace_overhead_frac", samples.trace_overhead_frac());
        if let Some(records) = &ci_trace {
            let ci_tests = first.pc_stats.as_ref().map_or(0, |s| s.total_ci_tests());
            probes::stats_replay(&data, &PcConfig::fast_bns_seq(), records, ci_tests, rep);
        }
        if let Some(dag) = &first.dag {
            probes::local_scores(&data, dag, &HillClimbConfig::default(), rep);
        }
        samples.keep_first_t1(first);
        samples.write_layers(rep);
    }
    probe.write(rep, args.trace);
}
