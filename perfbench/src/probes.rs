//! Layer probes run once per traced run, outside the learn loop: a replay
//! of the recorded CI tests through `fastbn-stats`, and a batch of local
//! scores through `fastbn-score`.

use crate::report::{median, ratio, Report};
use fastbn_core::skeleton::common::z_strides;
use fastbn_core::{CiTestRecord, PcConfig};
use fastbn_data::Dataset;
use fastbn_graph::Dag;
use fastbn_score::{HillClimbConfig, LocalScorer};
use fastbn_stats::citest::run_ci_test;
use fastbn_stats::{ContingencyTable, CountingBackend, FillSpec};
use std::hint::black_box;
use std::time::Instant;

/// Replays of the CI trace; the medians are reported.
const REPLAYS: usize = 3;

/// Replay every recorded CI test: fill its table with
/// `CountingBackend::fill_one`, then run the test, timing the two apart.
/// The replayed test count must equal the learn's `ci_tests`.
pub fn stats_replay(
    data: &Dataset,
    cfg: &PcConfig,
    records: &[CiTestRecord],
    ci_tests: u64,
    rep: &mut Report,
) {
    rep.check(records.len() as u64 == ci_tests, || {
        format!(
            "replayed {} CI tests, the learn ran {ci_tests}",
            records.len()
        )
    });
    black_box(data.bitmap_index());
    let mut fill_s = Vec::new();
    let mut test_s = Vec::new();
    let mut picks = (0, 0);
    let mut table = ContingencyTable::new(1, 1, 1);
    let mut zmul = Vec::new();
    let mut cond = Vec::new();
    for _ in 0..REPLAYS {
        let mut backend = CountingBackend::new(cfg.count_engine);
        let (mut fill, mut test) = (0.0, 0.0);
        for r in records {
            let (u, v) = (r.u as usize, r.v as usize);
            cond.clear();
            cond.extend(r.cond.iter().map(|&c| c as usize));
            let (rx, ry) = (data.arity(u), data.arity(v));
            let nz = z_strides(data, &cond, rx, ry, cfg.max_table_cells, &mut zmul)
                .expect("a recorded test fits the table-size cap");
            table.reshape(rx, ry, nz.max(1));
            let spec = FillSpec {
                x: u,
                y: Some(v),
                cond: &cond,
                zmul: &zmul,
            };
            let t0 = Instant::now();
            backend.fill_one(data, cfg.layout, spec, &mut table);
            let t1 = Instant::now();
            black_box(run_ci_test(&table, cfg.test, cfg.alpha, cfg.df_rule).independent);
            let t2 = Instant::now();
            fill += (t1 - t0).as_secs_f64();
            test += (t2 - t1).as_secs_f64();
        }
        fill_s.push(fill);
        test_s.push(test);
        picks = backend.picks();
    }
    let tests = records.len() as f64;
    rep.set("stats.fill_s", median(&fill_s));
    rep.set("stats.test_s", median(&test_s));
    rep.set(
        "stats.fill_ns_per_test",
        ratio(median(&fill_s) * 1e9, tests),
    );
    rep.set(
        "stats.bitmap_pick_frac",
        ratio(picks.1 as f64, (picks.0 + picks.1) as f64),
    );
}

/// Time `LocalScorer::score_batch` over each node's parent set in `dag`
/// plus every one-parent extension of it; report microseconds per score.
pub fn local_scores(data: &Dataset, dag: &Dag, cfg: &HillClimbConfig, rep: &mut Report) {
    let n = dag.n();
    let mut scorer = LocalScorer::new(data, cfg.kind, cfg.max_table_cells);
    let mut scored = 0u64;
    let t0 = Instant::now();
    for v in 0..n {
        let parents: Vec<u32> = dag.parents(v).iter_ones().map(|p| p as u32).collect();
        let mut sets = vec![parents.clone()];
        for u in (0..n as u32).filter(|&u| u as usize != v && !parents.contains(&u)) {
            let mut extended = parents.clone();
            extended.push(u);
            extended.sort_unstable();
            sets.push(extended);
        }
        for score in scorer.score_batch(v, &sets) {
            black_box(score);
            scored += 1;
        }
    }
    rep.set(
        "score.local_score_us",
        ratio(t0.elapsed().as_secs_f64() * 1e6, scored as f64),
    );
}
