//! Property tests for the score subsystem: cache transparency, scorer
//! determinism, and search invariance to threads/cache — the score-side
//! analogue of the constraint learner's cross-impl discipline.

use fastbn_data::Dataset;
use fastbn_graph::{Dag, UGraph};
use fastbn_score::{HillClimb, HillClimbConfig, LocalScorer, MoveEval, ScoreCache, ScoreKind};
use proptest::prelude::*;

/// Strategy: a random complete discrete dataset (3–5 variables of arity
/// 2–3, 120–320 samples).
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (3usize..6, 120usize..320).prop_flat_map(|(n_vars, m)| {
        (
            proptest::collection::vec(2u8..4, n_vars..=n_vars),
            proptest::collection::vec(proptest::collection::vec(0u8..2, m..=m), n_vars..=n_vars),
            Just(n_vars),
        )
            .prop_map(|(arities, raw_cols, _)| {
                // Clamp values into each variable's arity.
                let cols: Vec<Vec<u8>> = raw_cols
                    .into_iter()
                    .zip(&arities)
                    .map(|(col, &a)| col.into_iter().map(|v| v % a).collect())
                    .collect();
                Dataset::from_columns(vec![], arities, cols).unwrap()
            })
    })
}

/// All sorted parent subsets of size ≤ 2 for a child (enough shapes to
/// exercise the radix/stride paths without combinatorial blow-up).
fn parent_subsets(n: usize, child: usize) -> Vec<Vec<u32>> {
    let others: Vec<u32> = (0..n as u32).filter(|&v| v as usize != child).collect();
    let mut sets = vec![vec![]];
    for (i, &a) in others.iter().enumerate() {
        sets.push(vec![a]);
        for &b in &others[i + 1..] {
            sets.push(vec![a, b]);
        }
    }
    sets
}

proptest! {
    /// The cache is transparent: a value served from the cache equals a
    /// freshly computed one to 1e-9 (bitwise, in fact) for BIC and BDeu,
    /// every child and every parent set.
    #[test]
    fn cached_and_fresh_scores_agree(data in dataset_strategy()) {
        for kind in [ScoreKind::Bic, ScoreKind::BDeu { ess: 1.0 }] {
            let cache = ScoreCache::new(true);
            let mut warm = LocalScorer::new(&data, kind, 1 << 20);
            let mut fresh = LocalScorer::new(&data, kind, 1 << 20);
            for child in 0..data.n_vars() {
                for parents in parent_subsets(data.n_vars(), child) {
                    // First call computes and fills the cache...
                    let first = cache.get_or_compute(child as u32, &parents, || {
                        warm.local_score(child, &parents)
                    });
                    // ...second call must be served from it.
                    let cached = cache.get_or_compute(child as u32, &parents, || {
                        panic!("cache must hit on the second request")
                    });
                    let recomputed = fresh.local_score(child, &parents);
                    prop_assert_eq!(first.is_some(), recomputed.is_some());
                    if let (Some(c), Some(r)) = (cached, recomputed) {
                        prop_assert!((c - r).abs() < 1e-9,
                            "{:?} child {} parents {:?}: cached {} vs fresh {}",
                            kind, child, parents, c, r);
                    }
                }
            }
            let (hits, _misses) = cache.stats();
            prop_assert!(hits > 0);
        }
    }

    /// A local score is a pure function: two scorers over the same data
    /// produce bit-identical values regardless of call history.
    #[test]
    fn scorer_is_deterministic(data in dataset_strategy()) {
        let mut a = LocalScorer::new(&data, ScoreKind::Bic, 1 << 20);
        let mut b = LocalScorer::new(&data, ScoreKind::Bic, 1 << 20);
        // Different call orders (forward vs reverse) must not matter.
        let n = data.n_vars();
        let mut pairs: Vec<(usize, Vec<u32>)> = (0..n)
            .flat_map(|c| parent_subsets(n, c).into_iter().map(move |p| (c, p)))
            .collect();
        let forward: Vec<Option<f64>> =
            pairs.iter().map(|(c, p)| a.local_score(*c, p)).collect();
        pairs.reverse();
        let mut backward: Vec<Option<f64>> =
            pairs.iter().map(|(c, p)| b.local_score(*c, p)).collect();
        backward.reverse();
        prop_assert_eq!(forward, backward);
    }

    /// Hill climbing learns the identical DAG (and bitwise-identical
    /// score) at every thread count, with the cache on or off.
    #[test]
    fn hill_climb_invariant_to_threads_and_cache(data in dataset_strategy()) {
        let reference = HillClimb::new(
            HillClimbConfig::default().with_threads(1),
        ).learn(&data);
        prop_assert!(dag_is_valid(&reference.dag));
        for threads in [2usize, 4] {
            let got = HillClimb::new(
                HillClimbConfig::default().with_threads(threads),
            ).learn(&data);
            prop_assert_eq!(&got.dag, &reference.dag, "t={}", threads);
            prop_assert_eq!(got.score, reference.score, "t={} score", threads);
        }
        let uncached = HillClimb::new(
            HillClimbConfig::default().with_threads(2).with_cache(false),
        ).learn(&data);
        prop_assert_eq!(&uncached.dag, &reference.dag, "cache off");
        prop_assert_eq!(uncached.score, reference.score, "cache off score");
    }

    /// BDeu searches are thread-invariant too (different numerics than
    /// BIC: log-gamma sums instead of log-likelihood terms).
    #[test]
    fn bdeu_search_is_thread_invariant(data in dataset_strategy()) {
        let cfg = |t: usize| HillClimbConfig::default()
            .with_kind(ScoreKind::BDeu { ess: 1.0 })
            .with_threads(t);
        let reference = HillClimb::new(cfg(1)).learn(&data);
        let parallel = HillClimb::new(cfg(4)).learn(&data);
        prop_assert_eq!(&parallel.dag, &reference.dag);
        prop_assert_eq!(parallel.score, reference.score);
    }

    /// The maintained delta table is a pure optimization: incremental and
    /// full re-enumeration learn the identical DAG and bitwise-identical
    /// score at every thread count, with the cache on or off, with tabu
    /// exploration on or off, in first-ascent mode, across random restarts
    /// (each perturbed climb starts a fresh table) and under a hybrid-style
    /// restriction graph (`learn_restricted` over an undirected skeleton).
    #[test]
    fn incremental_evaluation_matches_full_oracle(
        data in dataset_strategy(),
        keep in proptest::collection::vec(any::<bool>(), 10),
    ) {
        // A restriction skeleton over the data's variables: pair `i` of
        // the lexicographic pair list is an allowed adjacency iff `keep[i]`.
        let n = data.n_vars();
        let pairs = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
        let edges: Vec<(usize, usize)> =
            pairs.zip(&keep).filter(|&(_, &k)| k).map(|(p, _)| p).collect();
        let skeleton = UGraph::from_edges(n, &edges);
        for (tabu, first, restarts, allowed) in [
            (false, false, 0, None),
            (true, false, 0, None),
            (false, true, 0, None),
            (false, false, 2, None),
            (true, false, 2, None),
            (false, false, 0, Some(&skeleton)),
            (true, false, 1, Some(&skeleton)),
        ] {
            let cfg = |eval: MoveEval, t: usize, cache: bool| {
                HillClimbConfig::default()
                    .with_threads(t)
                    .with_cache(cache)
                    .with_evaluation(eval)
                    .with_tabu_search(tabu)
                    .with_first_ascent(first)
                    .with_restarts(restarts)
            };
            let case = format!(
                "tabu={tabu} first={first} restarts={restarts} restricted={}",
                allowed.is_some()
            );
            let oracle = HillClimb::new(cfg(MoveEval::Full, 1, true))
                .learn_restricted(&data, allowed);
            prop_assert!(dag_is_valid(&oracle.dag));
            for t in [1usize, 4] {
                for cache in [true, false] {
                    let got = HillClimb::new(cfg(MoveEval::Incremental, t, cache))
                        .learn_restricted(&data, allowed);
                    prop_assert_eq!(&got.dag, &oracle.dag, "{} t={} cache={}", case, t, cache);
                    prop_assert_eq!(got.score, oracle.score,
                        "{} t={} cache={} score", case, t, cache);
                }
            }
            if let Some(g) = allowed {
                for (u, v) in oracle.dag.edges() {
                    prop_assert!(g.has_edge(u, v), "{}: edge {}→{} outside skeleton", case, u, v);
                }
            }
        }
    }

    /// Degenerate data — all-constant columns plus exactly duplicated
    /// columns (exact score ties everywhere) — must terminate and produce
    /// byte-identical DAGs across thread counts, evaluation modes, and
    /// tabu exploration on/off (nothing improves on such data, so every
    /// variant returns the same best-seen DAG).
    #[test]
    fn ties_and_constant_columns_terminate_identically(
        n_vars in 3usize..6,
        m in 40usize..120,
        seed in 0u64..1000,
    ) {
        // Column 0: constant. Column 1: pseudo-random. Columns 2..: exact
        // duplicates of column 1 (maximal tie pressure: every pair of
        // duplicate variables has identical local scores).
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let base: Vec<u8> = (0..m)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) & 1) as u8
            })
            .collect();
        let mut cols = vec![vec![0u8; m], base.clone()];
        for _ in 2..n_vars {
            cols.push(base.clone());
        }
        let data = Dataset::from_columns(vec![], vec![2; n_vars], cols).unwrap();

        let cfg = |eval: MoveEval, t: usize, tabu: bool| {
            HillClimbConfig::default()
                .with_threads(t)
                .with_evaluation(eval)
                .with_tabu_search(tabu)
        };
        let reference = HillClimb::new(cfg(MoveEval::Full, 1, false)).learn(&data);
        prop_assert!(dag_is_valid(&reference.dag));
        for tabu in [false, true] {
            for eval in [MoveEval::Incremental, MoveEval::Full] {
                for t in [1usize, 2, 4] {
                    let got = HillClimb::new(cfg(eval, t, tabu)).learn(&data);
                    prop_assert_eq!(&got.dag, &reference.dag,
                        "tabu={} eval={:?} t={}", tabu, eval, t);
                    prop_assert_eq!(got.score, reference.score,
                        "tabu={} eval={:?} t={} score", tabu, eval, t);
                }
            }
        }
    }

    /// AIC and BDs searches obey the thread/cache/evaluation invariance
    /// discipline like BIC and BDeu.
    #[test]
    fn aic_and_bds_searches_are_invariant(data in dataset_strategy()) {
        for kind in [ScoreKind::Aic, ScoreKind::BDs { ess: 1.0 }] {
            let cfg = |eval: MoveEval, t: usize| HillClimbConfig::default()
                .with_kind(kind)
                .with_threads(t)
                .with_evaluation(eval);
            let reference = HillClimb::new(cfg(MoveEval::Full, 1)).learn(&data);
            prop_assert!(dag_is_valid(&reference.dag));
            let parallel = HillClimb::new(cfg(MoveEval::Incremental, 4)).learn(&data);
            prop_assert_eq!(&parallel.dag, &reference.dag, "{:?}", kind);
            prop_assert_eq!(parallel.score, reference.score, "{:?} score", kind);
        }
    }
}

/// The searcher's output must always be a DAG (acyclicity is enforced per
/// move; this guards the enumerator's cycle checks).
fn dag_is_valid(dag: &Dag) -> bool {
    // `Dag` maintains acyclicity structurally; a topological order of full
    // length certifies it.
    dag.topological_order().len() == dag.n()
}
