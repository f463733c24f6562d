//! # catbatch — online scheduling of rigid task graphs
//!
//! A faithful, from-scratch implementation of **CatBatch**, the online
//! algorithm of *“A New Algorithm for Online Scheduling of Rigid Task
//! Graphs with Near-Optimal Competitive Ratio”* (Perotin, Sun, Raghavan;
//! SPAA 2025), together with the full analysis machinery of the paper:
//!
//! * [`attributes`] — online criticality tracking `(s∞, f∞)`
//!   (Definition 1, Lemma 1);
//! * [`category`] — power level `χ`, longitude `λ`, category `ζ = λ·2^χ`
//!   (Definitions 2–3, Lemma 2), computed exactly on rationals;
//! * [`lmatrix`] — category lengths `L_ζ` and the L-matrix (Definitions
//!   4–5, Lemmas 3–4), plus the Theorem 1/2 bound functions;
//! * [`batch`] — the category-batch discipline (Algorithms 1–3): batch
//!   by category, process batches in increasing `ζ`, full barrier
//!   between batches; every CatBatch variant is a policy on top of it;
//! * [`catbatch`] — the scheduler itself: greedy `ScheduleIndep` inside
//!   each batch;
//! * [`analysis`] — offline category decomposition, attribute tables and
//!   the Lemma 7 makespan bound.
//!
//! Guarantees (proved in the paper, checked empirically by this
//! workspace's test suite and experiment harness):
//!
//! * `T_CatBatch(I) ≤ (log₂(n) + 3)·Lb(I)` for every instance with `n`
//!   tasks (Theorem 1);
//! * `T_CatBatch(I) ≤ (log₂(M/m) + 6)·Lb(I)` when task lengths lie in
//!   `[m, M]` (Theorem 2);
//! * no online algorithm can beat `Ω(log n)` or `Ω(log(M/m))`
//!   (Theorems 3–4; see the `rigid-lowerbounds` crate).
//!
//! ## Quickstart
//!
//! ```
//! use catbatch::CatBatch;
//! use rigid_dag::{DagBuilder, StaticSource, analysis};
//! use rigid_sim::engine;
//! use rigid_time::Time;
//!
//! let inst = DagBuilder::new()
//!     .task("prep",  Time::from_int(1), 2)
//!     .task("solve", Time::from_int(4), 4)
//!     .task("post",  Time::from_int(1), 1)
//!     .edge("prep", "solve")
//!     .edge("solve", "post")
//!     .build(4);
//!
//! let result = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
//! result.schedule.assert_valid(&inst);
//!
//! // Theorem 1: within (log2(3) + 3) of the lower bound.
//! let ratio = result.makespan().ratio(analysis::lower_bound(&inst)).to_f64();
//! assert!(ratio <= (3.0f64).log2() + 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod attributes;
pub mod batch;
pub mod catbatch;
pub mod category;
pub mod heuristics;
pub mod lmatrix;
pub mod monitor;

pub use attributes::CriticalityTracker;
pub use batch::{BatchCore, BatchRecord, BatchTask};
pub use catbatch::CatBatch;
pub use category::{compute_category, Category};
pub use heuristics::{CatBatchBackfill, CatPrio, EstimatedCatBatch};
pub use lmatrix::{category_length, LMatrix};
pub use monitor::{AssumptionReport, GuaranteeMonitor};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rigid_dag::gen::{erdos_dag, TaskSampler};
    use rigid_dag::{analysis as dag_analysis, StaticSource};
    use rigid_sim::engine;
    use rigid_time::Time;

    fn arb_interval() -> impl Strategy<Value = (Time, Time)> {
        // s∞ ∈ [0, 1000) and t ∈ (0, 100] on a millis grid.
        (0i64..1_000_000, 1i64..100_000).prop_map(|(s_m, t_m)| {
            let s = Time::from_ratio(s_m, 1000);
            (s, s + Time::from_ratio(t_m, 1000))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Lemma 2: the computed λ is odd and the brackets hold.
        #[test]
        fn lemma2_properties((s, f) in arb_interval()) {
            let c = compute_category(s, f);
            prop_assert_eq!(c.lambda % 2, 1);
            let p = c.pow2();
            prop_assert!(p.grid_point(c.lambda - 1) <= s);
            prop_assert!(s < c.value());
            prop_assert!(c.value() < f);
            prop_assert!(f <= p.grid_point(c.lambda + 1));
        }

        /// Maximality of χ: no grid point of level χ+1 lies strictly
        /// inside the interval.
        #[test]
        fn chi_is_maximal((s, f) in arb_interval()) {
            let c = compute_category(s, f);
            let up = rigid_time::Pow2::new(c.chi + 1);
            let lam = up.next_multiple_after(s);
            prop_assert!(up.grid_point(lam as i64) >= f);
        }

        /// Lemma 3: task length ≤ category length, for any C ≥ f∞.
        #[test]
        fn lemma3_length_bound((s, f) in arb_interval(), extra in 0i64..1_000) {
            let c = compute_category(s, f);
            let cpath = f + Time::from_ratio(extra, 10);
            prop_assert!(f - s <= category_length(c, cpath));
        }

        /// Theorem 1 end-to-end on random DAGs: the CatBatch makespan is
        /// within (log₂ n + 3)·Lb, and the schedule is feasible.
        #[test]
        fn theorem1_on_random_dags(seed in 0u64..2_000, n in 1usize..40, p in 1u32..17) {
            let inst = erdos_dag(seed, n, 0.15, &TaskSampler::default_mix(), p);
            let mut src = StaticSource::new(inst.clone());
            let mut cb = CatBatch::new();
            let result = engine::EngineConfig::new().run(&mut src, &mut cb);
            prop_assert!(result.schedule.validate(&inst).is_empty());
            let lb = dag_analysis::lower_bound(&inst);
            let ratio = result.makespan().ratio(lb).to_f64();
            let bound = lmatrix::theorem1_ratio_bound(n);
            prop_assert!(ratio <= bound + 1e-9, "ratio {} > bound {}", ratio, bound);
        }

        /// Lemma 7 end-to-end: makespan ≤ 2A/P + Σ L_ζ.
        #[test]
        fn lemma7_on_random_dags(seed in 0u64..2_000, n in 1usize..40) {
            let inst = erdos_dag(seed, n, 0.2, &TaskSampler::default_mix(), 8);
            let bound = analysis::lemma7_bound(&inst);
            let mut src = StaticSource::new(inst.clone());
            let result = engine::EngineConfig::new().run(&mut src, &mut CatBatch::new());
            prop_assert!(result.makespan() <= bound);
        }

        /// Batch barrier invariant: batches never overlap and categories
        /// strictly increase.
        #[test]
        fn batch_barrier(seed in 0u64..2_000, n in 2usize..30) {
            let inst = erdos_dag(seed, n, 0.25, &TaskSampler::default_mix(), 4);
            let mut cb = CatBatch::new();
            let _ = engine::EngineConfig::new().run(&mut StaticSource::new(inst), &mut cb);
            for w in cb.batch_history().windows(2) {
                prop_assert!(w[0].finished_at <= w[1].started_at);
                prop_assert!(w[0].category < w[1].category);
            }
        }
    }
}
