//! # rigid-strip — strip packing with precedence constraints
//!
//! The strip-packing side of the SPAA'25 CatBatch paper. Strip packing is
//! "rigid scheduling with contiguity": each task is a rectangle of width
//! `w` processors and height `t` time, placed at explicit coordinates
//! `[x, x+w) × [y, y+t)` in a strip of width `P`.
//!
//! * [`packing`] — placed rectangles with geometric (non-overlap)
//!   validation;
//! * [`shelf_pack`] — contiguous NFDH/FFDH shelf packers and the
//!   Bottom-Left skyline heuristic for independent rectangles;
//! * [`catbatch_strip`] — **CatBatch-Strip** (the paper's Remark 1): the
//!   online category-batch algorithm with NFDH inside each batch, giving
//!   contiguous allocations while preserving the `log₂(n) + O(1)`
//!   competitive ratio for online strip packing with precedence
//!   constraints.
//!
//! ```
//! use rigid_strip::CatBatchStrip;
//! use rigid_dag::{paper, StaticSource};
//! use rigid_sim::engine;
//!
//! let inst = paper::figure3();
//! let mut strip = CatBatchStrip::new(inst.procs());
//! let result = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut strip);
//! result.schedule.assert_valid(&inst);
//! strip.packing().assert_valid(); // geometrically contiguous, no overlap
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catbatch_strip;
pub mod packing;
pub mod shelf_pack;
pub mod svg;

pub use catbatch_strip::CatBatchStrip;
pub use packing::{PlacedRect, StripPacking, StripViolation};
pub use shelf_pack::{Rect, ShelfRule};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rigid_dag::TaskId;
    use rigid_time::Time;

    fn arb_rects() -> impl Strategy<Value = Vec<Rect>> {
        prop::collection::vec((1u32..=8, 1i64..50), 1..40).prop_map(|v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (w, h))| Rect {
                    id: TaskId(i as u32),
                    width: w,
                    height: Time::from_int(h),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// NFDH packings are always geometrically valid and within the
        /// classic 2·area/W + h_max bound.
        #[test]
        fn nfdh_valid_and_bounded(rects in arb_rects()) {
            let w = 8u32;
            let mut p = StripPacking::new(w);
            let h = shelf_pack::nfdh(&rects, w, Time::ZERO, &mut p);
            prop_assert!(p.validate().is_empty());
            let area: Time = rects.iter().map(|r| r.height.mul_int(r.width as i64)).sum();
            let hmax = rects.iter().map(|r| r.height).max().unwrap();
            prop_assert!(h <= area.mul_int(2).div_int(w as i64) + hmax);
        }

        /// FFDH is valid and never taller than NFDH.
        #[test]
        fn ffdh_valid_not_worse(rects in arb_rects()) {
            let w = 8u32;
            let mut pn = StripPacking::new(w);
            let hn = shelf_pack::nfdh(&rects, w, Time::ZERO, &mut pn);
            let mut pf = StripPacking::new(w);
            let hf = shelf_pack::ffdh(&rects, w, Time::ZERO, &mut pf);
            prop_assert!(pf.validate().is_empty());
            prop_assert!(hf <= hn);
        }

        /// Bottom-Left is valid and at least area/W tall (sanity).
        #[test]
        fn bl_valid(rects in arb_rects()) {
            let w = 8u32;
            let mut p = StripPacking::new(w);
            let h = shelf_pack::bottom_left(&rects, w, &mut p);
            prop_assert!(p.validate().is_empty());
            let area: Time = rects.iter().map(|r| r.height.mul_int(r.width as i64)).sum();
            prop_assert!(h >= area.div_int(w as i64));
        }
    }
}
