//! `workloads` — the evaluation workload suite of the Cereal paper.
//!
//! * [`micro`] — the Tree/List/Graph microbenchmarks of Table II and
//!   Fig. 9, at paper scale or deterministic scaled-down variants;
//! * [`jsbs`] — the JSBS suite's predefined media-content object, the
//!   workload behind Fig. 12;
//! * [`spark`] — the six HiBench/Spark applications of Table III, as
//!   batched record datasets with each app's characteristic shape, and
//!   the Fig. 2-calibrated phase model used by Figs. 13–14;
//! * [`zipf`] — a Zipf(θ) rank sampler over the in-repo PRNG, behind
//!   the aggregation workload's [`KeySkew`] option and the block
//!   store's skewed re-read pattern.

pub mod jsbs;
pub mod micro;
pub mod spark;
pub mod zipf;

pub use jsbs::media_content;
pub use micro::{MicroBench, Scale};
pub use spark::agg::{fold_record, merge_folds, AggConfig, AggPartition, Fold, KeySkew};
pub use spark::{phases, SparkApp, SparkDataset};
pub use zipf::{SkewSampler, Zipf};
