//! Statistics substrate for SimProf.
//!
//! This crate contains every statistical primitive the SimProf pipeline is
//! built on, implemented from scratch:
//!
//! * [`matrix`] — a flat, row-major `f64` matrix used as the feature-vector
//!   container throughout the pipeline.
//! * [`descriptive`] — means, variances, coefficient of variation (CoV) and
//!   the weighted-CoV summary used by the paper's Fig. 6.
//! * [`kmeans`](mod@kmeans) — k-means clustering with k-means++ seeding (phase formation,
//!   §III-B of the paper).
//! * [`silhouette`] — silhouette-coefficient model selection implementing the
//!   paper's "smallest k with at least 90 % of the best score" rule: a
//!   warm-started k-means sweep whose candidates are all scored in one
//!   fused distance pass. Both stages do their per-row work once per
//!   distinct feature row, with bit-identical results.
//! * [`bic`] — SimPoint/X-means BIC model selection, the related-work
//!   alternative the ablations compare against.
//! * [`regression`] — univariate linear-regression (F-test) feature scoring
//!   used to select the top-K methods most correlated with IPC.
//! * [`stratified`] — stratified random sampling: Neyman optimal allocation
//!   (Eq. 1), the stratified standard error (Eq. 4) and confidence intervals
//!   (Eqs. 2–3), plus the required-sample-size solver behind Fig. 8.
//! * [`sampling`] — seeded simple-random and systematic index sampling.
//! * [`rng`] — deterministic seeding helpers; every stochastic routine in the
//!   workspace takes an explicit `u64` seed.

pub mod bic;
pub mod descriptive;
mod groups;
pub mod kmeans;
pub mod matrix;
pub mod regression;
pub mod rng;
pub mod sampling;
pub mod silhouette;
pub mod stratified;

pub use bic::{bic_score, choose_k_bic, BicSelection};
pub use descriptive::{
    cov, cov_triple, mean, population_variance, quantile_sorted, sample_variance, stddev,
    try_cov_triple, CovTriple, LengthMismatch, Summary,
};
pub use kmeans::{
    kmeans, kmeans_from_centers, kmeans_from_centers_reference, kmeans_minibatch, KMeans,
    KMeansResult,
};
pub use matrix::Matrix;
pub use regression::{
    f_regression, f_score_from_moments, select_top_k, top_k_features, ColumnMoments,
};
pub use rng::{seeded, split_seed, SeedRng};
pub use sampling::{srs_indices, srs_indices_seeded, systematic_indices};
pub use silhouette::{
    choose_k, kmeans_sweep, kmeans_sweep_reference, silhouette_score, silhouette_scores, KSelection,
};
pub use stratified::{
    confidence_interval, optimal_allocation, proportional_allocation, required_sample_size,
    stratified_se, StratumStats,
};
