//! The four-phase pSigene pipeline (Figure 1 of the paper):
//! webcrawl → feature extraction → biclustering → logistic-regression
//! signature generation.

use crate::config::PipelineConfig;
use crate::report::{ClusterInfo, PipelineReport};
use crate::signature::GeneralizedSignature;
use psigene_cluster::{
    bicluster::bicluster_with_dendrogram, cophenetic_correlation_streaming, hac::cluster_condensed,
};
use psigene_corpus::benign::{self, BenignConfig};
use psigene_corpus::{crawl_training_set, CrawlCorpusConfig, Dataset};
use psigene_features::{extract, FeatureSet};
use psigene_learn::{train_sparse, TrainOptions};
use psigene_linalg::distance::{euclidean_from_gram, pairwise_euclidean_sparse};
use psigene_linalg::{CsrBuilder, CsrMatrix};
use rand::seq::index::sample as index_sample;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A trained pSigene system: the pruned feature set, one generalized
/// signature per (non-black-hole) bicluster, and enough retained
/// state to retrain incrementally (Experiment 2).
#[derive(Debug, Clone)]
pub struct Psigene {
    pub(crate) feature_set: FeatureSet,
    pub(crate) signatures: Vec<GeneralizedSignature>,
    pub(crate) report: PipelineReport,
    pub(crate) state: TrainingState,
    pub(crate) threshold: f64,
    pub(crate) name: String,
    /// Clamp detection-time feature values to 0/1 (must match how the
    /// models were trained).
    pub(crate) binary: bool,
    /// Optional drift monitoring fed by the detection hot path
    /// (`None` = zero observation cost). Clones share the monitor, so
    /// a gateway's per-shard engine copies feed one set of windows.
    pub(crate) insight: Option<std::sync::Arc<crate::insight::EngineInsight>>,
    /// The scoring plan derived from `signatures` (inverted index +
    /// precomputed quiet verdict), built by `prepare()` or on first
    /// evaluation. A clone starts with an empty cell, so the
    /// clone-then-edit constructors below can never score with the
    /// original's weights.
    pub(crate) plan: crate::plan::PlanCell,
}

/// Retained training state for incremental updates.
#[derive(Debug, Clone)]
pub(crate) struct TrainingState {
    /// Per signature: centroid over the pruned feature space.
    pub centroids: Vec<Vec<f64>>,
    /// Per signature: assignment radius (beyond it a new sample stays
    /// unassigned).
    pub radii: Vec<f64>,
    /// Per signature: the attack feature rows it was trained on.
    pub attack_rows: Vec<Vec<Vec<(usize, f64)>>>,
    /// The benign training matrix (pruned columns).
    pub benign: CsrMatrix,
    /// Training options for (re-)fitting Θ.
    pub train_opts: TrainOptions,
}

impl Psigene {
    /// Runs the full pipeline with the given configuration.
    ///
    /// # Panics
    /// Panics when the configuration produces an empty corpus.
    pub fn train(config: &PipelineConfig) -> Psigene {
        // ── Phase 1: webcrawling for attack samples (§II-A) ──
        let crawl_span = psigene_telemetry::span("pipeline.crawl");
        let attacks = crawl_training_set(&CrawlCorpusConfig {
            samples: config.crawl_samples,
            seed: config.seed,
            profile: config.portal_profile,
        });
        let benign = benign::generate(&BenignConfig {
            requests: config.benign_train,
            sqlish_fraction: config.benign_sqlish_fraction,
            include_novel_tail: false,
            seed: config.seed ^ 0xbe9116,
        });
        let crawl_seconds = crawl_span.finish().as_secs_f64();
        let mut system = Psigene::train_from_datasets(&attacks, &benign, config);
        system.report.phase_seconds.crawl = crawl_seconds;
        system
    }

    /// Runs phases 2–4 on caller-provided datasets (used by tests,
    /// the incremental experiment and the harness).
    ///
    /// # Panics
    /// Panics when `attacks` is empty.
    pub fn train_from_datasets(
        attacks: &Dataset,
        benign: &Dataset,
        config: &PipelineConfig,
    ) -> Psigene {
        assert!(!attacks.is_empty(), "empty attack corpus");
        let mut report = PipelineReport::default();

        // ── Phase 2: feature extraction (§II-B) ──
        let extract_span = psigene_telemetry::span("pipeline.extract");
        let full = FeatureSet::full();
        report.initial_features = full.len();
        let attack_payloads: Vec<&[u8]> = attacks
            .samples
            .iter()
            .map(|s| s.request.detection_payload())
            .collect();
        let attack_full = extract::extract_matrix(&full, &attack_payloads, config.threads);
        let (pruned, kept) = full.prune_unobserved(&attack_full);
        let mut attack_m = attack_full.select_cols(&kept);
        if config.binary_features {
            attack_m = attack_m.binarize();
        }
        report.pruned_features = pruned.len();
        report.binary_features = pruned.binary_feature_count(&attack_m);
        report.matrix_sparsity = attack_m.sparsity();
        let ones: usize = (0..attack_m.rows())
            .map(|r| attack_m.row(r).filter(|&(_, v)| v == 1.0).count())
            .sum();
        report.matrix_ones_fraction =
            ones as f64 / (attack_m.rows() * attack_m.cols()).max(1) as f64;

        let benign_payloads: Vec<&[u8]> = benign
            .samples
            .iter()
            .map(|s| s.request.detection_payload())
            .collect();
        let mut benign_m = extract::extract_matrix(&pruned, &benign_payloads, config.threads);
        if config.binary_features {
            benign_m = benign_m.binarize();
        }
        report.phase_seconds.extract = extract_span.finish().as_secs_f64();

        // ── Phase 3: biclustering (§II-C) ──
        let bicluster_span = psigene_telemetry::span("pipeline.bicluster");
        let n = attack_m.rows();
        let cap = config.cluster_sample_cap.max(8);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x0c10_57e5);
        let sampled_idx: Vec<usize> = if n > cap {
            let mut idx = index_sample(&mut rng, n, cap).into_vec();
            idx.sort_unstable();
            idx
        } else {
            (0..n).collect()
        };
        report.clustered_directly = sampled_idx.len();
        let cluster_m = attack_m.select_rows(&sampled_idx);
        let pairwise_span = psigene_telemetry::span("train.pairwise");
        let cluster_norms = cluster_m.row_norms_sq();
        let mut cond = pairwise_euclidean_sparse(&cluster_m, config.threads);
        pairwise_span.finish();
        // HAC consumes the condensed buffer in place; fold the moments
        // of the original distances out of it first, then let the
        // streaming cophenetic pass re-derive individual entries from
        // the cached row norms (bit-identical via the shared Gram
        // identity). This drops the O(n²) `cond.clone()` the buffered
        // correlation needed, halving phase-3 peak memory.
        let (cond_sum, cond_sum_sq) = cond
            .iter()
            .fold((0.0, 0.0), |(s, ss), &x| (s + x, ss + x * x));
        let dend = cluster_condensed(cluster_m.rows(), &mut cond, config.bicluster.linkage);
        drop(cond);
        let cophenetic_span = psigene_telemetry::span("train.cophenetic");
        report.cophenetic_correlation =
            cophenetic_correlation_streaming(&dend, cond_sum, cond_sum_sq, |i, j| {
                euclidean_from_gram(cluster_norms[i], cluster_norms[j], cluster_m.row_dot(i, j))
            });
        cophenetic_span.finish();
        let bic = bicluster_with_dendrogram(&cluster_m, dend, &config.bicluster);
        report.chosen_k = bic.chosen_k;

        // Map sampled-row clusters back to the full corpus via
        // nearest-centroid assignment with a per-cluster radius.
        let nfeat = pruned.len();
        let mut centroids: Vec<Vec<f64>> = Vec::new();
        let mut radii: Vec<f64> = Vec::new();
        let mut cluster_cols: Vec<Vec<usize>> = Vec::new();
        let mut black_holes: Vec<bool> = Vec::new();
        for bc in &bic.biclusters {
            let mut c = vec![0.0; nfeat];
            for &r in &bc.rows {
                for (col, v) in cluster_m.row(r) {
                    c[col] += v;
                }
            }
            let len = bc.rows.len().max(1) as f64;
            for v in &mut c {
                *v /= len;
            }
            // Radius: mean member-to-centroid distance, padded.
            let c_norm_sq: f64 = c.iter().map(|v| v * v).sum();
            let mean_d: f64 = bc
                .rows
                .iter()
                .map(|&r| row_centroid_distance_with_norm(&cluster_m, r, &c, c_norm_sq))
                .sum::<f64>()
                / len;
            centroids.push(c);
            radii.push((mean_d * 2.0).max(1e-6));
            cluster_cols.push(bc.cols.clone());
            black_holes.push(bc.black_hole);
        }

        let mut members: Vec<Vec<usize>> = vec![Vec::new(); centroids.len()];
        // Sampled rows keep their cluster assignment.
        let mut assigned = vec![false; n];
        for (ci, bc) in bic.biclusters.iter().enumerate() {
            for &r in &bc.rows {
                members[ci].push(sampled_idx[r]);
                assigned[sampled_idx[r]] = true;
            }
        }
        // Remaining rows go to the nearest centroid within its radius.
        // Centroid norms are hoisted out of the distance kernel and
        // the per-row searches fan out over `config.threads` workers;
        // each row's choice depends only on read-only state, so the
        // parallel pass picks exactly the bits the sequential loop
        // would, and the choices are applied in row order afterwards.
        let assign_span = psigene_telemetry::span("train.assign");
        let centroid_norms: Vec<f64> = centroids
            .iter()
            .map(|c| c.iter().map(|v| v * v).sum())
            .collect();
        let choose = |r: usize| -> Option<usize> {
            if assigned[r] {
                return None;
            }
            let mut best = None;
            let mut best_d = f64::INFINITY;
            for (ci, c) in centroids.iter().enumerate() {
                let d = row_centroid_distance_with_norm(&attack_m, r, c, centroid_norms[ci]);
                if d < best_d {
                    best_d = d;
                    best = Some(ci);
                }
            }
            best.filter(|&ci| best_d <= radii[ci])
        };
        let threads = config.threads.max(1);
        let choices: Vec<Option<usize>> = if threads == 1 || n < 2 * threads {
            (0..n).map(choose).collect()
        } else {
            let chunk = n.div_ceil(threads);
            let mut out: Vec<Option<usize>> = vec![None; n];
            std::thread::scope(|scope| {
                for (w, slice) in out.chunks_mut(chunk).enumerate() {
                    let choose = &choose;
                    scope.spawn(move || {
                        for (k, slot) in slice.iter_mut().enumerate() {
                            *slot = choose(w * chunk + k);
                        }
                    });
                }
            });
            out
        };
        for (r, choice) in choices.into_iter().enumerate() {
            if let Some(ci) = choice {
                members[ci].push(r);
                assigned[r] = true;
            }
        }
        assign_span.finish();
        report.unclustered_samples = assigned.iter().filter(|a| !**a).count();

        // Re-rank clusters by total size (largest = id 1, the paper's
        // numbering), keeping black-hole info attached.
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(members[i].len()));
        report.phase_seconds.bicluster = bicluster_span.finish().as_secs_f64();

        // ── Phase 4: one logistic-regression signature per
        //             non-black-hole bicluster (§II-D) ──
        //
        // Three passes keep the parallel trainer's output identical
        // to the sequential one: pass 1 makes every black-hole and
        // capacity decision in rank order, pass 2 fits the surviving
        // biclusters concurrently (each fit's arithmetic is
        // independent of scheduling), pass 3 assembles signatures and
        // incremental state back in rank order.
        let train_span = psigene_telemetry::span("pipeline.train");
        psigene_telemetry::gauge("train.threads").set(threads as f64);
        struct FitJob {
            ci: usize,
            id: usize,
            report_idx: usize,
            attack_rows: Vec<Vec<(usize, f64)>>,
        }
        let mut jobs: Vec<FitJob> = Vec::new();
        let mut produced = 0usize;
        for (rank, &ci) in order.iter().enumerate() {
            let id = rank + 1;
            let rows = &members[ci];
            let cols = &cluster_cols[ci];
            // Zero fraction over the full (assigned) membership.
            let nnz: usize = rows.iter().map(|&r| attack_m.row(r).count()).sum();
            let zero_fraction = if rows.is_empty() {
                1.0
            } else {
                1.0 - nnz as f64 / (rows.len() * attack_m.cols()) as f64
            };
            let is_black_hole = black_holes[ci]
                || zero_fraction > config.bicluster.black_hole_threshold
                || cols.is_empty()
                || rows.is_empty();
            let at_capacity = config
                .max_signatures
                .map(|m| produced >= m)
                .unwrap_or(false);
            if !is_black_hole && !at_capacity {
                let attack_rows: Vec<Vec<(usize, f64)>> = rows
                    .iter()
                    .map(|&r| attack_m.row(r).collect::<Vec<_>>())
                    .collect();
                jobs.push(FitJob {
                    ci,
                    id,
                    report_idx: report.clusters.len(),
                    attack_rows,
                });
                produced += 1;
            }
            report.clusters.push(ClusterInfo {
                id,
                samples: rows.len(),
                features_biclustering: cols.len(),
                features_signature: 0,
                black_hole: is_black_hole,
                zero_fraction,
            });
        }

        let fit_span = psigene_telemetry::span("train.fit");
        let mut fitted: Vec<Option<GeneralizedSignature>> = Vec::new();
        fitted.resize_with(jobs.len(), || None);
        if threads == 1 || jobs.len() <= 1 {
            for (slot, job) in fitted.iter_mut().zip(&jobs) {
                *slot = Some(fit_signature(
                    job.id,
                    &cluster_cols[job.ci],
                    &job.attack_rows,
                    &benign_m,
                    &config.train,
                    config.threshold,
                ));
            }
            psigene_telemetry::histogram("train.fits_per_worker").record(jobs.len() as u64);
        } else {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let next = AtomicUsize::new(0);
            let results: Vec<Vec<(usize, GeneralizedSignature)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads.min(jobs.len()))
                    .map(|_| {
                        let next = &next;
                        let jobs = &jobs;
                        let benign_m = &benign_m;
                        let cluster_cols = &cluster_cols;
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            loop {
                                let k = next.fetch_add(1, Ordering::Relaxed);
                                if k >= jobs.len() {
                                    break;
                                }
                                let job = &jobs[k];
                                local.push((
                                    k,
                                    fit_signature(
                                        job.id,
                                        &cluster_cols[job.ci],
                                        &job.attack_rows,
                                        benign_m,
                                        &config.train,
                                        config.threshold,
                                    ),
                                ));
                            }
                            psigene_telemetry::histogram("train.fits_per_worker")
                                .record(local.len() as u64);
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("signature fit worker panicked"))
                    .collect()
            });
            for worker in results {
                for (k, sig) in worker {
                    fitted[k] = Some(sig);
                }
            }
        }
        fit_span.finish();

        let mut signatures = Vec::new();
        let mut state_centroids = Vec::new();
        let mut state_radii = Vec::new();
        let mut state_rows: Vec<Vec<Vec<(usize, f64)>>> = Vec::new();
        for (job, sig) in jobs.into_iter().zip(fitted) {
            let sig = sig.expect("every accepted bicluster was fitted");
            report.clusters[job.report_idx].features_signature = sig.effective_feature_count(0.05);
            signatures.push(sig);
            // Incremental-update state.
            state_centroids.push(centroids[job.ci].clone());
            state_radii.push(radii[job.ci]);
            state_rows.push(job.attack_rows);
        }
        report.phase_seconds.train = train_span.finish().as_secs_f64();

        // Build the fused scan automaton now so the first request
        // against the trained system pays no build latency (clones —
        // retrained copies, threshold sweeps — share the automaton).
        pruned.compiled();

        Psigene {
            name: format!("pSigene ({} signatures)", signatures.len()),
            binary: config.binary_features,
            feature_set: pruned,
            signatures,
            report,
            state: TrainingState {
                centroids: state_centroids,
                radii: state_radii,
                attack_rows: state_rows,
                benign: benign_m,
                train_opts: config.train.clone(),
            },
            threshold: config.threshold,
            insight: None,
            plan: crate::plan::PlanCell::default(),
        }
    }

    /// The trained signatures, largest cluster first.
    pub fn signatures(&self) -> &[GeneralizedSignature] {
        &self.signatures
    }

    /// The pruned feature set the signatures index into.
    pub fn feature_set(&self) -> &FeatureSet {
        &self.feature_set
    }

    /// Pipeline diagnostics (Table VI, Figure 2 numbers).
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }

    /// A point-in-time copy of the global telemetry registry: phase
    /// spans (`span.pipeline.*`), trainer convergence counters
    /// (`learn.*`), the detection latency histogram
    /// (`detector.latency_ns`) and per-signature hit counters
    /// (`detector.sig_match.<id>`). The registry is process-wide, so
    /// the snapshot reflects every engine in the process, not only
    /// this one.
    ///
    /// The hot path buffers its telemetry per thread (DESIGN §11):
    /// this first publishes everything the *calling* thread holds —
    /// detector counters and latencies, its drift batch, extraction
    /// counters — so the snapshot includes every request this thread
    /// evaluated. Other threads' buffers lag by at most 31 requests
    /// (drift: less than one window) until they publish or exit.
    pub fn telemetry_snapshot(&self) -> psigene_telemetry::Snapshot {
        crate::detector::publish_thread_telemetry();
        psigene_features::extract::flush_extract_metrics();
        psigene_telemetry::global().snapshot()
    }

    /// A copy restricted to the signatures with the given ids — the
    /// paper evaluates 7- and 9-signature subsets of its 11 clusters.
    pub fn with_signatures(&self, ids: &[usize]) -> Psigene {
        let mut out = self.clone();
        let keep: Vec<usize> = self
            .signatures
            .iter()
            .enumerate()
            .filter(|(_, s)| ids.contains(&s.id))
            .map(|(i, _)| i)
            .collect();
        out.signatures = keep.iter().map(|&i| self.signatures[i].clone()).collect();
        out.state.centroids = keep
            .iter()
            .map(|&i| self.state.centroids[i].clone())
            .collect();
        out.state.radii = keep.iter().map(|&i| self.state.radii[i]).collect();
        out.state.attack_rows = keep
            .iter()
            .map(|&i| self.state.attack_rows[i].clone())
            .collect();
        out.name = format!("pSigene ({} signatures)", out.signatures.len());
        out
    }

    /// A copy with a different decision threshold (ROC sweeps).
    pub fn with_threshold(&self, threshold: f64) -> Psigene {
        let mut out = self.clone();
        out.threshold = threshold;
        for s in &mut out.signatures {
            s.threshold = threshold;
        }
        out
    }

    /// A copy with drift monitoring toggled (default windowing).
    /// Enabled, every evaluated request feeds feature-frequency and
    /// per-signature score drift monitors whose PSI/KL scores export as
    /// `drift.*` gauges; disabled, the hot path pays nothing.
    /// Verdicts are identical either way — the monitor observes the
    /// scoring the engine already does.
    pub fn with_insight(&self, enabled: bool) -> Psigene {
        if enabled {
            self.with_drift_config(psigene_telemetry::insight::DriftConfig::default())
        } else {
            let mut out = self.clone();
            out.insight = None;
            out
        }
    }

    /// A copy with drift monitoring enabled under explicit windowing.
    pub fn with_drift_config(&self, config: psigene_telemetry::insight::DriftConfig) -> Psigene {
        let mut out = self.clone();
        out.insight = Some(std::sync::Arc::new(crate::insight::EngineInsight::new(
            out.feature_set.len(),
            config,
        )));
        out
    }

    /// A copy wired for the continuous-learning control plane: drift
    /// monitoring is enabled under `config` and the shared monitor
    /// handle is returned alongside, so the caller can hand it to a
    /// `DriftWatch` (e.g. `psigene_serve::control::InsightDrift`) while the
    /// engine copy goes into the serving store. Clones of the returned
    /// engine — including retrained successors from
    /// [`Psigene::retrain_with`] — keep feeding the same monitor.
    pub fn with_control(
        &self,
        config: psigene_telemetry::insight::DriftConfig,
    ) -> (Psigene, std::sync::Arc<crate::insight::EngineInsight>) {
        let out = self.with_drift_config(config);
        let handle = out.insight.clone().expect("insight just enabled");
        (out, handle)
    }

    /// The engine's drift monitor, when enabled.
    pub fn insight(&self) -> Option<&crate::insight::EngineInsight> {
        self.insight.as_deref()
    }

    /// Current drift scores, when monitoring is enabled and at least
    /// one window completed.
    pub fn drift_scores(&self) -> Option<crate::insight::DriftScores> {
        self.insight.as_deref().map(|i| i.scores())
    }

    /// Freezes the drift monitor's current windows as the new
    /// references — called right after promoting a retrained model so
    /// drift is measured against the traffic it was accepted on.
    /// No-op when monitoring is disabled.
    ///
    /// The monitor's per-signature score slots are aligned to *this*
    /// engine's signature set: slots whose signature survived the
    /// retrain keep their history, slots whose slot-aligned id
    /// changed (dropped, reordered or replaced signatures) are reset
    /// rather than left accumulating one signature's scores against
    /// another's reference window.
    pub fn rebaseline_drift(&self) {
        if let Some(i) = self.insight.as_deref() {
            let ids: Vec<u32> = self.signatures.iter().map(|s| s.id as u32).collect();
            i.rebaseline_aligned(&ids);
        }
    }
}

/// Euclidean distance between a sparse row and a dense centroid, with
/// the centroid's squared norm hoisted out for loops that test many
/// rows against the same centroid (`c_norm_sq` must equal `Σcᵢ²`).
pub(crate) fn row_centroid_distance_with_norm(
    m: &CsrMatrix,
    r: usize,
    centroid: &[f64],
    c_norm_sq: f64,
) -> f64 {
    // ||x - c||² = ||c||² + Σ_nz (x_i² - 2 x_i c_i) over x's support,
    // computed without densifying x.
    let mut acc = c_norm_sq;
    for (col, v) in m.row(r) {
        acc += v * v - 2.0 * v * centroid[col];
    }
    acc.max(0.0).sqrt()
}

/// Fits one signature: the bicluster's attack rows against the whole
/// benign matrix, over the bicluster's feature columns.
pub(crate) fn fit_signature(
    id: usize,
    cols: &[usize],
    attack_rows: &[Vec<(usize, f64)>],
    benign_m: &CsrMatrix,
    opts: &TrainOptions,
    threshold: f64,
) -> GeneralizedSignature {
    let na = attack_rows.len();
    let nb = benign_m.rows();
    let d = cols.len();
    // Column remap into the signature's local feature space.
    let mut remap = vec![usize::MAX; benign_m.cols()];
    for (new, &old) in cols.iter().enumerate() {
        remap[old] = new;
    }
    // The design matrix stays CSR end to end — biclusters are never
    // densified on the training path. `train_sparse` folds the same
    // terms in the same order as the dense trainer, so the fit is
    // bit-identical to the old densifying implementation.
    let mut b = CsrBuilder::new(d);
    let mut buf: Vec<(usize, f64)> = Vec::new();
    for row in attack_rows {
        buf.clear();
        for &(c, v) in row {
            if remap[c] != usize::MAX {
                buf.push((remap[c], v));
            }
        }
        b.push_row(&buf);
    }
    for r in 0..nb {
        buf.clear();
        for (c, v) in benign_m.row(r) {
            if remap[c] != usize::MAX {
                buf.push((remap[c], v));
            }
        }
        b.push_row(&buf);
    }
    let x = b.build();
    let mut y = vec![true; na];
    y.extend(std::iter::repeat_n(false, nb));
    let fit = train_sparse(&x, &y, opts);
    let telemetry = psigene_telemetry::global();
    telemetry.counter("train.signature_fits").inc();
    telemetry
        .histogram("train.newton_iters_per_signature")
        .record(fit.newton_iterations as u64);
    telemetry
        .histogram("train.pcg_iters_per_signature")
        .record(fit.cg_iterations as u64);
    GeneralizedSignature {
        id,
        feature_indices: cols.to_vec(),
        model: fit.model,
        threshold,
        training_samples: na,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;

    fn trained() -> Psigene {
        Psigene::train(&PipelineConfig {
            crawl_samples: 300,
            benign_train: 1200,
            cluster_sample_cap: 300,
            threads: 2,
            ..PipelineConfig::default()
        })
    }

    #[test]
    fn pipeline_produces_signatures_and_report() {
        let p = trained();
        assert!(!p.signatures().is_empty(), "no signatures produced");
        let r = p.report();
        assert!(r.initial_features >= r.pruned_features);
        assert!(r.pruned_features > 50);
        assert!(r.matrix_sparsity > 0.5);
        assert!(!r.clusters.is_empty());
        // Cluster ids are 1-based and ordered by size.
        for w in r.clusters.windows(2) {
            assert!(w[0].samples >= w[1].samples);
        }
    }

    #[test]
    fn signatures_use_subsets_of_features() {
        let p = trained();
        for s in p.signatures() {
            assert!(!s.feature_indices.is_empty());
            assert!(s.feature_indices.iter().all(|&i| i < p.feature_set().len()));
            // Matrix order: what lets the scoring plan treat row order
            // as weight order for every trained signature.
            assert!(s.feature_indices.windows(2).all(|w| w[0] < w[1]));
            assert!(s.signature_feature_count(1e-6) <= s.bicluster_feature_count());
        }
    }

    #[test]
    fn with_signatures_restricts() {
        let p = trained();
        let ids: Vec<usize> = p.signatures().iter().take(2).map(|s| s.id).collect();
        let sub = p.with_signatures(&ids);
        assert_eq!(sub.signatures().len(), ids.len().min(p.signatures().len()));
    }

    #[test]
    fn centroid_distance_matches_dense() {
        use psigene_linalg::CsrBuilder;
        let mut b = CsrBuilder::new(3);
        b.push_dense_row(&[1.0, 0.0, 2.0]);
        let m = b.build();
        let c = vec![0.5, 1.0, 0.0];
        let c_norm_sq: f64 = c.iter().map(|v| v * v).sum();
        let expect = ((0.5f64).powi(2) + 1.0 + 4.0).sqrt();
        let got = row_centroid_distance_with_norm(&m, 0, &c, c_norm_sq);
        assert!((got - expect).abs() < 1e-12);
    }
}
