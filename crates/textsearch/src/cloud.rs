//! Data clouds (§3.1).
//!
//! "The data cloud contains the most significant or representative terms
//! within the currently found set of entities. The terms are aggregated
//! over all parts that make a course entity […] How do we find and rank
//! terms in the results of a search and how can we dynamically and
//! efficiently compute their data cloud?"
//!
//! This module answers with two scorers and two aggregation strategies:
//!
//! * [`TermScorer::LogLikelihood`] (default) — Dunning's log-likelihood
//!   ratio comparing each term's frequency inside the result set against
//!   the rest of the corpus; surfaces terms *characteristic of the result
//!   set*, not merely frequent ones.
//! * [`TermScorer::TfIdf`] — aggregate tf × idf; more frequency-driven,
//!   and it pays a postings walk per term for the corpus doc frequency.
//! * Exact aggregation over the full result set, or a sampled
//!   approximation over the top-K scored documents (the "efficiently"
//!   half of the question; ablation A1 in DESIGN.md benchmarks the
//!   trade-off).

use std::collections::HashMap;

use crate::index::{DocId, InvertedIndex};
use crate::score::idf;

/// Term aggregates over a result set: term → (tf, df), plus the total
/// token count.
type TermAgg<'a> = (HashMap<&'a str, (u64, usize)>, u64);

/// Which statistic ranks cloud terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TermScorer {
    /// Dunning log-likelihood ratio vs. the background corpus.
    #[default]
    LogLikelihood,
    /// Σ tf in results × idf in corpus.
    TfIdf,
}

/// Cloud computation settings.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// How many terms the cloud shows. CourseRank's UI shows a few dozen.
    pub max_terms: usize,
    /// Rank terms with this scorer.
    pub scorer: TermScorer,
    /// If set, aggregate only over the top-K documents of the result list
    /// (the sampled approximation) instead of the whole result set.
    pub sample_top_k: Option<usize>,
    /// Minimum number of result documents a term must appear in.
    pub min_doc_freq: usize,
    /// Prefer bigrams when a bigram subsumes its parts (e.g. show
    /// "latin american" and suppress a bare "latin" that only ever occurs
    /// inside it).
    pub collapse_subterms: bool,
    /// Minimum cohesion for a bigram to enter the cloud:
    /// corpus_tf(bigram) / min(corpus_tf(w1), corpus_tf(w2)). Random
    /// adjacencies ("hour american") score near zero; real phrases
    /// ("latin american") score high.
    pub bigram_cohesion: f64,
    /// Score multiplier for (cohesive) bigrams — multi-word cloud terms
    /// are the paper's best refinements ("African American") and deserve
    /// prominence over their constituent unigrams.
    pub bigram_boost: f64,
    /// Guarantee this many bigram slots in the cloud (when cohesive
    /// bigrams exist), displacing the lowest-scored unigrams — Figure 3's
    /// cloud always shows phrases ("Latin American", "African American").
    pub min_bigrams: usize,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            max_terms: 30,
            scorer: TermScorer::default(),
            sample_top_k: None,
            min_doc_freq: 2,
            collapse_subterms: true,
            bigram_cohesion: 0.03,
            bigram_boost: 2.0,
            min_bigrams: 4,
        }
    }
}

/// One term in the cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudTerm {
    /// The index term (stemmed) — what refinement queries use.
    pub term: String,
    /// The display form ("politics" for the stem "politic").
    pub display: String,
    pub score: f64,
    /// In how many result documents the term occurs.
    pub result_doc_freq: usize,
    /// Total occurrences within the result set.
    pub result_tf: u64,
    /// Display size bucket 1..=5 (tag-cloud font size).
    pub bucket: u8,
}

/// A computed data cloud.
#[derive(Debug, Clone, Default)]
pub struct DataCloud {
    pub terms: Vec<CloudTerm>,
    /// How many documents were aggregated (≤ result size when sampling).
    pub docs_aggregated: usize,
}

impl DataCloud {
    /// Render the cloud as text, size indicated by repetition of `*`
    /// markers — the terminal stand-in for font size in Figure 3.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.terms {
            out.push_str(&format!(
                "{:<28} {}\n",
                t.display,
                "█".repeat(t.bucket as usize)
            ));
        }
        out
    }

    /// Term list (for refinement pickers).
    pub fn term_strings(&self) -> Vec<&str> {
        self.terms.iter().map(|t| t.term.as_str()).collect()
    }
}

/// Owned term aggregates over a (sampled) result set: everything cloud
/// scoring needs besides the corpus statistics. The counts are plain
/// integers, so they can be maintained incrementally when one document is
/// reindexed — [`CloudAgg::apply_reindex_delta`] — and the maintained
/// aggregates are exactly equal to a recomputation (integer adds are
/// order-independent); re-scoring from them via [`cloud_from_agg`]
/// reproduces [`compute_cloud`] bit for bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CloudAgg {
    /// term → (tf across result docs, number of result docs containing it).
    pub terms: HashMap<String, (u64, usize)>,
    /// Σ tf — total tokens (incl. bigrams) across the aggregated docs.
    pub token_total: u64,
    /// How many documents were aggregated (≤ result size when sampling).
    pub docs_aggregated: usize,
}

impl CloudAgg {
    /// Fold one document's reindex into the aggregates: `old`/`new` are
    /// the doc's term-frequency maps before and after. Returns `false`
    /// when the shift is inconsistent with the stored counts (underflow)
    /// — the caller must discard the aggregates and recompute.
    pub fn apply_reindex_delta(
        &mut self,
        old: &HashMap<String, u32>,
        new: &HashMap<String, u32>,
    ) -> bool {
        for (term, &otf) in old {
            let ntf = new.get(term).copied().unwrap_or(0);
            if !self.shift_term(term, otf, ntf) {
                return false;
            }
        }
        for (term, &ntf) in new {
            if !old.contains_key(term) && !self.shift_term(term, 0, ntf) {
                return false;
            }
        }
        true
    }

    fn shift_term(&mut self, term: &str, old_tf: u32, new_tf: u32) -> bool {
        if old_tf == new_tf {
            return true;
        }
        let slot = self.terms.entry(term.to_owned()).or_insert((0, 0));
        let shifted = slot
            .0
            .checked_add(new_tf as u64)
            .and_then(|v| v.checked_sub(old_tf as u64));
        let total = self
            .token_total
            .checked_add(new_tf as u64)
            .and_then(|v| v.checked_sub(old_tf as u64));
        let df = match (old_tf > 0, new_tf > 0) {
            (false, true) => slot.1.checked_add(1),
            (true, false) => slot.1.checked_sub(1),
            _ => Some(slot.1),
        };
        match (shifted, total, df) {
            (Some(tf), Some(tok), Some(df)) => {
                slot.0 = tf;
                slot.1 = df;
                self.token_total = tok;
                // A fresh aggregation has no zero entries; keep parity.
                if tf == 0 && df == 0 {
                    self.terms.remove(term);
                }
                true
            }
            _ => false,
        }
    }
}

/// Sample per config: cloud aggregation runs over the top-K scored docs
/// when `sample_top_k` is set, else the whole result list.
fn sample<'a>(results: &'a [DocId], config: &CloudConfig) -> &'a [DocId] {
    match config.sample_top_k {
        Some(k) if k < results.len() => &results[..k],
        _ => results,
    }
}

/// The aggregation half of [`compute_cloud`], with owned terms — the
/// cacheable/maintainable intermediate.
pub fn aggregate_cloud(index: &InvertedIndex, results: &[DocId], config: &CloudConfig) -> CloudAgg {
    let docs = sample(results, config);
    let (agg, token_total) = aggregate_terms(index, docs);
    CloudAgg {
        terms: agg.into_iter().map(|(t, v)| (t.to_owned(), v)).collect(),
        token_total,
        docs_aggregated: docs.len(),
    }
}

/// The scoring half of [`compute_cloud`]: rank a (possibly cached and
/// delta-maintained) aggregate against the *current* corpus statistics.
/// `compute_cloud(ix, r, x, c) == cloud_from_agg(ix, &aggregate_cloud(ix, r, c), x, c)`
/// bit for bit.
pub fn cloud_from_agg(
    index: &InvertedIndex,
    agg: &CloudAgg,
    exclude_terms: &[String],
    config: &CloudConfig,
) -> DataCloud {
    score_with_fallback(
        index,
        &agg.terms,
        agg.token_total,
        agg.docs_aggregated,
        exclude_terms,
        config,
    )
}

/// Compute a data cloud over `results` (doc ids ordered by search score).
///
/// `exclude_terms` removes the query's own terms — a cloud for the query
/// "american" should suggest *refinements*, not echo "american" back.
pub fn compute_cloud(
    index: &InvertedIndex,
    results: &[DocId],
    exclude_terms: &[String],
    config: &CloudConfig,
) -> DataCloud {
    let docs = sample(results, config);
    if docs.is_empty() {
        return DataCloud::default();
    }
    let (agg, result_token_total) = aggregate_terms(index, docs);
    score_with_fallback(
        index,
        &agg,
        result_token_total,
        docs.len(),
        exclude_terms,
        config,
    )
}

/// Score with the configured scorer; on a degenerate LLR outcome (the
/// result set ≈ the whole corpus, so nothing is *over*represented and the
/// cloud comes out empty) fall back to TF-IDF, which still ranks the
/// set's frequent-but-rare terms. Aggregation is scorer-independent, so
/// the fallback reuses the aggregates.
fn score_with_fallback<K: std::borrow::Borrow<str> + Eq + std::hash::Hash>(
    index: &InvertedIndex,
    agg: &HashMap<K, (u64, usize)>,
    result_token_total: u64,
    docs_aggregated: usize,
    exclude_terms: &[String],
    config: &CloudConfig,
) -> DataCloud {
    let cloud = score_cloud(
        index,
        agg,
        result_token_total,
        docs_aggregated,
        exclude_terms,
        config,
    );
    if cloud.terms.is_empty() && docs_aggregated > 0 && config.scorer == TermScorer::LogLikelihood {
        return score_cloud(
            index,
            agg,
            result_token_total,
            docs_aggregated,
            exclude_terms,
            &CloudConfig {
                scorer: TermScorer::TfIdf,
                ..config.clone()
            },
        );
    }
    cloud
}

fn score_cloud<K: std::borrow::Borrow<str> + Eq + std::hash::Hash>(
    index: &InvertedIndex,
    agg: &HashMap<K, (u64, usize)>,
    result_token_total: u64,
    docs_aggregated: usize,
    exclude_terms: &[String],
    config: &CloudConfig,
) -> DataCloud {
    if docs_aggregated == 0 {
        return DataCloud::default();
    }
    let corpus_docs = index.num_docs().max(1);
    let corpus_token_total = (index.corpus_tokens() as f64).max(result_token_total as f64 + 1.0);

    let excluded: Vec<&str> = exclude_terms.iter().map(String::as_str).collect();
    let mut scored: Vec<CloudTerm> = Vec::with_capacity(agg.len() / 4);
    for (term, (tf, df)) in agg {
        let term: &str = term.borrow();
        if *df < config.min_doc_freq {
            continue;
        }
        if excluded.contains(&term) || term.split(' ').all(|part| excluded.contains(&part)) {
            continue;
        }
        let score = match config.scorer {
            // `doc_freq` walks the term's postings list; only TF-IDF reads it.
            TermScorer::TfIdf => *tf as f64 * idf(corpus_docs, index.doc_freq(term)),
            TermScorer::LogLikelihood => {
                // Exact 2×2 contingency: term occurrences inside vs
                // outside the result set.
                let k1 = *tf as f64;
                let n1 = result_token_total as f64;
                let k2 = (index.corpus_tf(term) as f64 - k1).max(0.0) + 0.5;
                let n2 = (corpus_token_total - n1).max(1.0);
                log_likelihood_ratio(k1, n1, k2, n2)
            }
        };
        let mut score = score;
        if let Some((w1, w2)) = term.split_once(' ') {
            let pair_tf = index.corpus_tf(term) as f64;
            let min_part = index.corpus_tf(w1).min(index.corpus_tf(w2)).max(1) as f64;
            if pair_tf / min_part < config.bigram_cohesion {
                continue; // incidental adjacency, not a phrase
            }
            score *= config.bigram_boost;
        }
        if score <= 0.0 {
            continue;
        }
        scored.push(CloudTerm {
            term: (*term).to_owned(),
            display: index.display_form(term).to_owned(),
            score,
            result_doc_freq: *df,
            result_tf: *tf,
            bucket: 1,
        });
    }

    scored.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.term.cmp(&b.term))
    });

    if config.collapse_subterms {
        collapse_subterms(&mut scored);
    }
    // Reserve slots for the best bigrams before truncating.
    if scored.len() > config.max_terms && config.min_bigrams > 0 {
        let in_window = scored[..config.max_terms]
            .iter()
            .filter(|t| t.term.contains(' '))
            .count();
        if in_window < config.min_bigrams {
            let mut promote: Vec<CloudTerm> = scored[config.max_terms..]
                .iter()
                .filter(|t| t.term.contains(' '))
                .take(config.min_bigrams - in_window)
                .cloned()
                .collect();
            if !promote.is_empty() {
                // Drop the lowest-scored unigrams from the window.
                let mut kept = Vec::with_capacity(config.max_terms);
                let drop_n = promote.len();
                let mut unigrams_to_drop = drop_n;
                for t in scored[..config.max_terms].iter().rev() {
                    if unigrams_to_drop > 0 && !t.term.contains(' ') {
                        unigrams_to_drop -= 1;
                    } else {
                        kept.push(t.clone());
                    }
                }
                kept.reverse();
                kept.append(&mut promote);
                kept.sort_by(|a, b| {
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                scored = kept;
            }
        }
    }
    scored.truncate(config.max_terms);
    assign_buckets(&mut scored);
    DataCloud {
        terms: scored,
        docs_aggregated,
    }
}

/// Tally term → (tf, df) plus the total token count over `docs` from the
/// forward index.
fn aggregate_terms<'a>(index: &'a InvertedIndex, docs: &[DocId]) -> TermAgg<'a> {
    let mut agg: HashMap<&str, (u64, usize)> = HashMap::new();
    let mut token_total: u64 = 0;
    for &d in docs {
        if let Some(entry) = index.doc(d) {
            for (term, tf) in &entry.term_freqs {
                let slot = agg.entry(term.as_str()).or_insert((0, 0));
                slot.0 += *tf as u64;
                slot.1 += 1;
                token_total += *tf as u64;
            }
        }
    }
    (agg, token_total)
}

/// Dunning's G² statistic for a 2×2 contingency of term occurrence inside
/// vs. outside the result set.
pub fn log_likelihood_ratio(k1: f64, n1: f64, k2: f64, n2: f64) -> f64 {
    if k1 <= 0.0 || n1 <= 0.0 || n2 <= 0.0 {
        return 0.0;
    }
    let p1 = k1 / n1;
    let p2 = k2 / n2;
    let p = (k1 + k2) / (n1 + n2);
    let ll = |k: f64, q: f64| {
        if k <= 0.0 || q <= 0.0 {
            0.0
        } else {
            k * q.ln()
        }
    };
    let num = ll(k1, p1) + ll(n1 - k1, 1.0 - p1) + ll(k2, p2) + ll(n2 - k2, 1.0 - p2);
    let den = ll(k1, p) + ll(n1 - k1, 1.0 - p) + ll(k2, p) + ll(n2 - k2, 1.0 - p);
    let g2 = 2.0 * (num - den);
    // One-sided: only overrepresentation in the result set counts.
    if p1 > p2 {
        g2.max(0.0)
    } else {
        0.0
    }
}

/// Suppress a unigram when a retained higher-scoring bigram contains it
/// and accounts for most (≥80%) of its occurrences.
fn collapse_subterms(scored: &mut Vec<CloudTerm>) {
    let bigrams: Vec<(String, u64, usize)> = scored
        .iter()
        .filter(|t| t.term.contains(' '))
        .map(|t| (t.term.clone(), t.result_tf, t.result_doc_freq))
        .collect();
    if bigrams.is_empty() {
        return;
    }
    let mut rank: HashMap<&str, usize> = HashMap::new();
    for (i, t) in scored.iter().enumerate() {
        rank.insert(t.term.as_str(), i);
    }
    let mut dead = vec![false; scored.len()];
    for (bigram, btf, _) in &bigrams {
        let brank = rank[bigram.as_str()];
        for part in bigram.split(' ') {
            if let Some(&pi) = rank.get(part) {
                let parent = &scored[pi];
                if brank < pi && *btf as f64 >= 0.8 * parent.result_tf as f64 {
                    dead[pi] = true;
                }
            }
        }
    }
    let mut i = 0;
    scored.retain(|_| {
        let keep = !dead[i];
        i += 1;
        keep
    });
}

/// Map scores to display buckets 1..=5 on a log scale.
fn assign_buckets(terms: &mut [CloudTerm]) {
    if terms.is_empty() {
        return;
    }
    let max = terms.iter().map(|t| t.score).fold(f64::MIN, f64::max);
    let min = terms.iter().map(|t| t.score).fold(f64::MAX, f64::min);
    let span = (max.ln() - min.ln()).max(1e-9);
    for t in terms {
        let rel = (t.score.ln() - min.ln()) / span;
        t.bucket = 1 + (rel * 4.0).round() as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyzer;
    use crate::index::FieldSpec;

    fn build_corpus() -> (InvertedIndex, Vec<DocId>) {
        let mut ix = InvertedIndex::new(
            Analyzer::new(),
            vec![FieldSpec {
                name: "body".into(),
                weight: 1.0,
            }],
        );
        let b = ix.field_id("body").unwrap();
        let mut american = Vec::new();
        // 10 "american" docs that also discuss politics.
        for i in 0..10 {
            let text = format!("american politics and government debate {i} federal policy");
            american.push(ix.add_document(&[(b, text.as_str())]));
        }
        // 40 background docs about databases.
        for i in 0..40 {
            let text = format!("database systems storage query optimization {i}");
            ix.add_document(&[(b, text.as_str())]);
        }
        (ix, american)
    }

    #[test]
    fn cloud_surfaces_result_characteristic_terms() {
        let (ix, results) = build_corpus();
        let cloud = compute_cloud(&ix, &results, &["american".into()], &CloudConfig::default());
        let terms = cloud.term_strings();
        assert!(
            terms.iter().any(|t| t.contains("politic")),
            "expected politics in cloud, got {terms:?}"
        );
        // Background-corpus terms must not appear.
        assert!(!terms.iter().any(|t| t.contains("database")), "{terms:?}");
        // The query term itself is excluded.
        assert!(!terms.contains(&"american"), "{terms:?}");
    }

    #[test]
    fn excluded_bigrams_containing_query_terms() {
        let (ix, results) = build_corpus();
        let cloud = compute_cloud(
            &ix,
            &results,
            &["american".into(), "politic".into()],
            &CloudConfig::default(),
        );
        assert!(!cloud.term_strings().contains(&"american politic"));
    }

    #[test]
    fn sampling_reduces_docs_aggregated() {
        let (ix, results) = build_corpus();
        let cfg = CloudConfig {
            sample_top_k: Some(3),
            min_doc_freq: 1,
            ..CloudConfig::default()
        };
        let cloud = compute_cloud(&ix, &results, &[], &cfg);
        assert_eq!(cloud.docs_aggregated, 3);
    }

    #[test]
    fn sampled_cloud_approximates_exact() {
        let (ix, results) = build_corpus();
        let exact = compute_cloud(&ix, &results, &[], &CloudConfig::default());
        let approx = compute_cloud(
            &ix,
            &results,
            &[],
            &CloudConfig {
                sample_top_k: Some(5),
                ..CloudConfig::default()
            },
        );
        // Top-3 overlap should be substantial on this homogeneous corpus.
        let top_exact: Vec<&str> = exact.term_strings().into_iter().take(3).collect();
        let overlap = approx
            .term_strings()
            .iter()
            .take(5)
            .filter(|t| top_exact.contains(t))
            .count();
        assert!(
            overlap >= 2,
            "exact {top_exact:?} vs approx {:?}",
            approx.term_strings()
        );
    }

    #[test]
    fn empty_results_empty_cloud() {
        let (ix, _) = build_corpus();
        let cloud = compute_cloud(&ix, &[], &[], &CloudConfig::default());
        assert!(cloud.terms.is_empty());
        assert_eq!(cloud.docs_aggregated, 0);
    }

    #[test]
    fn buckets_span_one_to_five() {
        let (ix, results) = build_corpus();
        let cloud = compute_cloud(
            &ix,
            &results,
            &[],
            &CloudConfig {
                min_doc_freq: 1,
                ..CloudConfig::default()
            },
        );
        assert!(!cloud.terms.is_empty());
        assert!(cloud.terms.iter().all(|t| (1..=5).contains(&t.bucket)));
        // Highest-scored term gets the largest bucket present.
        let max_bucket = cloud.terms.iter().map(|t| t.bucket).max().unwrap();
        assert_eq!(cloud.terms[0].bucket, max_bucket);
    }

    #[test]
    fn llr_properties() {
        // Overrepresented term scores positive.
        assert!(log_likelihood_ratio(10.0, 100.0, 10.0, 10_000.0) > 0.0);
        // Underrepresented term clamps to zero.
        assert_eq!(log_likelihood_ratio(1.0, 1000.0, 500.0, 1000.0), 0.0);
        // Equal rates ≈ 0.
        assert!(log_likelihood_ratio(10.0, 100.0, 100.0, 1000.0) < 1e-9);
        // Degenerate inputs are safe.
        assert_eq!(log_likelihood_ratio(0.0, 0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn tfidf_scorer_runs() {
        let (ix, results) = build_corpus();
        let cloud = compute_cloud(
            &ix,
            &results,
            &[],
            &CloudConfig {
                scorer: TermScorer::TfIdf,
                ..CloudConfig::default()
            },
        );
        assert!(!cloud.terms.is_empty());
    }

    #[test]
    fn aggregate_then_score_equals_compute_cloud() {
        let (ix, results) = build_corpus();
        let cfg = CloudConfig {
            min_doc_freq: 1,
            ..CloudConfig::default()
        };
        let exclude = vec!["american".to_owned()];
        let direct = compute_cloud(&ix, &results, &exclude, &cfg);
        let agg = aggregate_cloud(&ix, &results, &cfg);
        let split = cloud_from_agg(&ix, &agg, &exclude, &cfg);
        assert_eq!(direct.docs_aggregated, split.docs_aggregated);
        assert_eq!(direct.terms.len(), split.terms.len());
        for (a, b) in direct.terms.iter().zip(&split.terms) {
            assert_eq!(a.term, b.term);
            assert_eq!(a.result_tf, b.result_tf);
            assert_eq!(a.result_doc_freq, b.result_doc_freq);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn reindex_delta_matches_recomputed_aggregates() {
        let (mut ix, mut results) = build_corpus();
        let cfg = CloudConfig::default();
        let mut maintained = aggregate_cloud(&ix, &results, &cfg);
        // Reindex the first result doc with changed text (remove + re-add,
        // as the entity layer does): some terms vanish, some appear, some
        // change frequency.
        let victim = results[0];
        let old_tf = ix.doc(victim).unwrap().term_freqs.clone();
        ix.remove_document(victim);
        let b = ix.field_id("body").unwrap();
        let fresh_doc = ix.add_document(&[(b, "american climate debate debate seminar")]);
        let new_tf = ix.doc(fresh_doc).unwrap().term_freqs.clone();
        assert!(maintained.apply_reindex_delta(&old_tf, &new_tf));
        results[0] = fresh_doc;
        let recomputed = aggregate_cloud(&ix, &results, &cfg);
        assert_eq!(maintained, recomputed);
        // And scoring the maintained aggregates equals a cold cloud.
        let cold = compute_cloud(&ix, &results, &[], &cfg);
        let warm = cloud_from_agg(&ix, &maintained, &[], &cfg);
        assert_eq!(cold.terms.len(), warm.terms.len());
        for (a, w) in cold.terms.iter().zip(&warm.terms) {
            assert_eq!(a.term, w.term);
            assert_eq!(a.score.to_bits(), w.score.to_bits());
        }
    }

    #[test]
    fn reindex_delta_underflow_reports_unmaintainable() {
        let mut agg = CloudAgg::default();
        let mut old = HashMap::new();
        old.insert("ghost".to_owned(), 3u32);
        let new = HashMap::new();
        // The aggregates never saw "ghost": subtracting must fail loudly
        // rather than wrap.
        assert!(!agg.clone().apply_reindex_delta(&old, &new));
        // Consistent shifts still work on the same starting point.
        old.clear();
        let mut added = HashMap::new();
        added.insert("new term".to_owned(), 2u32);
        assert!(agg.apply_reindex_delta(&old, &added));
        assert_eq!(agg.terms.get("new term"), Some(&(2, 1)));
        assert_eq!(agg.token_total, 2);
    }

    #[test]
    fn render_shows_bars() {
        let (ix, results) = build_corpus();
        let cloud = compute_cloud(&ix, &results, &[], &CloudConfig::default());
        let text = cloud.render();
        assert!(text.contains('█'));
    }
}
