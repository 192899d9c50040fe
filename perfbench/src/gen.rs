//! Seeded input generation. Every workload's inputs are built here, before
//! any engine opens, together with the expected content hash of every
//! record version, so the timed phases receive only ready inputs and the
//! checks compare against values fixed at generation time.

use dbdedup_util::dist::SplitMix64;
use dbdedup_util::hash::murmur3_x64_128;
use dbdedup_util::ids::RecordId;
use dbdedup_workloads::text::TextGen;
use dbdedup_workloads::{MessageBoards, Op};
use std::collections::BTreeMap;

/// Expected-content hash of a record version, used only to check outputs.
pub type Digest = (u64, u64);

pub fn digest(data: &[u8]) -> Digest {
    murmur3_x64_128(data, 0)
}

/// One record version to insert, with its expected hash.
pub struct Record {
    pub id: RecordId,
    pub data: Vec<u8>,
    pub hash: Digest,
}

/// A Wikipedia-style revision corpus: records in insert order, plus each
/// article's revision ids (each wiki's articles in popularity-rank order).
pub struct WikiCorpus {
    pub records: Vec<Record>,
    pub history: Vec<Vec<RecordId>>,
}

impl WikiCorpus {
    /// Total user bytes in the corpus.
    pub fn bytes(&self) -> u64 {
        self.records.iter().map(|r| r.data.len() as u64).sum()
    }

    /// Expected hash of record `id` (ids are dense insert positions).
    pub fn hash_of(&self, id: RecordId) -> Digest {
        self.records[id.get() as usize].hash
    }
}

/// Independent wikis in every corpus, and articles in each. A fixed count
/// gives every corpus, whatever its length, the same size strata and the
/// same Zipf shares; a longer corpus has more revisions per article. The
/// wikis share a size profile, so each size is held by one article in each
/// wiki. The read-latency tail is then the decode chains of eight large
/// articles, not of one: the chain depths of a single article differ
/// greatly from seed to seed (2x in p99 read latency with one wiki of 300
/// articles), those of eight average out.
const WIKIS: usize = 8;
const ARTICLES_PER_WIKI: usize = 40;
/// Shortest corpus, in revisions per article: enough that even the least
/// popular article has a revision for reads to pick.
const MIN_REVISIONS_PER_ARTICLE: usize = 5;
const STALE_BASE_PROB: f64 = 0.03;
const SIZE_MEDIAN: f64 = 4_000.0;
const SIZE_SIGMA: f64 = 1.8;
/// Size bounds. The cap is 128 KiB, not the repository generator's 2 MiB,
/// so that the largest stratum's records stay of the order of the next
/// ones' instead of dominating the insert and read latency tails alone.
const SIZE_MIN: f64 = 256.0;
const SIZE_MAX: f64 = (128 << 10) as f64;
/// Seed of the fixed shuffle that assigns size strata to popularity ranks
/// ([`article_sizes`]). A constant, not the run's seed: every seed sees the
/// same size of every rank.
const SIZE_ORDER_SEED: u64 = 0x512e_0bde_5eed_0001;
/// Edits keep an article within this factor of its size: past it, the
/// revision's edits end with deletions. Without it, text grows with every
/// revision on average, so popular articles grow without bound and the
/// trace's volume depends on the seed's vocabulary.
const SIZE_SLACK: f64 = 1.1;

/// The Wikipedia insert-only trace of [`WIKIS`] wikis, revisions split
/// evenly among them and interleaved: Zipf-popular articles (s = 1.0), each
/// revision a full record of metadata plus the article text with 1–4 small
/// dispersed edits against the latest version (3% against the previous one,
/// the overlapped-encoding case). The first revision of an article creates
/// it. Each article's revision count is its exact Zipf share within its
/// wiki ([`revision_counts`]); the seed shuffles the order of revisions.
///
/// Article sizes follow the heavy-tailed log-normal of the repository's
/// generator (median 4 KB, sigma 1.8; clamped to 256 B – 128 KiB, see
/// [`SIZE_MAX`]), but drawn stratified — one size per quantile stratum,
/// assigned to popularity ranks by a fixed shuffle ([`article_sizes`]) —
/// instead of independently per seed, and edits keep each article near its
/// size ([`SIZE_SLACK`]). An independent draw lets one seed hand its most
/// popular article 2 MB and another 5 KB, which moved mean record size by 2x
/// across seeds; here the seed changes the text, the edits and the order of
/// revisions, but not the size profile.
pub fn wiki_corpus(revisions: usize, seed: u64) -> WikiCorpus {
    let mut rng = SplitMix64::new(seed ^ 0x6b1d_7e57_a11c_e5ed);
    let text = TextGen::new(&mut rng, 1200);
    let n = WIKIS * ARTICLES_PER_WIKI;
    assert!(revisions >= n * MIN_REVISIONS_PER_ARTICLE, "corpus too short");
    let counts: Vec<usize> = (0..WIKIS)
        .flat_map(|w| {
            let share = revisions / WIKIS + usize::from(w < revisions % WIKIS);
            revision_counts(ARTICLES_PER_WIKI, share)
        })
        .collect();
    let sizes = article_sizes(ARTICLES_PER_WIKI).repeat(WIKIS);
    let mut order = counts
        .into_iter()
        .enumerate()
        .flat_map(|(r, c)| std::iter::repeat_n(r, c))
        .collect::<Vec<_>>();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_index(i + 1));
    }

    struct Article {
        latest: String,
        prev: Option<String>,
    }
    let mut articles: Vec<Option<Article>> = (0..n).map(|_| None).collect();
    let mut history: Vec<Vec<RecordId>> = vec![Vec::new(); n];
    let mut records = Vec::with_capacity(revisions);
    for (i, &r) in order.iter().enumerate() {
        let id = RecordId(i as u64);
        let body = match &mut articles[r] {
            None => {
                let body = text.text(&mut rng, sizes[r]);
                articles[r] = Some(Article { latest: body.clone(), prev: None });
                body
            }
            Some(art) => {
                let mut body = match (&art.prev, rng.next_bool(STALE_BASE_PROB)) {
                    (Some(prev), true) => prev.clone(),
                    _ => art.latest.clone(),
                };
                let edits = 1 + rng.next_index(4);
                text.edit(&mut rng, &mut body, edits);
                while body.len() as f64 > sizes[r] as f64 * SIZE_SLACK {
                    delete_span(&mut rng, &mut body);
                }
                art.prev = Some(std::mem::replace(&mut art.latest, body.clone()));
                body
            }
        };
        let rev = history[r].len();
        let data = format!(
            "title: Article_{r}\nrevision: {rev}\nauthor: user{:05}\ncomment: edit pass {rev}\n\n{body}",
            rng.next_index(100_000)
        )
        .into_bytes();
        history[r].push(id);
        records.push(Record { id, hash: digest(&data), data });
    }
    WikiCorpus { records, history }
}

/// Deletes 10–59 bytes at a random position, as `TextGen::edit` deletes.
fn delete_span(rng: &mut SplitMix64, text: &mut String) {
    let floor = |s: &str, mut at: usize| {
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        at
    };
    let at = floor(text, rng.next_index(text.len()));
    let end = floor(text, (at + 10 + rng.next_index(50)).min(text.len()));
    text.replace_range(at..end, "");
}

/// Revisions per article in popularity-rank order: Zipf (s = 1) shares of
/// `revisions`.
fn revision_counts(n: usize, revisions: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
    apportion(&weights, revisions)
}

/// Splits `total` in proportion to `weights`, rounded by largest remainder
/// so the parts sum exactly.
fn apportion(weights: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut parts: Vec<usize> = exact.iter().map(|&x| x as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| (exact[b].fract()).total_cmp(&exact[a].fract()).then(a.cmp(&b)));
    let short = total - parts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        parts[i] += 1;
    }
    parts
}

/// Read targets for the history workload, in `rounds` rounds: each read
/// picks an article, then a revision uniform over that article's history.
/// Every round reads each article exactly its share of the corpus's
/// revisions, its Zipf share, in seeded order, so the rare reads of the
/// largest articles that make up the latency tail are the same number every
/// run.
pub fn history_reads(
    corpus: &WikiCorpus,
    reads: usize,
    rounds: usize,
    seed: u64,
) -> Vec<Vec<RecordId>> {
    let mut rng = SplitMix64::new(seed ^ 0x4ead_0f01_d0c5_0001);
    let shares: Vec<f64> = corpus.history.iter().map(|h| h.len() as f64).collect();
    let mut out = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let in_round = reads / rounds + usize::from(round < reads % rounds);
        let mut articles: Vec<usize> = apportion(&shares, in_round)
            .into_iter()
            .enumerate()
            .flat_map(|(r, c)| std::iter::repeat_n(r, c))
            .collect();
        for i in (1..articles.len()).rev() {
            articles.swap(i, rng.next_index(i + 1));
        }
        out.push(
            articles
                .into_iter()
                .map(|r| {
                    let hist = &corpus.history[r];
                    hist[rng.next_index(hist.len())]
                })
                .collect(),
        );
    }
    out
}

/// Article sizes in popularity-rank order (see [`wiki_corpus`]), one
/// log-normal stratum per article. A shuffle with the constant
/// [`SIZE_ORDER_SEED`] assigns strata to ranks, so size is independent of
/// popularity, as in the repository's generator, yet the same on every run.
fn article_sizes(n: usize) -> Vec<usize> {
    let mut strata: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::new(SIZE_ORDER_SEED);
    for i in (1..n).rev() {
        strata.swap(i, rng.next_index(i + 1));
    }
    strata
        .into_iter()
        .map(|i| {
            let z = normal_quantile((i as f64 + 0.5) / n as f64);
            (SIZE_MEDIAN * (SIZE_SIGMA * z).exp()).clamp(SIZE_MIN, SIZE_MAX) as usize
        })
        .collect()
}

/// Inverse standard normal CDF (Acklam's rational approximation, relative
/// error below 1.2e-9 — far finer than byte-granular sizes need).
fn normal_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    const LOW: f64 = 0.024_25;
    if p < LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - LOW {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// One message-boards client operation with its expected outcome.
pub enum BoardOp {
    Insert {
        id: RecordId,
        data: Vec<u8>,
    },
    /// `expect` is the content hash, or `None` when the post was deleted
    /// and the read must fail with `NotFound`.
    Read {
        id: RecordId,
        expect: Option<Digest>,
    },
    Update {
        id: RecordId,
        data: Vec<u8>,
    },
    Delete {
        id: RecordId,
    },
}

/// The message-boards trace.
pub struct Boards {
    pub ops: Vec<BoardOp>,
    /// Expected hash of every post still live at the end.
    pub live: BTreeMap<RecordId, Digest>,
}

const UPDATE_PER_POST: f64 = 0.10;
const DELETE_PER_POST: f64 = 0.05;

/// The repository's message-boards trace (posts quoting earlier posts of
/// their thread, one whole-thread read per post), plus seeded updates
/// (about 10 per 100 posts) and deletes (about 5 per 100) of earlier live
/// posts. An update rewrites the post with a small edit, as forum edits do.
/// Reads of deleted posts stay in the trace and must fail with `NotFound`.
pub fn boards(posts: usize, seed: u64) -> Boards {
    let mut rng = SplitMix64::new(seed ^ 0xb0a2_d5c4_0000_0001);
    let text = TextGen::new(&mut rng, 800);
    // Current content of every live post (by id), and the ids in a vector
    // for uniform choice; deleted ids are swap-removed.
    let mut content: BTreeMap<RecordId, Vec<u8>> = BTreeMap::new();
    let mut live_ids: Vec<RecordId> = Vec::new();
    let mut ops = Vec::new();
    for op in MessageBoards::mixed(posts, 1.0, seed) {
        match op {
            Op::Insert { id, data } => {
                content.insert(id, data.clone());
                live_ids.push(id);
                ops.push(BoardOp::Insert { id, data });
                if live_ids.len() > 1 && rng.next_bool(UPDATE_PER_POST) {
                    let id = live_ids[rng.next_index(live_ids.len() - 1)];
                    let old = content.get_mut(&id).expect("live post has content");
                    let mut body = String::from_utf8(std::mem::take(old)).expect("utf-8 post");
                    let edits = 1 + rng.next_index(2);
                    text.edit(&mut rng, &mut body, edits);
                    body.push_str("\n[edited]\n");
                    *old = body.into_bytes();
                    ops.push(BoardOp::Update { id, data: old.clone() });
                }
                if live_ids.len() > 1 && rng.next_bool(DELETE_PER_POST) {
                    let at = rng.next_index(live_ids.len() - 1);
                    let id = live_ids.swap_remove(at);
                    content.remove(&id);
                    ops.push(BoardOp::Delete { id });
                }
            }
            Op::Read { id } => {
                let expect = content.get(&id).map(|d| digest(d));
                ops.push(BoardOp::Read { id, expect });
            }
        }
    }
    let live = content.iter().map(|(&id, d)| (id, digest(d))).collect();
    Boards { ops, live }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = wiki_corpus(3_000, 7);
        let b = wiki_corpus(3_000, 7);
        assert!(a.records.iter().zip(&b.records).all(|(x, y)| x.data == y.data));
        assert_ne!(a.records[5].data, wiki_corpus(3_000, 8).records[5].data);
        assert!(a.history.iter().all(|h| !h.is_empty()));
    }

    #[test]
    fn sizes_are_stratified_and_seed_free() {
        let counts = revision_counts(200, 8_000);
        assert_eq!(counts.iter().sum::<usize>(), 8_000);
        let s = article_sizes(200);
        assert_eq!(s, article_sizes(200));
        assert!(s.iter().all(|&x| (256..=128 << 10).contains(&x)));
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert!((3_500..4_500).contains(&sorted[100]), "median stratum {}", sorted[100]);
        assert_ne!(s, sorted, "strata are shuffled across ranks");
    }

    #[test]
    fn normal_quantile_matches_known_points() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
        assert!((normal_quantile(0.01) + 2.326_348).abs() < 1e-5);
    }

    #[test]
    fn board_reads_of_deleted_posts_expect_not_found() {
        let b = boards(400, 3);
        let mut deleted = std::collections::HashSet::new();
        for op in &b.ops {
            match op {
                BoardOp::Delete { id } => {
                    deleted.insert(*id);
                }
                BoardOp::Read { id, expect } => assert_eq!(expect.is_none(), deleted.contains(id)),
                _ => {}
            }
        }
        assert!(!deleted.is_empty());
    }
}
