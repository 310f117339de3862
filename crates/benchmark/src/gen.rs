//! Seeded input generators.
//!
//! Every input is a pure function of `(seed, sizes)`: SplitMix64 draws,
//! no RNG crate, nothing read from the clock. The program under test
//! receives only what is generated here — raw posts, scored reports, or
//! a trace — never the seed or the workload name.

use sstd_types::{
    ClaimId, GroundTruth, Independence, RawPost, Report, SourceId, Timeline, Timestamp, Trace,
    TruthLabel, Uncertainty,
};

/// Seconds per timeline interval in every workload.
pub const INTERVAL_SECS: u64 = 60;

/// SplitMix64: one `u64` of state, full period, good enough to plant
/// truth chains and shuffle vocabularies.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// The SplitMix64 finalizer as a stateless hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn timeline(intervals: usize) -> Timeline {
    Timeline::new(Timestamp::from_secs(INTERVAL_SECS * intervals as u64), intervals)
}

/// One planted truth chain per claim: a fair first label, then a flip
/// with probability `flip_p` at each interval.
fn truth_chains(
    rng: &mut SplitMix64,
    claims: usize,
    intervals: usize,
    flip_p: f64,
) -> Vec<Vec<TruthLabel>> {
    (0..claims)
        .map(|_| {
            let mut label = TruthLabel::from_bool(rng.chance(0.5));
            (0..intervals)
                .map(|k| {
                    if k > 0 && rng.chance(flip_p) {
                        label = label.flipped();
                    }
                    label
                })
                .collect()
        })
        .collect()
}

/// A source tells the truth with probability in `[0.6, 0.95]`.
fn reliabilities(rng: &mut SplitMix64, sources: usize) -> Vec<f64> {
    (0..sources).map(|_| 0.6 + 0.35 * rng.next_f64()).collect()
}

/// One report slot of the one-interval template: who reports on what,
/// when inside the interval, and with which scores. Only the attitude
/// changes from interval to interval.
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u64,
    claim: u32,
    source: u32,
    /// The source's reliability as a threshold on a 53-bit draw.
    honest_below: u64,
    uncertainty: Uncertainty,
    independence: Independence,
}

/// A stream of pre-scored reports over claims that are all live from
/// interval 0, held as a one-interval template so memory stays flat
/// however many intervals are played.
#[derive(Debug, Clone)]
pub struct ScoredStream {
    pub timeline: Timeline,
    /// `truth[claim][interval]`.
    pub truth: Vec<Vec<TruthLabel>>,
    pub sources: usize,
    slots: Vec<Slot>,
    honesty_seed: u64,
}

impl ScoredStream {
    pub fn generate(seed: u64, claims: usize, per_claim: usize, intervals: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let sources = 997;
        let reliability = reliabilities(&mut rng, sources);
        // A truth run lasts 25 intervals on average.
        let truth = truth_chains(&mut rng, claims, intervals, 0.04);
        let mut slots = Vec::with_capacity(claims * per_claim);
        for claim in 0..claims {
            for _ in 0..per_claim {
                let source = rng.below(sources);
                let hedged = [0.0, 0.0, 0.3, 0.6][rng.below(4)];
                let copied = [1.0, 1.0, 1.0, 0.3, 0.1][rng.below(5)];
                slots.push(Slot {
                    offset: rng.below(INTERVAL_SECS as usize) as u64,
                    claim: claim as u32,
                    source: source as u32,
                    honest_below: (reliability[source] * (1u64 << 53) as f64) as u64,
                    uncertainty: Uncertainty::saturating(hedged),
                    independence: Independence::saturating(copied),
                });
            }
        }
        // Global time order: within an interval by offset, ties by claim.
        slots.sort_by_key(|s| (s.offset, s.claim, s.source));
        Self { timeline: timeline(intervals), truth, sources, slots, honesty_seed: rng.next_u64() }
    }

    pub fn claims(&self) -> usize {
        self.truth.len()
    }

    pub fn intervals(&self) -> usize {
        self.timeline.num_intervals()
    }

    pub fn reports_per_interval(&self) -> usize {
        self.slots.len()
    }

    /// Replaces `out` with interval `k`'s reports, in time order.
    pub fn fill_interval(&self, k: usize, out: &mut Vec<Report>) {
        out.clear();
        let base = k as u64 * INTERVAL_SECS;
        let salt = self.honesty_seed ^ ((k as u64) << 32);
        out.extend(self.slots.iter().enumerate().map(|(i, s)| {
            let honest = mix(salt ^ i as u64) >> 11 < s.honest_below;
            let stance = self.truth[s.claim as usize][k].honest_attitude();
            Report::new(
                SourceId::new(s.source),
                ClaimId::new(s.claim),
                Timestamp::from_secs(base + s.offset),
                if honest { stance } else { stance.flipped() },
                s.uncertainty,
                s.independence,
            )
        }));
    }

    /// The whole stream as a batch [`Trace`] with its planted truth.
    pub fn to_trace(&self) -> Trace {
        let intervals = self.intervals();
        let mut reports = Vec::with_capacity(self.slots.len() * intervals);
        let mut buf = Vec::new();
        for k in 0..intervals {
            self.fill_interval(k, &mut buf);
            reports.extend_from_slice(&buf);
        }
        let mut truth = GroundTruth::new(intervals);
        for (claim, labels) in self.truth.iter().enumerate() {
            truth.insert(ClaimId::new(claim as u32), labels.clone());
        }
        Trace::new(
            "batch_claims",
            reports,
            self.sources,
            self.claims(),
            self.timeline.clone(),
            truth,
        )
    }
}

/// The one keyword every on-topic post carries; the pipeline's
/// [`KeywordFilter`](sstd_text::KeywordFilter) is built from it.
pub const EVENT_KEYWORD: &str = "quake";

const WORDS_PER_TOPIC: usize = 7;
const DENIALS: [&str; 4] = ["fake", "hoax", "debunked", "rumor"];
const HEDGES: [&str; 4] = ["possibly", "unconfirmed", "reportedly", "allegedly"];

/// The `i`-th pseudo-word: `z` plus three consonant–vowel syllables that
/// spell `i` in base 100, so words are distinct by construction and
/// collide with no stopword, denial cue or hedge cue (none starts with
/// `z`).
fn pseudo_word(i: usize) -> String {
    const CONSONANTS: &[u8] = b"bcdfghjklmnprstvwxyz";
    const VOWELS: &[u8] = b"aeiou";
    assert!(i < 1_000_000, "three base-100 syllables");
    let mut word = String::from("z");
    for digit in [i / 10_000, i / 100 % 100, i % 100] {
        word.push(CONSONANTS[digit / 5] as char);
        word.push(VOWELS[digit % 5] as char);
    }
    word
}

/// A stream of raw posts about planted topics with disjoint
/// vocabularies, so the clusterer's claims line up with the topics.
#[derive(Debug, Clone)]
pub struct PostStream {
    pub timeline: Timeline,
    /// In time order.
    pub posts: Vec<RawPost>,
    /// The planted topic of each post; `None` for off-topic posts.
    pub topic_of: Vec<Option<u32>>,
    /// `truth[topic][interval]`.
    pub truth: Vec<Vec<TruthLabel>>,
}

impl PostStream {
    pub fn generate(seed: u64, topics: usize, per_interval: usize, intervals: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let sources = (topics * 4).max(50);
        let reliability = reliabilities(&mut rng, sources);
        let truth = truth_chains(&mut rng, topics, intervals, 0.04);
        // Off-topic chatter draws from words past every topic's own.
        let chatter_base = topics * WORDS_PER_TOPIC;
        let mut last_on_topic: Vec<Option<usize>> = vec![None; topics];
        let mut posts = Vec::with_capacity(per_interval * intervals);
        let mut topic_of = Vec::with_capacity(posts.capacity());
        let mut offsets = Vec::with_capacity(per_interval);
        // `k` is the interval: it sets the time and picks `truth[topic][k]`.
        #[allow(clippy::needless_range_loop)]
        for k in 0..intervals {
            offsets.clear();
            offsets.extend((0..per_interval).map(|_| rng.below(INTERVAL_SECS as usize) as u64));
            offsets.sort_unstable();
            for &offset in &offsets {
                let time = Timestamp::from_secs(k as u64 * INTERVAL_SECS + offset);
                let source = rng.below(sources);
                if rng.chance(0.05) {
                    let text: Vec<String> =
                        (0..5).map(|_| pseudo_word(chatter_base + rng.below(500))).collect();
                    posts.push(RawPost::new(SourceId::new(source as u32), time, text.join(" ")));
                    topic_of.push(None);
                    continue;
                }
                let topic = rng.below(topics);
                let post = match last_on_topic[topic] {
                    Some(original) if rng.chance(0.25) => RawPost::retweet(
                        SourceId::new(source as u32),
                        time,
                        posts[original].text(),
                        original as u64,
                    ),
                    _ => {
                        let honest = rng.chance(reliability[source]);
                        let asserts = truth[topic][k].as_bool() == honest;
                        let skipped = rng.below(WORDS_PER_TOPIC);
                        let mut text = String::from(EVENT_KEYWORD);
                        for w in (0..WORDS_PER_TOPIC).filter(|&w| w != skipped) {
                            text.push(' ');
                            text.push_str(&pseudo_word(topic * WORDS_PER_TOPIC + w));
                        }
                        if !asserts {
                            text.push(' ');
                            text.push_str(DENIALS[rng.below(DENIALS.len())]);
                        }
                        if rng.chance(0.3) {
                            text.push(' ');
                            text.push_str(HEDGES[rng.below(HEDGES.len())]);
                        }
                        RawPost::new(SourceId::new(source as u32), time, text)
                    }
                };
                last_on_topic[topic] = Some(posts.len());
                posts.push(post);
                topic_of.push(Some(topic as u32));
            }
        }
        Self { timeline: timeline(intervals), posts, topic_of, truth }
    }

    pub fn topics(&self) -> usize {
        self.truth.len()
    }

    /// The index range of interval `k`'s posts.
    pub fn interval_range(&self, k: usize) -> std::ops::Range<usize> {
        let start = Timestamp::from_secs(k as u64 * INTERVAL_SECS);
        let end = Timestamp::from_secs((k as u64 + 1) * INTERVAL_SECS);
        self.posts.partition_point(|p| p.time() < start)
            ..self.posts.partition_point(|p| p.time() < end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstd_text::{PipelineConfig, ReportPipeline};

    fn all_reports(s: &ScoredStream) -> Vec<Report> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for k in 0..s.intervals() {
            s.fill_interval(k, &mut buf);
            out.extend_from_slice(&buf);
        }
        out
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = ScoredStream::generate(7, 20, 3, 12);
        let b = ScoredStream::generate(7, 20, 3, 12);
        assert_eq!(all_reports(&a), all_reports(&b));
        assert_eq!(a.truth, b.truth);
        assert_ne!(all_reports(&a), all_reports(&ScoredStream::generate(8, 20, 3, 12)));

        let p = PostStream::generate(7, 10, 20, 6);
        let q = PostStream::generate(7, 10, 20, 6);
        assert_eq!(p.posts, q.posts);
        assert_eq!(p.topic_of, q.topic_of);
        assert_ne!(p.posts, PostStream::generate(8, 10, 20, 6).posts);
    }

    #[test]
    fn streams_are_globally_time_ordered() {
        let s = ScoredStream::generate(3, 50, 4, 10);
        let reports = all_reports(&s);
        assert_eq!(reports.len(), 50 * 4 * 10);
        assert!(reports.windows(2).all(|w| w[0].time() <= w[1].time()));
        for (k, r) in reports.chunks(s.reports_per_interval()).enumerate() {
            assert!(r.iter().all(|r| s.timeline.interval_of(r.time()) == k));
        }
        // The trace sorts by time; a stable sort of an ordered stream is the stream.
        assert_eq!(s.to_trace().reports(), reports.as_slice());

        let p = PostStream::generate(3, 10, 30, 8);
        assert!(p.posts.windows(2).all(|w| w[0].time() <= w[1].time()));
        let covered: usize = (0..8).map(|k| p.interval_range(k).len()).sum();
        assert_eq!(covered, p.posts.len());
    }

    #[test]
    fn most_reports_tell_the_planted_truth() {
        let s = ScoredStream::generate(11, 40, 5, 30);
        let reports = all_reports(&s);
        let honest = reports
            .iter()
            .filter(|r| {
                let k = s.timeline.interval_of(r.time());
                (r.attitude() == sstd_types::Attitude::Agree)
                    == s.truth[r.claim().index()][k].as_bool()
            })
            .count();
        let share = honest as f64 / reports.len() as f64;
        assert!((0.7..0.85).contains(&share), "honest share {share}");
        assert!(s.truth.iter().any(|chain| chain.windows(2).any(|w| w[0] != w[1])), "truth flips");
    }

    #[test]
    fn clusters_line_up_with_topics() {
        let topics = 40;
        let p = PostStream::generate(5, topics, 60, 20);
        let mut pipeline = ReportPipeline::new(PipelineConfig::for_event([EVENT_KEYWORD]));
        let mut kept = 0;
        for (post, topic) in p.posts.iter().zip(&p.topic_of) {
            let report = pipeline.process(post);
            assert_eq!(report.is_some(), topic.is_some(), "exactly the off-topic posts drop");
            kept += usize::from(report.is_some());
        }
        assert!(kept > p.posts.len() * 9 / 10);
        let claims = pipeline.num_claims();
        assert!((topics..=topics * 3 / 2).contains(&claims), "{claims} claims for {topics} topics");
    }

    #[test]
    fn pseudo_words_are_distinct() {
        let words: std::collections::BTreeSet<String> = (0..5_000).map(pseudo_word).collect();
        assert_eq!(words.len(), 5_000);
        assert!(words.iter().all(|w| w.len() == 7 && w.starts_with('z')));
    }
}
