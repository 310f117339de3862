//! Property tests for the text substrate: tokenizer, Jaccard metric,
//! and the online clusterer on empty, single-token, and unicode/emoji
//! content — and the differential suites that hold the lexicon stages to
//! their set-and-lowercase definitions, and the indexed clusterer and
//! duplicate window to the linear scans they replaced.

use sstd_testkit::domain::PostStreamCase;
use sstd_testkit::oracle::text as linear;
use sstd_testkit::{check, check_with, domain, gens, CheckConfig, Gen};
use sstd_text::{
    jaccard_distance, jaccard_similarity, tokenize, AttitudeScorer, ClaimClusterer, ClusterConfig,
    HedgeUncertaintyScorer, IndependenceScorer, KeywordFilter, LexiconAttitudeScorer,
    RetweetIndependenceScorer, TokenSet, UncertaintyScorer,
};
use sstd_types::{Attitude, ClaimId};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Tokenizer edge cases
// ---------------------------------------------------------------------

#[test]
fn empty_and_whitespace_posts_tokenize_to_nothing() {
    for text in ["", "   ", "\t\n", "\u{200B}"] {
        assert!(tokenize(text).is_empty(), "{text:?} should produce no tokens");
        assert!(TokenSet::from_text(text).is_empty());
    }
}

#[test]
fn punctuation_and_emoji_only_posts_are_empty() {
    for text in ["!!!", "... --- ...", "🔥🔥🔥", "😱 🚒", "«»—„“"] {
        assert!(tokenize(text).is_empty(), "{text:?} has no alphanumeric content");
    }
}

#[test]
fn single_token_posts_survive_normalization() {
    assert_eq!(tokenize("FLOOD"), vec!["flood"]);
    assert_eq!(tokenize("flood!"), vec!["flood"]);
    assert_eq!(tokenize("  flood  "), vec!["flood"]);
    let set = TokenSet::from_text("flood");
    assert_eq!(set.len(), 1);
    assert!(set.contains("flood"));
}

#[test]
fn unicode_words_are_kept_and_emoji_split_tokens() {
    // Accented latin, CJK, Hangul, and Cyrillic are alphanumeric and must
    // survive; emoji are not and must act as separators.
    let tokens = tokenize("Café 日本語 서울 москва");
    assert_eq!(tokens, vec!["café", "日本語", "서울", "москва"]);
    assert_eq!(tokenize("bridge🔥closed"), vec!["bridge", "closed"]);
}

#[test]
fn tokenization_is_idempotent_on_generated_posts() {
    check("tokenization_is_idempotent_on_generated_posts", 1_000, &domain::post_text(), |text| {
        let once = tokenize(text);
        let again = tokenize(&once.join(" "));
        if once == again {
            Ok(())
        } else {
            Err(format!("tokenize is not idempotent: {once:?} -> {again:?}"))
        }
    });
}

#[test]
fn token_sets_ignore_order_and_duplication() {
    check(
        "token_sets_ignore_order_and_duplication",
        1_000,
        &domain::post_tokens(),
        |words: &Vec<String>| {
            let forward = TokenSet::from_text(&words.join(" "));
            let mut reversed_words = words.clone();
            reversed_words.reverse();
            let mut doubled = reversed_words.join(" ");
            doubled.push(' ');
            doubled.push_str(&words.join(" "));
            let reversed = TokenSet::from_text(&doubled);
            if forward.len() == reversed.len()
                && forward.intersection_size(&reversed) == forward.len()
            {
                Ok(())
            } else {
                Err(format!("order/duplication changed the set: {forward:?} vs {reversed:?}"))
            }
        },
    );
}

// ---------------------------------------------------------------------
// Jaccard metric invariants
// ---------------------------------------------------------------------

fn three_posts() -> Gen<Vec<Vec<String>>> {
    gens::vec_of(domain::post_tokens(), 3, 3)
}

#[test]
fn jaccard_similarity_is_bounded_symmetric_and_reflexive() {
    check(
        "jaccard_similarity_is_bounded_symmetric_and_reflexive",
        1_000,
        &three_posts(),
        |posts| {
            let a = TokenSet::from_text(&posts[0].join(" "));
            let b = TokenSet::from_text(&posts[1].join(" "));
            let sim = jaccard_similarity(&a, &b);
            if !(0.0..=1.0).contains(&sim) {
                return Err(format!("similarity {sim} outside [0, 1]"));
            }
            if (sim - jaccard_similarity(&b, &a)).abs() > 1e-12 {
                return Err("similarity is not symmetric".into());
            }
            if (jaccard_similarity(&a, &a) - 1.0).abs() > 1e-12 {
                return Err("self-similarity must be 1 (including the empty set)".into());
            }
            if jaccard_distance(&a, &a.clone()) != 0.0 {
                return Err("self-distance must be exactly 0".into());
            }
            if (jaccard_distance(&a, &b) - (1.0 - sim)).abs() > 1e-12 {
                return Err("distance must be 1 - similarity".into());
            }
            Ok(())
        },
    );
}

#[test]
fn jaccard_distance_satisfies_the_triangle_inequality() {
    // Jaccard distance is a true metric (Levandowsky & Winter 1971); the
    // clusterer's diameter logic silently relies on it.
    check("jaccard_distance_satisfies_the_triangle_inequality", 1_000, &three_posts(), |posts| {
        let a = TokenSet::from_text(&posts[0].join(" "));
        let b = TokenSet::from_text(&posts[1].join(" "));
        let c = TokenSet::from_text(&posts[2].join(" "));
        let ab = jaccard_distance(&a, &b);
        let bc = jaccard_distance(&b, &c);
        let ac = jaccard_distance(&a, &c);
        if ac > ab + bc + 1e-12 {
            Err(format!("triangle violated: d(a,c)={ac} > d(a,b)={ab} + d(b,c)={bc}"))
        } else {
            Ok(())
        }
    });
}

#[test]
fn empty_sets_are_identical_not_infinitely_far() {
    let empty = TokenSet::from_text("");
    assert_eq!(jaccard_similarity(&empty, &empty), 1.0);
    assert_eq!(jaccard_distance(&empty, &empty), 0.0);
    let some = TokenSet::from_text("flood bridge");
    assert_eq!(jaccard_similarity(&empty, &some), 0.0);
}

// ---------------------------------------------------------------------
// Clusterer properties
// ---------------------------------------------------------------------

#[test]
fn clusterer_is_deterministic_and_ids_are_dense() {
    let posts_gen = gens::vec_of(domain::post_text(), 0, 30);
    check("clusterer_is_deterministic_and_ids_are_dense", 300, &posts_gen, |posts| {
        let mut a = ClaimClusterer::new(ClusterConfig::default());
        let mut b = ClaimClusterer::new(ClusterConfig::default());
        let ids_a: Vec<_> = posts.iter().map(|p| a.assign(p)).collect();
        let ids_b: Vec<_> = posts.iter().map(|p| b.assign(p)).collect();
        if ids_a != ids_b {
            return Err("same post stream produced different assignments".into());
        }
        for id in &ids_a {
            if id.index() >= a.num_claims() {
                return Err(format!("claim id {id:?} outside 0..{}", a.num_claims()));
            }
        }
        // Every claim that exists holds at least one post, and sizes add
        // up to the number of posts.
        let total: usize =
            (0..a.num_claims()).map(|i| a.claim_size(sstd_types::ClaimId::new(i as u32))).sum();
        if total != posts.len() {
            return Err(format!("cluster sizes sum to {total}, expected {}", posts.len()));
        }
        Ok(())
    });
}

#[test]
fn identical_posts_share_a_claim() {
    let mut c = ClaimClusterer::new(ClusterConfig::default());
    let first = c.assign("explosion downtown bridge closed");
    let second = c.assign("explosion downtown bridge closed");
    assert_eq!(first, second, "identical posts are the same claim");
}

#[test]
fn empty_posts_cluster_together() {
    let mut c = ClaimClusterer::new(ClusterConfig::default());
    let a = c.assign("");
    let b = c.assign("🔥🔥🔥");
    let d = c.assign("   ");
    assert_eq!(a, b, "token-free posts are indistinguishable");
    assert_eq!(a, d);
}

// ---------------------------------------------------------------------
// Lexicon stages ≡ their definition
// ---------------------------------------------------------------------

/// Keyword lists for the filter: ASCII in any case, and keywords that only
/// whole-string Unicode lowercasing matches.
const KEYWORD_LISTS: [&[&str]; 5] = [
    &["quake"],
    &["FAKE", "Maybe", "bridge"],
    &["ΣΑΣ", "STRAßE"],
    &["İf", "likely"],
    &["not", "sure", "k"],
];

#[test]
fn lexicon_stages_match_their_definition() {
    let filters: Vec<KeywordFilter> =
        KEYWORD_LISTS.iter().map(|k| KeywordFilter::new(*k)).collect();
    let (attitude, hedge) = (LexiconAttitudeScorer::new(), HedgeUncertaintyScorer::new());
    check("lexicon_stages_match_their_definition", 1_000, &domain::lexicon_text(), |text| {
        let (tokens, want) = (tokenize(text), linear::tokenize(text));
        if tokens != want {
            return Err(format!("tokens {tokens:?}, the definition says {want:?}"));
        }
        for (keywords, filter) in KEYWORD_LISTS.iter().zip(&filters) {
            let (got, want) = (filter.matches(text), linear::keyword_matches(keywords, text));
            if got != want {
                return Err(format!("{keywords:?} matched {got}, the definition says {want}"));
            }
        }
        let (got, want) = (attitude.attitude(text), linear::attitude(text));
        if got != want {
            return Err(format!("attitude {got:?}, the definition says {want:?}"));
        }
        let (got, want) = (hedge.uncertainty(text).value(), linear::uncertainty(text).value());
        if got.to_bits() != want.to_bits() {
            return Err(format!("uncertainty {got}, the definition says {want}"));
        }
        Ok(())
    });
}

/// Each path of the walker and of the phrase search, and each answer of
/// each stage, comes up at least 20 times in the property's 1 000 cases.
#[test]
fn the_lexicon_generator_reaches_every_corner() {
    const CORNERS: [&str; 12] = [
        "lowercase_ascii",
        "mixed_case_ascii",
        "non_ascii",
        "keyword_match",
        "silent",
        "denial_cue",
        "denial_phrase_in_folded_ascii",
        "hedge_phrase_in_non_ascii",
        "saturated_hedge",
        "apostrophe_inside_a_word",
        "kelvin_sign_token",
        "final_sigma_token",
    ];
    let mut seen: BTreeMap<&str, usize> = CORNERS.iter().map(|&corner| (corner, 0)).collect();
    let mut hit = |corner: &str, yes: bool| {
        *seen.get_mut(corner).expect("a corner of the list") += usize::from(yes);
    };
    check_with(CheckConfig::new(1_000), &domain::lexicon_text(), |text| {
        let ascii = text.is_ascii();
        let upper = text.bytes().any(|b| b.is_ascii_uppercase());
        let tokens = linear::tokenize(text);
        let lower = text.to_lowercase();
        hit("lowercase_ascii", ascii && !upper && !tokens.is_empty());
        hit("mixed_case_ascii", ascii && upper);
        hit("non_ascii", !ascii);
        hit("keyword_match", KEYWORD_LISTS.iter().any(|k| linear::keyword_matches(k, text)));
        hit("silent", linear::attitude(text) == Attitude::Silent && !text.is_empty());
        hit("denial_cue", tokens.iter().any(|t| linear::DENIAL_CUES.contains(&t.as_str())));
        hit(
            "denial_phrase_in_folded_ascii",
            ascii
                && upper
                && linear::DENIAL_PHRASES.iter().any(|p| !text.contains(p) && lower.contains(p)),
        );
        hit(
            "hedge_phrase_in_non_ascii",
            !ascii && linear::HEDGE_PHRASES.iter().any(|p| lower.contains(p)),
        );
        hit("saturated_hedge", linear::uncertainty(text).value() == 0.9);
        hit(
            "apostrophe_inside_a_word",
            text.split(|c: char| !c.is_alphanumeric() && c != '\'')
                .any(|run| run.trim_matches('\'').contains('\'')),
        );
        hit(
            "kelvin_sign_token",
            text.contains('\u{212A}') && tokens.iter().any(|t| t.contains('k')),
        );
        hit("final_sigma_token", tokens.iter().any(|t| t.ends_with('ς')));
        Ok(())
    })
    .expect("nothing is asserted per case");

    for (corner, times) in seen {
        eprintln!("{corner}: {times}");
        assert!(times >= 20, "the generator reached `{corner}` {times} times in 1 000 cases");
    }
}

// ---------------------------------------------------------------------
// Indexed stages ≡ linear-scan oracle
// ---------------------------------------------------------------------

fn linear_stages(case: &PostStreamCase) -> (linear::ClaimClusterer, linear::DuplicateWindow) {
    (
        linear::ClaimClusterer::new(case.assign_threshold, case.split_diameter, case.sample_size),
        linear::DuplicateWindow::new(case.window_secs, case.duplicate_similarity),
    )
}

#[test]
fn indexed_stages_match_the_linear_scan_after_every_post() {
    check(
        "indexed_stages_match_the_linear_scan_after_every_post",
        1_000,
        &domain::post_stream_case(),
        |case| {
            let mut clusterer = ClaimClusterer::new(ClusterConfig {
                assign_threshold: case.assign_threshold,
                split_diameter: case.split_diameter,
                sample_size: case.sample_size,
            });
            let mut scorer =
                RetweetIndependenceScorer::new(case.window_secs, case.duplicate_similarity);
            let (mut linear_clusterer, mut linear_window) = linear_stages(case);
            for (k, post) in case.posts.iter().enumerate() {
                let tokens: linear::Tokens = tokenize(post.text()).into_iter().collect();

                let claim = clusterer.assign(post.text()).index();
                let want = linear_clusterer.assign(tokens.clone());
                if claim != want {
                    return Err(format!("post {k} went to claim {claim}, the scan says {want}"));
                }
                if clusterer.num_claims() != linear_clusterer.num_claims() {
                    return Err(format!(
                        "{} claims after post {k}, the scan has {}",
                        clusterer.num_claims(),
                        linear_clusterer.num_claims()
                    ));
                }
                for c in 0..clusterer.num_claims() {
                    let (size, want) = (
                        clusterer.claim_size(ClaimId::new(c as u32)),
                        linear_clusterer.claim_size(c),
                    );
                    if size != want {
                        return Err(format!(
                            "claim {c} holds {size} posts after post {k}, the scan says {want}"
                        ));
                    }
                }

                let eta = scorer.independence(post);
                let want =
                    linear_window.independence(post.time(), tokens, post.retweet_of().is_some());
                if eta.value().to_bits() != want.value().to_bits() {
                    return Err(format!(
                        "post {k} scored independence {}, the scan says {}",
                        eta.value(),
                        want.value()
                    ));
                }
                if scorer.window_len() != linear_window.window_len() {
                    return Err(format!(
                        "window holds {} posts after post {k}, the scan holds {}",
                        scorer.window_len(),
                        linear_window.window_len()
                    ));
                }
            }
            Ok(())
        },
    );
}

/// The differential property is only as good as its generator: these are
/// the places where postings, an overlap bound or an incremental diameter
/// can part from the scan, and each must come up in the 1 000 cases the
/// property runs by default (same root seed, so the same cases).
#[test]
fn the_post_stream_generator_reaches_every_corner() {
    const CORNERS: [&str; 14] = [
        "keyword_on_every_post",
        "distance_on_the_assign_threshold",
        "seven_tenths_at_0_7",
        "similarity_on_the_duplicate_threshold",
        "four_fifths_at_0_8",
        "nearest_is_a_tie",
        "joins_cluster_0_sharing_nothing",
        "token_free_beside_token_free",
        "splits",
        "splits_with_a_twin_of_the_seed",
        "sample_wraps",
        "retweets",
        "timestamps_stepping_back",
        "folded_tokens",
    ];
    let mut seen: BTreeMap<&str, usize> = CORNERS.iter().map(|&corner| (corner, 0)).collect();
    let mut hit = |corner: &str, times: usize| {
        *seen.get_mut(corner).expect("a corner of the list") += times;
    };
    check_with(CheckConfig::new(1_000), &domain::post_stream_case(), |case| {
        let (mut clusterer, mut window) = linear_stages(case);
        let mut with_keyword = 0;
        for (k, post) in case.posts.iter().enumerate() {
            let tokens: linear::Tokens = tokenize(post.text()).into_iter().collect();
            with_keyword += usize::from(tokens.is_empty() || tokens.contains("quake"));
            let folded = ["σας", "i̇stanbul", "straße"];
            hit("folded_tokens", tokens.iter().filter(|t| folded.contains(&t.as_str())).count());
            hit("retweets", usize::from(post.retweet_of().is_some()));
            hit(
                "timestamps_stepping_back",
                usize::from(k > 0 && post.time() < case.posts[k - 1].time()),
            );

            let distances: Vec<f64> =
                clusterer.representatives().map(|r| linear::jaccard_distance(&tokens, r)).collect();
            let nearest = distances.iter().copied().fold(f64::INFINITY, f64::min);
            if nearest == case.assign_threshold && nearest < 1.0 {
                hit("distance_on_the_assign_threshold", 1);
                hit("seven_tenths_at_0_7", usize::from(nearest == 0.7));
            }
            if nearest < 1.0
                && nearest <= case.assign_threshold
                && distances.iter().filter(|&&d| d == nearest).count() > 1
            {
                hit("nearest_is_a_tie", 1);
            }
            if nearest == 1.0 && case.assign_threshold == 1.0 {
                hit("joins_cluster_0_sharing_nothing", 1);
            }
            if tokens.is_empty() && clusterer.representatives().any(|r| r.is_empty()) {
                hit("token_free_beside_token_free", 1);
            }
            let claims = clusterer.num_claims();
            let claim = clusterer.assign(tokens.clone());
            if clusterer.num_claims() > claims && claim < claims {
                hit("splits", 1);
                // The seed itself moves without being admitted again; any
                // further gap between head-count and sample is a twin.
                if clusterer.claim_size(claims) > clusterer.sample_len(claims) {
                    hit("splits_with_a_twin_of_the_seed", 1);
                }
            } else if clusterer.claim_size(claim) > case.sample_size
                && clusterer.sample_len(claim) == case.sample_size
            {
                hit("sample_wraps", 1);
            }

            let retweet = post.retweet_of().is_some();
            let _ = window.independence(post.time(), tokens.clone(), retweet);
            let compared_with = window.window_len() - 1;
            if !retweet
                && case.duplicate_similarity < 1.0
                && window.window().take(compared_with).any(|prev| {
                    linear::jaccard_similarity(prev, &tokens) == case.duplicate_similarity
                })
            {
                hit("similarity_on_the_duplicate_threshold", 1);
                hit("four_fifths_at_0_8", usize::from(case.duplicate_similarity == 0.8));
            }
        }
        hit(
            "keyword_on_every_post",
            usize::from(case.posts.len() >= 10 && with_keyword == case.posts.len()),
        );
        Ok(())
    })
    .expect("nothing is asserted per case");

    for (corner, times) in seen {
        eprintln!("{corner}: {times}");
        assert!(times >= 20, "the generator reached `{corner}` {times} times in 1 000 cases");
    }
}
