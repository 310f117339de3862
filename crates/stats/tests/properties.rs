//! Properties of the streaming estimators over their public API.

use sstd_stats::OnlineStats;
use sstd_testkit::{check, gens};

#[test]
fn merge_equals_sequential() {
    let side = || gens::vec_of(gens::f64_in(-1e6, 1e6), 0, 49);
    check("merge_equals_sequential", 256, &gens::pair(side(), side()), |(xs, ys)| {
        let mut merged: OnlineStats = xs.iter().copied().collect();
        let other: OnlineStats = ys.iter().copied().collect();
        merged.merge(&other);
        let seq: OnlineStats = xs.iter().chain(ys).copied().collect();
        if merged.count() != seq.count() {
            return Err(format!("count {} != {}", merged.count(), seq.count()));
        }
        if merged.count() > 0 {
            let var_tol = 1e-4 * (1.0 + seq.population_variance());
            if (merged.mean() - seq.mean()).abs() >= 1e-6
                || (merged.population_variance() - seq.population_variance()).abs() >= var_tol
            {
                return Err(format!("merged {merged} != sequential {seq}"));
            }
        }
        Ok(())
    });
}

#[test]
fn variance_never_negative() {
    check("variance_never_negative", 256, &gens::vec_of(gens::f64_in(-1e9, 1e9), 0, 99), |xs| {
        let s: OnlineStats = xs.iter().copied().collect();
        if s.population_variance() >= 0.0 {
            Ok(())
        } else {
            Err(format!("variance {} < 0", s.population_variance()))
        }
    });
}
