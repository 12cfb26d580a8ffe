//! The plaintext `/metrics` exposition of `rsnd` and `rsnc`, read as
//! counters so that a run's share of them is the difference between a
//! scrape after it and one before it.

use std::collections::BTreeMap;

/// One scrape: series (`name` or `name{labels}`, as printed) to value.
pub type Scrape = BTreeMap<String, f64>;

/// Parses an exposition. Comment lines and lines without a numeric value
/// are skipped.
#[must_use]
pub fn parse(text: &str) -> Scrape {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.trim().to_string(), value.parse::<f64>().ok()?))
        })
        .collect()
}

/// How much `series` grew between two scrapes (a series absent from a
/// scrape counts as 0).
#[must_use]
pub fn delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

/// `hits / (hits + misses)` over a run, or 0 when neither moved.
#[must_use]
pub fn hit_ratio(before: &Scrape, after: &Scrape, hits: &str, misses: &str) -> f64 {
    let h = delta(before, after, hits);
    let m = delta(before, after, misses);
    if h + m == 0.0 {
        0.0
    } else {
        h / (h + m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "rsnd_requests_total{endpoint=\"analyze\"} 20\n\
                          rsnd_cache_hits_total 2\n\
                          rsnd_cache_misses_total 18\n\
                          rsnd_cache_hit_rate 0.1000\n\
                          # a comment\n\
                          rsnd_queue_rejected_total 0\n";
    const AFTER: &str = "rsnd_requests_total{endpoint=\"analyze\"} 120\n\
                         rsnd_cache_hits_total 2\n\
                         rsnd_cache_misses_total 118\n\
                         rsnd_cache_hit_rate 0.0167\n\
                         rsnd_queue_rejected_total 0\n\
                         rsnc_shards_dispatched_total 200\n";

    #[test]
    fn scrapes_parse_labelled_and_plain_series() {
        let s = parse(BEFORE);
        assert_eq!(s["rsnd_requests_total{endpoint=\"analyze\"}"], 20.0);
        assert_eq!(s["rsnd_cache_hit_rate"], 0.1);
        assert_eq!(s.len(), 5, "comments are skipped");
    }

    #[test]
    fn deltas_count_only_the_run() {
        let (b, a) = (parse(BEFORE), parse(AFTER));
        assert_eq!(delta(&b, &a, "rsnd_requests_total{endpoint=\"analyze\"}"), 100.0);
        assert_eq!(delta(&b, &a, "rsnd_queue_rejected_total"), 0.0);
        // A series that first appears after the run started counts from 0.
        assert_eq!(delta(&b, &a, "rsnc_shards_dispatched_total"), 200.0);
        assert_eq!(delta(&b, &a, "missing_series"), 0.0);
        assert_eq!(hit_ratio(&b, &a, "rsnd_cache_hits_total", "rsnd_cache_misses_total"), 0.0);
        let warm = parse("rsnd_cache_hits_total 52\nrsnd_cache_misses_total 68\n");
        assert_eq!(hit_ratio(&b, &warm, "rsnd_cache_hits_total", "rsnd_cache_misses_total"), 0.5);
    }
}
