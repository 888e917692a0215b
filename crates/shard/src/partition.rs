//! Deterministic pair-dimension partitioning.
//!
//! A sharded run splits the sampled traffic matrix — already a seeded,
//! deterministic sequence (see `sample_city_pairs`) — into `K`
//! contiguous index ranges. Contiguity is what makes merges trivial and
//! exact: shard `i` holds exactly the pairs a single-process run indexes
//! as `range.start..range.end`, in the same order, so concatenating
//! shard payloads by `pair_lo` reassembles the global pair order without
//! any reordering or tie-breaking.
//!
//! The split is **balanced** (`n = qK + r` gives the first `r` shards
//! `q + 1` pairs and the rest `q`) and a pure function of `(n, i, K)` —
//! stable across machines, thread counts, and processes. The seed never
//! enters the partition function; it rides in the shard-file header so
//! a merge can prove every shard came from the same sampled matrix.

use std::fmt;
use std::ops::Range;

/// One shard's coordinate: `index` of `count` (`0 ≤ index < count`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Which shard this is, `0..count`.
    pub index: usize,
    /// Total number of shards in the run.
    pub count: usize,
}

impl ShardSpec {
    /// A validated spec; `Err` on a zero count or an out-of-range index.
    pub fn new(index: usize, count: usize) -> Result<ShardSpec, String> {
        if count == 0 {
            return Err("shard count must be ≥ 1".into());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range 0..{count}"));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parse the CLI protocol form `i/K` (e.g. `0/4`, `3/4`).
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, k) = s
            .split_once('/')
            .ok_or_else(|| format!("malformed shard spec `{s}` (expected i/K)"))?;
        let index = i
            .parse::<usize>()
            .map_err(|_| format!("malformed shard index `{i}`"))?;
        let count = k
            .parse::<usize>()
            .map_err(|_| format!("malformed shard count `{k}`"))?;
        ShardSpec::new(index, count)
    }

    /// This shard's contiguous global pair-index range out of `n_pairs`.
    ///
    /// Balanced: sizes differ by at most one, larger shards first.
    /// Ranges tile `0..n_pairs` exactly — `∀i: range(i).end ==
    /// range(i+1).start` — which the merge re-verifies from the headers.
    pub fn range(&self, n_pairs: usize) -> Range<usize> {
        let base = n_pairs / self.count;
        let rem = n_pairs % self.count;
        let lo = self.index * base + self.index.min(rem);
        let len = base + usize::from(self.index < rem);
        lo..lo + len
    }

    /// All `count` specs in index order.
    pub fn all(count: usize) -> Vec<ShardSpec> {
        (0..count).map(|index| ShardSpec { index, count }).collect()
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_and_balance() {
        for n in [0usize, 1, 7, 100, 1001] {
            for k in [1usize, 2, 3, 4, 7, 16] {
                let mut next = 0usize;
                let mut sizes = Vec::new();
                for spec in ShardSpec::all(k) {
                    let r = spec.range(n);
                    assert_eq!(r.start, next, "n={n} k={k} {spec}");
                    next = r.end;
                    sizes.push(r.len());
                }
                assert_eq!(next, n, "ranges must tile 0..{n}");
                let (lo, hi) = (
                    sizes.iter().min().copied().unwrap_or(0),
                    sizes.iter().max().copied().unwrap_or(0),
                );
                assert!(hi - lo <= 1, "unbalanced sizes {sizes:?}");
                assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "larger first");
            }
        }
    }

    #[test]
    fn parse_roundtrip_and_rejections() {
        let s = ShardSpec::parse("2/4").unwrap();
        assert_eq!(s, ShardSpec { index: 2, count: 4 });
        assert_eq!(s.to_string(), "2/4");
        assert_eq!(ShardSpec::parse(&s.to_string()).unwrap(), s);
        for bad in ["", "3", "4/4", "5/4", "a/4", "1/b", "1/0", "-1/4"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad} should not parse");
        }
    }
}
