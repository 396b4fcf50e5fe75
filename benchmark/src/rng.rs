//! The harness's own seed derivation: splitmix64, so the benchmark needs no
//! `rand` crate and the program under test only ever sees finished seeds.

/// One splitmix64 step: advances `state` and returns the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a derived seed is used for. Streams never share seeds, so a warm-up
/// query can never pre-load the pilot plan of a timed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Table and synopsis generation.
    Data = 1,
    /// Untimed warm-up queries.
    Warmup = 2,
    /// Queries of the untraced pass.
    Timed = 3,
    /// Queries of the traced replay.
    Traced = 4,
    /// `maintain_synopses` calls.
    Maintain = 5,
}

/// The `index`-th seed of `stream` under the run's `--seed`.
pub fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut state = seed ^ (stream as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut state);
    state ^= index.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn splitmix64_reference_vector() {
        // First outputs of the reference implementation seeded with 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn derivation_repeats_and_separates() {
        assert_eq!(derive(7, Stream::Timed, 3), derive(7, Stream::Timed, 3));
        let mut seen = BTreeSet::new();
        for seed in [1u64, 2] {
            for stream in [Stream::Data, Stream::Warmup, Stream::Timed, Stream::Traced] {
                for index in 0..500 {
                    assert!(
                        seen.insert(derive(seed, stream, index)),
                        "collision at seed {seed} {stream:?} {index}"
                    );
                }
            }
        }
    }
}
