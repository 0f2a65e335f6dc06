//! Sets of small indices kept as `u64` words: bit `i % 64` of word
//! `i / 64` stands for index `i`.

/// Words needed for `n` bits.
pub const fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// Whether bit `i` is set (false past the last word).
pub fn test(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// Sets or clears bit `i`.
///
/// # Panics
///
/// Panics if `i` lies past the last word.
pub fn assign(words: &mut [u64], i: usize, on: bool) {
    let bit = 1u64 << (i % 64);
    if on {
        words[i / 64] |= bit;
    } else {
        words[i / 64] &= !bit;
    }
}

/// Whether any bit of `range` is set (bits past the last word count as
/// clear). Reads a word at a time.
pub fn any_in(words: &[u64], range: std::ops::Range<usize>) -> bool {
    let mut i = range.start;
    while i < range.end {
        let lo = i % 64;
        let n = (64 - lo).min(range.end - i);
        let mask = (u64::MAX >> (64 - n)) << lo;
        if words.get(i / 64).is_some_and(|w| w & mask != 0) {
            return true;
        }
        i += n;
    }
    false
}

/// The set bits of a word slice: ascending from the front, each found
/// with one `trailing_zeros`, and descending from the back, each found
/// with one `leading_zeros`, so runs of clear bits cost a word each.
#[derive(Debug, Clone)]
pub struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the front word.
    lo: usize,
    /// Index of the back word (`lo` when the two cursors share a word).
    hi: usize,
    /// Bits of word `lo` not yet yielded.
    front: u64,
    /// Bits of word `hi` not yet yielded; unused while `lo == hi`, when
    /// `front` holds that word's bits.
    back: u64,
}

impl<'a> SetBits<'a> {
    /// Iterates the set bits of `words`.
    pub fn new(words: &'a [u64]) -> Self {
        let hi = words.len().saturating_sub(1);
        SetBits {
            words,
            lo: 0,
            hi,
            front: words.first().copied().unwrap_or(0),
            back: words.get(hi).copied().unwrap_or(0),
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.front != 0 {
                let bit = self.front.trailing_zeros() as usize;
                self.front &= self.front - 1;
                return Some(self.lo * 64 + bit);
            }
            if self.lo >= self.hi {
                return None;
            }
            self.lo += 1;
            self.front = if self.lo == self.hi {
                self.back
            } else {
                self.words[self.lo]
            };
        }
    }
}

impl DoubleEndedIterator for SetBits<'_> {
    fn next_back(&mut self) -> Option<usize> {
        loop {
            let bits = if self.lo == self.hi {
                &mut self.front
            } else {
                &mut self.back
            };
            if *bits != 0 {
                let bit = 63 - bits.leading_zeros() as usize;
                *bits &= !(1 << bit);
                return Some(self.hi * 64 + bit);
            }
            if self.lo >= self.hi {
                return None;
            }
            self.hi -= 1;
            if self.hi > self.lo {
                self.back = self.words[self.hi];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::component_rng;

    #[test]
    fn set_bits_match_a_per_bit_scan_from_both_ends() {
        let mut rng = component_rng(5, "set-bits");
        for len in 0..5usize {
            for _ in 0..50 {
                let words: Vec<u64> = (0..len)
                    .map(|_| match rng.gen_range(0u32..4) {
                        0 => 0,
                        1 => u64::MAX,
                        _ => rng.gen_range(0..u64::MAX),
                    })
                    .collect();
                let want: Vec<usize> = (0..len * 64).filter(|&i| test(&words, i)).collect();
                assert_eq!(SetBits::new(&words).collect::<Vec<_>>(), want);
                assert!(SetBits::new(&words).rev().eq(want.iter().rev().copied()));
                // Alternating ends meet without losing or repeating a bit.
                let mut it = SetBits::new(&words);
                let (mut front, mut back) = (Vec::new(), Vec::new());
                for step in 0.. {
                    let next = if step % 3 == 0 {
                        it.next_back().map(|b| back.push(b))
                    } else {
                        it.next().map(|b| front.push(b))
                    };
                    if next.is_none() {
                        break;
                    }
                }
                front.extend(back.into_iter().rev());
                assert_eq!(front, want, "{words:x?}");
            }
        }
    }

    #[test]
    fn any_in_matches_a_per_bit_test() {
        let mut rng = component_rng(6, "any-in");
        for _ in 0..200 {
            let words: Vec<u64> = (0..3)
                .map(|_| 1u64 << rng.gen_range(0u32..64) | 1u64 << rng.gen_range(0u32..64))
                .collect();
            let start = rng.gen_range(0..200usize);
            let end = start + rng.gen_range(0..140usize);
            let want = (start..end).any(|i| test(&words, i));
            assert_eq!(
                any_in(&words, start..end),
                want,
                "{words:x?} {start}..{end}"
            );
        }
    }

    #[test]
    fn assign_and_test() {
        let mut words = vec![0u64; words_for(130)];
        assert_eq!(words.len(), 3);
        for i in [0, 63, 64, 129] {
            assign(&mut words, i, true);
            assert!(test(&words, i));
        }
        assign(&mut words, 63, false);
        assert!(!test(&words, 63));
        assert!(!test(&words, 500));
        assert_eq!(SetBits::new(&words).collect::<Vec<_>>(), [0, 64, 129]);
    }
}
