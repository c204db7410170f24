//! Dictionary-encoded string columns.
//!
//! Analytical string columns (`p_type`, `o_orderpriority`, ...) have few
//! distinct values, so they are stored as a `u32` code per row plus a shared,
//! immutable dictionary. Predicates such as the `batstr.like` calls in the
//! paper's Q14 plan are evaluated once per dictionary entry and then become a
//! cheap code-set membership test per row.

use std::collections::HashMap;
use std::sync::Arc;

/// Dictionary-encoded string column.
#[derive(Debug, Clone)]
pub struct StringColumn {
    codes: Vec<u32>,
    dict: Arc<Vec<String>>,
}

impl StringColumn {
    /// Builds a column from row values, constructing the dictionary on the fly.
    pub fn from_values<S: AsRef<str>, I: IntoIterator<Item = S>>(values: I) -> Self {
        let mut dict: Vec<String> = Vec::new();
        let mut index: HashMap<String, u32> = HashMap::new();
        let mut codes = Vec::new();
        for v in values {
            let s = v.as_ref();
            let code = match index.get(s) {
                Some(&c) => c,
                None => {
                    let c = dict.len() as u32;
                    dict.push(s.to_string());
                    index.insert(s.to_string(), c);
                    c
                }
            };
            codes.push(code);
        }
        StringColumn { codes, dict: Arc::new(dict) }
    }

    /// Builds a column from pre-computed codes and a shared dictionary.
    ///
    /// # Panics
    /// Panics if any code is out of range for the dictionary.
    pub fn from_codes(codes: Vec<u32>, dict: Arc<Vec<String>>) -> Self {
        assert!(codes.iter().all(|&c| (c as usize) < dict.len()), "dictionary code out of range");
        StringColumn { codes, dict }
    }

    /// A column over this column's dictionary with other rows. `codes` must
    /// have been read from `self` (a window, a gather or a concatenation of
    /// such), which is what keeps them in range without a re-validation pass.
    pub(crate) fn with_codes(&self, codes: Vec<u32>) -> StringColumn {
        StringColumn { codes, dict: Arc::clone(&self.dict) }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct dictionary entries.
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Arc<Vec<String>> {
        &self.dict
    }

    /// Per-row dictionary codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// String value of row `i`.
    pub fn value(&self, i: usize) -> &str {
        &self.dict[self.codes[i] as usize]
    }

    /// Dictionary code of row `i`.
    pub fn code(&self, i: usize) -> u32 {
        self.codes[i]
    }

    /// Gathers the rows at `positions` into a new column sharing the dictionary.
    pub fn gather(&self, positions: &[usize]) -> StringColumn {
        self.with_codes(positions.iter().map(|&p| self.codes[p]).collect())
    }
}

/// SQL `LIKE` matcher supporting `%` (any run) and `_` (any one char).
///
/// The TPC-H queries in the paper only need prefix/suffix/contains patterns
/// (`'%PROMO%'`, `'ECONOMY ANODIZED STEEL'`), but a general matcher keeps the
/// operator layer honest. It runs once per dictionary entry of a `LIKE`
/// leaf, in O(pattern × value): on a mismatch it backtracks only to the last
/// `%`, letting that `%` absorb one more character. Earlier `%`s never need
/// revisiting — whatever they would absorb instead, the last one can.
pub fn like_match(pattern: &str, value: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let v: Vec<char> = value.chars().collect();
    let (mut pi, mut vi) = (0, 0);
    // After the last `%` seen: where the pattern resumes, and how much of
    // the value that `%` has absorbed so far.
    let mut last_any: Option<(usize, usize)> = None;
    while vi < v.len() {
        match p.get(pi) {
            Some('%') => {
                pi += 1;
                last_any = Some((pi, vi));
            }
            Some(&c) if c == '_' || c == v[vi] => {
                pi += 1;
                vi += 1;
            }
            _ => match last_any {
                Some((resume, absorbed)) => {
                    last_any = Some((resume, absorbed + 1));
                    (pi, vi) = (resume, absorbed + 1);
                }
                None => return false,
            },
        }
    }
    p[pi..].iter().all(|&c| c == '%')
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recursive matcher `like_match` replaced: it tries every suffix
    /// at each `%`, so its cost grows combinatorially with the wildcards.
    fn like_match_reference(pattern: &str, value: &str) -> bool {
        fn rec(p: &[char], v: &[char]) -> bool {
            match p.first() {
                None => v.is_empty(),
                Some('%') => (0..=v.len()).any(|skip| rec(&p[1..], &v[skip..])),
                Some('_') => !v.is_empty() && rec(&p[1..], &v[1..]),
                Some(&c) => v.first() == Some(&c) && rec(&p[1..], &v[1..]),
            }
        }
        let p: Vec<char> = pattern.chars().collect();
        let v: Vec<char> = value.chars().collect();
        rec(&p, &v)
    }

    /// Every string of length `0..=max_len` over `alphabet`, shortest first.
    fn all_strings(alphabet: &[char], max_len: usize) -> Vec<String> {
        let mut out = vec![String::new()];
        let mut level = vec![String::new()];
        for _ in 0..max_len {
            level = level
                .iter()
                .flat_map(|s| alphabet.iter().map(move |&c| format!("{s}{c}")))
                .collect();
            out.extend(level.iter().cloned());
        }
        out
    }

    #[test]
    fn builds_dictionary() {
        let c = StringColumn::from_values(["a", "b", "a", "c", "b", "a"]);
        assert_eq!(c.len(), 6);
        assert_eq!(c.dict_len(), 3);
        assert_eq!(c.value(0), "a");
        assert_eq!(c.value(3), "c");
        assert_eq!(c.code(0), c.code(2));
        assert_ne!(c.code(0), c.code(1));
        assert!(!c.is_empty());
    }

    #[test]
    fn gather_shares_dictionary() {
        let c = StringColumn::from_values(["a", "b", "c", "d"]);
        let g = c.gather(&[3, 0]);
        assert_eq!(g.value(0), "d");
        assert_eq!(g.value(1), "a");
        assert!(Arc::ptr_eq(g.dict(), c.dict()));
    }

    #[test]
    #[should_panic(expected = "dictionary code out of range")]
    fn from_codes_validates() {
        StringColumn::from_codes(vec![0, 5], Arc::new(vec!["only".to_string()]));
    }

    #[test]
    fn like_matcher() {
        assert!(like_match("%PROMO%", "PROMO BRUSHED COPPER"));
        assert!(like_match("%PROMO%", "SMALL PROMO CASE"));
        assert!(!like_match("%PROMO%", "STANDARD POLISHED"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%", ""));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(like_match("abc%", "abcdef"));
        assert!(like_match("%def", "abcdef"));
    }

    #[test]
    fn like_matcher_agrees_with_the_recursive_reference() {
        // Every pattern over `%`, `_` and two literals up to five symbols
        // (the empty pattern included) against every value over the two
        // literals and a two-byte char up to five chars (the empty value
        // included): `_` must take one char, not one byte.
        let patterns = all_strings(&['a', 'b', '%', '_'], 5);
        let values = all_strings(&['a', 'b', 'é'], 5);
        for p in &patterns {
            for v in &values {
                assert_eq!(like_match(p, v), like_match_reference(p, v), "{p:?} LIKE {v:?}");
            }
        }
    }

    #[test]
    fn like_matcher_is_linear_in_the_wildcards() {
        // Twelve `%a` then `b` over 64 chars: the reference would try about
        // C(64, 12) ≈ 3 · 10^12 ways to place the wildcards.
        let pattern = format!("{}b", "%a".repeat(12));
        assert!(!like_match(&pattern, &"a".repeat(64)));
        assert!(like_match(&pattern, &format!("{}b", "a".repeat(63))));
        assert!(!like_match(&pattern, &format!("{}b", "a".repeat(11))));
    }
}
