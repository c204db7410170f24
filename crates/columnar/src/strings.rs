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

    /// Looks up the code for an exact string, if present in the dictionary.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.dict.iter().position(|d| d == s).map(|p| p as u32)
    }

    /// Materializes a sub-range as a new `StringColumn` sharing the dictionary.
    pub fn slice(&self, start: usize, len: usize) -> StringColumn {
        self.with_codes(self.codes[start..start + len].to_vec())
    }

    /// Gathers the rows at `positions` into a new column sharing the dictionary.
    pub fn gather(&self, positions: &[usize]) -> StringColumn {
        self.with_codes(positions.iter().map(|&p| self.codes[p]).collect())
    }
}

/// Simple SQL `LIKE` matcher supporting `%` (any run) and `_` (any char).
///
/// The TPC-H queries in the paper only need prefix/suffix/contains patterns
/// (`'%PROMO%'`, `'ECONOMY ANODIZED STEEL'`), but a general matcher keeps the
/// operator layer honest.
pub fn like_match(pattern: &str, value: &str) -> bool {
    fn rec(p: &[char], v: &[char]) -> bool {
        match p.first() {
            None => v.is_empty(),
            Some('%') => {
                // Try to match the rest of the pattern at every suffix.
                (0..=v.len()).any(|skip| rec(&p[1..], &v[skip..]))
            }
            Some('_') => !v.is_empty() && rec(&p[1..], &v[1..]),
            Some(&c) => v.first() == Some(&c) && rec(&p[1..], &v[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let v: Vec<char> = value.chars().collect();
    rec(&p, &v)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn code_lookup() {
        let c = StringColumn::from_values(["x", "y"]);
        assert_eq!(c.code_of("x"), Some(0));
        assert_eq!(c.code_of("y"), Some(1));
        assert_eq!(c.code_of("z"), None);
    }

    #[test]
    fn slice_and_gather_share_dictionary() {
        let c = StringColumn::from_values(["a", "b", "c", "d"]);
        let s = c.slice(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.value(0), "b");
        assert!(Arc::ptr_eq(s.dict(), c.dict()));

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
}
