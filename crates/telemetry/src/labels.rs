//! Bounded label sets for dimensional metrics.
//!
//! A [`LabelSet`] is a small, sorted, deduplicated list of
//! `key = value` pairs (`chip_id`, `tile`, `detector`, `fault_kind`, …)
//! attached to a metric series. Two bounds keep a fleet of chips from
//! blowing up the registry:
//!
//! - **pair bound** — a set holds at most [`LabelSet::MAX_PAIRS`] pairs;
//!   extra pairs are dropped (first `MAX_PAIRS` in key order win);
//! - **cardinality bound** — each metric *family* (one name) holds at
//!   most a configured number of distinct label sets; once the cap is
//!   reached, previously-unseen sets route to the reserved
//!   [`LabelSet::overflow`] bucket so hot paths never allocate without
//!   bound (see `InMemoryRecorder::with_series_cap`).
//!
//! The canonical rendering (`a="x",b="y"` — sorted keys, Prometheus
//! label-value escaping) doubles as the registry key, so logically equal
//! sets always hit the same series.

use std::fmt;

/// The reserved label key marking the cardinality-overflow bucket.
pub const OVERFLOW_KEY: &str = "overflow";

/// A small, sorted, bounded set of `key = value` label pairs.
///
/// Construction sites keep pairs sorted by key and deduplicated
/// (last-written value wins), so equality, ordering and rendering are
/// all canonical.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelSet {
    pairs: Vec<(String, String)>,
}

impl LabelSet {
    /// Hard bound on pairs per set; inserts beyond it are ignored.
    pub const MAX_PAIRS: usize = 8;

    /// The empty label set (renders as no labels at all): the series
    /// an unlabeled metric update lands in.
    pub const fn new() -> Self {
        Self { pairs: Vec::new() }
    }

    /// Builds a set from `(key, value)` pairs; sorts, deduplicates
    /// (last value for a repeated key wins) and truncates to
    /// [`Self::MAX_PAIRS`].
    pub fn from_pairs<K: Into<String>, V: Into<String>>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Self {
        let mut set = Self::new();
        for (k, v) in pairs {
            set.insert(k.into(), v.into());
        }
        set
    }

    /// The reserved overflow bucket: `{overflow="true"}`. Families at
    /// their cardinality cap route unseen label sets here.
    pub fn overflow() -> Self {
        Self::from_pairs([(OVERFLOW_KEY, "true")])
    }

    /// Whether this is the reserved overflow bucket.
    pub fn is_overflow(&self) -> bool {
        self.pairs.len() == 1 && self.pairs[0].0 == OVERFLOW_KEY
    }

    /// Returns a copy with `key = value` set (replacing any existing
    /// value for `key`). The builder-style spelling for hot paths that
    /// extend a base set.
    pub fn with(&self, key: impl Into<String>, value: impl Into<String>) -> Self {
        let mut out = self.clone();
        out.insert(key.into(), value.into());
        out
    }

    fn insert(&mut self, key: String, value: String) {
        match self.pairs.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.pairs[i].1 = value,
            Err(i) => {
                if self.pairs.len() < Self::MAX_PAIRS {
                    self.pairs.insert(i, (key, value));
                }
            }
        }
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.pairs[i].1.as_str())
    }

    /// Number of pairs held.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the set holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The sorted `(key, value)` pairs.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// Canonical Prometheus-style rendering of the pairs *without*
    /// braces: `a="x",b="y"` (empty string for the empty set). Label
    /// values are escaped per the Prometheus text format (`\\`, `\"`,
    /// `\n`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        out
    }
}

impl fmt::Display for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.render())
    }
}

/// Escapes a Prometheus label value: backslash, double quote and
/// line feed must be escaped per the text exposition format.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes Prometheus `# HELP` text: backslash and line feed only
/// (quotes are legal in help text).
pub fn escape_help_text(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_sorted_and_deduplicated() {
        let a = LabelSet::from_pairs([("tile", "r0c1"), ("chip_id", "c7"), ("tile", "r2c0")]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("tile"), Some("r2c0"));
        assert_eq!(a.render(), "chip_id=\"c7\",tile=\"r2c0\"");
        // Insertion order must not matter.
        let b = LabelSet::new().with("tile", "r2c0").with("chip_id", "c7");
        assert_eq!(a, b);
    }

    #[test]
    fn pair_count_is_bounded() {
        let mut set = LabelSet::new();
        for i in 0..32 {
            set = set.with(format!("k{i:02}"), "v");
        }
        assert_eq!(set.len(), LabelSet::MAX_PAIRS);
        // Existing keys still update in place at the bound.
        let updated = set.with("k00", "w");
        assert_eq!(updated.get("k00"), Some("w"));
        assert_eq!(updated.len(), LabelSet::MAX_PAIRS);
    }

    #[test]
    fn overflow_bucket_is_recognizable() {
        assert!(LabelSet::overflow().is_overflow());
        assert!(!LabelSet::new().is_overflow());
        assert!(!LabelSet::from_pairs([("overflow", "true"), ("x", "1")]).is_overflow());
        assert_eq!(LabelSet::overflow().render(), "overflow=\"true\"");
    }

    #[test]
    fn rendering_escapes_label_values() {
        let set = LabelSet::from_pairs([("k", "a\"b\\c\nd")]);
        assert_eq!(set.render(), "k=\"a\\\"b\\\\c\\nd\"");
        assert_eq!(set.to_string(), "{k=\"a\\\"b\\\\c\\nd\"}");
        assert_eq!(escape_help_text("a\\b\nc\"d"), "a\\\\b\\nc\"d");
    }

    #[test]
    fn empty_set_renders_empty() {
        assert_eq!(LabelSet::new().render(), "");
        assert_eq!(LabelSet::new().to_string(), "{}");
        assert!(LabelSet::new().is_empty());
    }
}
