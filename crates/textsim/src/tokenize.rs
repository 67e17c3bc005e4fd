//! Tokenizers.
//!
//! Every tokenizer can run in *bag* mode (keep duplicates, the default) or
//! *set* mode (dedupe while preserving first-occurrence order), matching
//! `py_stringmatching`'s `return_set` flag. Set mode is what the set-based
//! similarity measures and the sim-join prefix filters consume.
//!
//! Each tokenizer is written once, as a *visitor*
//! ([`Tokenizer::for_each_token`]) that hands every token to a callback as
//! a borrowed `&str` and allocates nothing on ASCII input;
//! [`Tokenizer::tokenize`] is the provided method that collects the visit.
//! Batch consumers never materialize token strings: they go through
//! [`crate::TokenInterner::intern_tokens`], which turns the visit straight
//! into token ids.

use std::collections::HashSet;

/// A named tokenizer turning a string into tokens.
pub trait Tokenizer: Send + Sync {
    /// Visit the tokens of `s` in order of occurrence. The `&str` handed
    /// to `f` is only valid for that call (it may live in a stack buffer).
    ///
    /// In bag mode exactly the tokens of `s` are visited. In set mode
    /// **duplicates may be visited too** (deduplicating here would cost
    /// every caller a per-string table, and id consumers sort + dedup
    /// anyway), but *first occurrences* come in the order
    /// [`Tokenizer::tokenize`] returns them — the order interner ids are
    /// assigned in.
    ///
    /// ```
    /// use magellan_textsim::tokenize::{AlphanumericTokenizer, Tokenizer};
    ///
    /// let tok = AlphanumericTokenizer::as_set();
    /// let mut longest = 0;
    /// tok.for_each_token("O'Brien-Smith, J.R. (2nd)", &mut |t| longest = longest.max(t.len()));
    /// assert_eq!(longest, 5); // "brien", "smith": lowercased on the fly, no String made
    /// assert_eq!(tok.tokenize("Dave dave DAVE smith"), ["dave", "smith"]);
    /// ```
    fn for_each_token(&self, s: &str, f: &mut dyn FnMut(&str));

    /// True in set mode: [`Tokenizer::tokenize`] keeps only the first
    /// occurrence of each token.
    fn return_set(&self) -> bool;

    /// Tokenize `s` into owned tokens.
    fn tokenize(&self, s: &str) -> Vec<String> {
        let mut toks = Vec::new();
        self.for_each_token(s, &mut |t| toks.push(t.to_owned()));
        if self.return_set() {
            dedupe(toks)
        } else {
            toks
        }
    }

    /// A short, stable name used in generated feature names, e.g. `"3gram"`
    /// (so features print as `jaccard(3gram(A.name), 3gram(B.name))`).
    fn name(&self) -> String;
}

/// Dedupe tokens preserving first occurrence.
fn dedupe(tokens: Vec<String>) -> Vec<String> {
    let mut seen: HashSet<&str> = HashSet::with_capacity(tokens.len());
    let keep: Vec<bool> = tokens.iter().map(|t| seen.insert(t.as_str())).collect();
    tokens
        .into_iter()
        .zip(keep)
        .filter_map(|(t, k)| k.then_some(t))
        .collect()
}

/// Tokens up to this many bytes are lowercased in a stack buffer.
const STACK_TOKEN_BYTES: usize = 64;
/// Padded ASCII strings up to this many bytes are q-grammed from a stack
/// buffer.
const STACK_PADDED_BYTES: usize = 128;

/// Split on Unicode whitespace.
#[derive(Debug, Clone, Copy, Default)]
pub struct WhitespaceTokenizer {
    /// Dedupe tokens (set semantics).
    pub return_set: bool,
}

impl WhitespaceTokenizer {
    /// Bag-semantics whitespace tokenizer.
    pub fn new() -> Self {
        Self { return_set: false }
    }

    /// Set-semantics whitespace tokenizer.
    pub fn as_set() -> Self {
        Self { return_set: true }
    }
}

impl Tokenizer for WhitespaceTokenizer {
    fn for_each_token(&self, s: &str, f: &mut dyn FnMut(&str)) {
        s.split_whitespace().for_each(f);
    }

    fn return_set(&self) -> bool {
        self.return_set
    }

    fn name(&self) -> String {
        "ws".to_owned()
    }
}

/// Split on any of a fixed set of delimiter characters.
#[derive(Debug, Clone)]
pub struct DelimiterTokenizer {
    delimiters: Vec<char>,
    /// Dedupe tokens (set semantics).
    pub return_set: bool,
}

impl DelimiterTokenizer {
    /// Tokenizer splitting on the given delimiter characters.
    pub fn new(delimiters: &[char]) -> Self {
        Self {
            delimiters: delimiters.to_vec(),
            return_set: false,
        }
    }
}

impl Tokenizer for DelimiterTokenizer {
    fn for_each_token(&self, s: &str, f: &mut dyn FnMut(&str)) {
        s.split(|c: char| self.delimiters.contains(&c))
            .filter(|t| !t.is_empty())
            .for_each(f);
    }

    fn return_set(&self) -> bool {
        self.return_set
    }

    fn name(&self) -> String {
        let d: String = self.delimiters.iter().collect();
        format!("delim[{d}]")
    }
}

/// Maximal runs of ASCII-alphanumeric characters, lowercased.
/// This is the tokenizer EM feature generators default to for noisy name
/// fields: punctuation and case drift disappear.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlphanumericTokenizer {
    /// Dedupe tokens (set semantics).
    pub return_set: bool,
}

impl AlphanumericTokenizer {
    /// Bag-semantics alphanumeric tokenizer.
    pub fn new() -> Self {
        Self { return_set: false }
    }

    /// Set-semantics alphanumeric tokenizer.
    pub fn as_set() -> Self {
        Self { return_set: true }
    }
}

/// What the alphanumeric scan needs to know of a byte, one table load
/// per byte: [`ALNUM`] for a lower-case letter or digit, [`UPPER`] for an
/// upper-case letter, 0 for anything else.
const BYTE_CLASS: [u8; 256] = {
    let mut class = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        if byte.is_ascii_uppercase() {
            class[b] = UPPER;
        } else if byte.is_ascii_alphanumeric() {
            class[b] = ALNUM;
        }
        b += 1;
    }
    class
};
const ALNUM: u8 = 1;
const UPPER: u8 = 2;

impl Tokenizer for AlphanumericTokenizer {
    /// A byte scan: every byte of a multi-byte character is `>= 0x80` and
    /// so never ASCII-alphanumeric, which makes the byte runs exactly the
    /// `char` runs, on any `&str`. A run without an upper-case byte is
    /// handed out as a slice of `s`; otherwise it is lowercased into a
    /// stack buffer (on the heap beyond [`STACK_TOKEN_BYTES`]).
    fn for_each_token(&self, s: &str, f: &mut dyn FnMut(&str)) {
        let bytes = s.as_bytes();
        let class = |i: usize| BYTE_CLASS[usize::from(bytes[i])];
        let mut buf = [0u8; STACK_TOKEN_BYTES];
        let mut i = 0;
        while i < bytes.len() {
            if class(i) == 0 {
                i += 1;
                continue;
            }
            let start = i;
            let mut seen = 0;
            while i < bytes.len() && class(i) != 0 {
                seen |= class(i);
                i += 1;
            }
            // Both ends sit next to ASCII bytes, so they are char boundaries.
            let run = &s[start..i];
            if seen & UPPER == 0 {
                f(run);
            } else if let Some(low) = buf.get_mut(..run.len()) {
                low.copy_from_slice(run.as_bytes());
                low.make_ascii_lowercase();
                f(std::str::from_utf8(low).expect("an ASCII run is UTF-8"));
            } else {
                f(&run.to_ascii_lowercase());
            }
        }
    }

    fn return_set(&self) -> bool {
        self.return_set
    }

    fn name(&self) -> String {
        "alnum".to_owned()
    }
}

/// Character q-grams, optionally padded with `#`/`$` sentinels the way
/// `py_stringmatching` pads (so that string prefixes/suffixes are
/// distinguishable from interior substrings).
#[derive(Debug, Clone, Copy)]
pub struct QgramTokenizer {
    /// Gram size (≥ 1).
    pub q: usize,
    /// Pad with `q-1` leading `#` and trailing `$` sentinels.
    pub padded: bool,
    /// Dedupe tokens (set semantics).
    pub return_set: bool,
}

impl QgramTokenizer {
    /// Padded bag-semantics q-gram tokenizer.
    pub fn new(q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        Self {
            q,
            padded: true,
            return_set: false,
        }
    }

    /// Padded set-semantics q-gram tokenizer (what sim-joins consume).
    pub fn as_set(q: usize) -> Self {
        Self {
            return_set: true,
            ..Self::new(q)
        }
    }

    /// Unpadded variant.
    pub fn unpadded(q: usize) -> Self {
        Self {
            padded: false,
            ..Self::new(q)
        }
    }
}

impl Tokenizer for QgramTokenizer {
    /// Over ASCII input a q-gram is a window of `q` *bytes*: of `s` itself
    /// when unpadded, else of the padded string assembled in a stack
    /// buffer (on the heap beyond [`STACK_PADDED_BYTES`]). Any other input
    /// is decoded to `char`s once and each window re-encoded into one
    /// reused `String`.
    fn for_each_token(&self, s: &str, f: &mut dyn FnMut(&str)) {
        let q = self.q;
        let pad = if self.padded { q - 1 } else { 0 };
        if s.is_ascii() {
            let mut byte_windows = |text: &str| {
                for start in 0..(text.len() + 1).saturating_sub(q) {
                    f(&text[start..start + q]);
                }
            };
            if pad == 0 {
                return byte_windows(s);
            }
            let total = s.len() + 2 * pad;
            let mut stack = [0u8; STACK_PADDED_BYTES];
            let mut heap = Vec::new();
            let padded = match stack.get_mut(..total) {
                Some(buf) => buf,
                None => {
                    heap.resize(total, 0u8);
                    &mut heap[..]
                }
            };
            padded[..pad].fill(b'#');
            padded[pad..pad + s.len()].copy_from_slice(s.as_bytes());
            padded[pad + s.len()..].fill(b'$');
            return byte_windows(std::str::from_utf8(padded).expect("ASCII is UTF-8"));
        }
        let mut chars: Vec<char> = Vec::with_capacity(s.len() + 2 * pad);
        chars.extend(std::iter::repeat_n('#', pad));
        chars.extend(s.chars());
        chars.extend(std::iter::repeat_n('$', pad));
        let mut gram = String::with_capacity(4 * q);
        for w in chars.windows(q) {
            gram.clear();
            gram.extend(w);
            f(&gram);
        }
    }

    fn return_set(&self) -> bool {
        self.return_set
    }

    fn name(&self) -> String {
        format!("{}gram", self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_bag_and_set() {
        let bag = WhitespaceTokenizer::new();
        assert_eq!(bag.tokenize("a  b a\tc"), vec!["a", "b", "a", "c"]);
        let set = WhitespaceTokenizer::as_set();
        assert_eq!(set.tokenize("a  b a\tc"), vec!["a", "b", "c"]);
        assert!(bag.tokenize("   ").is_empty());
    }

    #[test]
    fn delimiter_skips_empty_fields() {
        let t = DelimiterTokenizer::new(&[',', ';']);
        assert_eq!(t.tokenize("a,,b;c,"), vec!["a", "b", "c"]);
        assert_eq!(t.name(), "delim[,;]");
    }

    #[test]
    fn alphanumeric_lowercases_and_splits_on_punctuation() {
        let t = AlphanumericTokenizer::new();
        assert_eq!(
            t.tokenize("O'Brien-Smith, J.R. (2nd)"),
            vec!["o", "brien", "smith", "j", "r", "2nd"]
        );
        assert!(t.tokenize("!!!").is_empty());
    }

    #[test]
    fn qgram_padded() {
        let t = QgramTokenizer::new(3);
        assert_eq!(t.tokenize("ab"), vec!["##a", "#ab", "ab$", "b$$"]);
        assert_eq!(t.name(), "3gram");
    }

    #[test]
    fn qgram_unpadded_short_string_yields_nothing() {
        let t = QgramTokenizer::unpadded(3);
        assert!(t.tokenize("ab").is_empty());
        assert_eq!(t.tokenize("abc"), vec!["abc"]);
        assert_eq!(t.tokenize("abcd"), vec!["abc", "bcd"]);
    }

    #[test]
    fn qgram_set_mode_dedupes() {
        let t = QgramTokenizer::as_set(2);
        // "aaa" padded: #a aa aa a$ -> dedupe keeps first "aa"
        assert_eq!(t.tokenize("aaa"), vec!["#a", "aa", "a$"]);
    }

    #[test]
    fn qgram_handles_multibyte_chars() {
        let t = QgramTokenizer::unpadded(2);
        assert_eq!(t.tokenize("héllo").len(), 4);
    }

    #[test]
    fn empty_string_is_empty_tokens() {
        assert!(WhitespaceTokenizer::new().tokenize("").is_empty());
        assert!(AlphanumericTokenizer::new().tokenize("").is_empty());
        // padded 1-gram of "" is empty: no chars.
        assert!(QgramTokenizer::new(1).tokenize("").is_empty());
    }
}
